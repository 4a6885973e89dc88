/**
 * @file
 * Tests for the activity-driven clocking contract: busy()/wakeAt()
 * hints, automatic re-activation on signal delivery, the per-box
 * live-input counter and dirty-output commit, and the bit-exactness
 * of whole-model fast-forward (statistics windows and cycle counts
 * must not depend on whether idle skipping is enabled).
 */

#include <memory>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "sim/box.hh"
#include "sim/scheduler.hh"
#include "sim/signal.hh"
#include "sim/signal_binder.hh"
#include "sim/simulator.hh"
#include "sim/statistics.hh"

using namespace attila;
using namespace attila::sim;

namespace
{

/** Fires every @p period cycles via wakeAt(), never busy between
 * firings.  Records every cycle its update() actually ran. */
class PeriodicBox : public Box
{
  public:
    PeriodicBox(SignalBinder& binder, StatisticManager& stats,
                std::string name, Cycle period)
        : Box(binder, stats, std::move(name)), _period(period)
    {
        wakeAt(0);
    }

    void
    update(Cycle cycle) override
    {
        updates.push_back(cycle);
        wakeAt(cycle + _period);
    }

    bool busy() const override { return false; }

    std::vector<Cycle> updates;

  private:
    Cycle _period;
};

/** Writes a single object at a scheduled cycle, idle otherwise. */
class OneShotProducer : public Box
{
  public:
    OneShotProducer(SignalBinder& binder, StatisticManager& stats,
                    std::string name, const std::string& wire,
                    Cycle fireAt, u32 latency)
        : Box(binder, stats, std::move(name)), _fireAt(fireAt)
    {
        _out = output(wire, 1, latency);
        wakeAt(fireAt);
    }

    void
    update(Cycle cycle) override
    {
        if (cycle == _fireAt)
            _out->write(cycle, std::make_shared<DynamicObject>());
    }

    bool busy() const override { return false; }

  private:
    Signal* _out = nullptr;
    Cycle _fireAt;
};

/** Stateless consumer: never busy, never schedules a wakeup.  It can
 * only run again because arriving signal data re-activates it. */
class SleepyConsumer : public Box
{
  public:
    SleepyConsumer(SignalBinder& binder, StatisticManager& stats,
                   std::string name, const std::string& wire,
                   u32 latency)
        : Box(binder, stats, std::move(name)),
          _stat(stats.get(this->name(), "received"))
    {
        _in = input(wire, 1, latency);
    }

    void
    update(Cycle cycle) override
    {
        if (_in->read(cycle)) {
            receivedAt.push_back(cycle);
            _stat.inc();
        }
    }

    bool busy() const override { return false; }

    std::vector<Cycle> receivedAt;

  private:
    Signal* _in = nullptr;
    Statistic& _stat;
};

void
runWithScheduler(Simulator& sim, bool parallel)
{
    if (parallel)
        sim.setScheduler(std::make_unique<ParallelScheduler>(2));
}

} // anonymous namespace

// A box that hints wakeAt(c) must be clocked at cycle c even when
// everything is idle and the simulator fast-forwards: skipping may
// never jump past a scheduled wakeup.
TEST(Activity, WakeAtNeverSkippedPastWakeup)
{
    for (const bool parallel : {false, true}) {
        Simulator sim;
        PeriodicBox box(sim.binder(), sim.stats(), "periodic", 10);
        sim.addBox(&box);
        runWithScheduler(sim, parallel);
        sim.run(95);
        ASSERT_EQ(box.updates.size(), 10u) << "parallel=" << parallel;
        for (u64 i = 0; i < box.updates.size(); ++i)
            EXPECT_EQ(box.updates[i], i * 10);
        EXPECT_EQ(sim.cycle(), 95u);
    }
}

// With idle skipping off the box is clocked every cycle; the wakeAt
// hint must be behaviour-neutral (updates are a superset).
TEST(Activity, IdleSkipOffClocksEveryCycle)
{
    Simulator sim;
    sim.setIdleSkip(false);
    PeriodicBox box(sim.binder(), sim.stats(), "periodic", 10);
    sim.addBox(&box);
    sim.run(20);
    EXPECT_EQ(box.updates.size(), 20u);
}

// Delivering an object into a sleeping box's input must re-activate
// it in time to observe the arrival, without any wakeAt cooperation
// from the consumer.
TEST(Activity, SignalDeliveryReactivatesSleepingConsumer)
{
    for (const bool parallel : {false, true}) {
        Simulator sim;
        OneShotProducer prod(sim.binder(), sim.stats(), "prod",
                             "wire", /*fireAt=*/5, /*latency=*/3);
        SleepyConsumer cons(sim.binder(), sim.stats(), "cons",
                            "wire", /*latency=*/3);
        sim.addBox(&prod);
        sim.addBox(&cons);
        runWithScheduler(sim, parallel);
        sim.run(20);
        ASSERT_EQ(cons.receivedAt.size(), 1u)
            << "parallel=" << parallel;
        EXPECT_EQ(cons.receivedAt[0], 8u);
    }
}

// Fast-forwarding over idle stretches must close exactly the same
// statistics windows the skipped cycles would have closed: the CSV
// dumps are bit-identical with idle skipping on and off.
TEST(Activity, FastForwardKeepsStatWindowsExact)
{
    const auto capture = [](bool idle_skip) {
        Simulator sim;
        sim.setIdleSkip(idle_skip);
        sim.stats().setWindow(8);
        PeriodicBox box(sim.binder(), sim.stats(), "periodic", 17);
        OneShotProducer prod(sim.binder(), sim.stats(), "prod",
                             "wire", 40, 2);
        SleepyConsumer cons(sim.binder(), sim.stats(), "cons",
                            "wire", 2);
        sim.addBox(&box);
        sim.addBox(&prod);
        sim.addBox(&cons);
        sim.run(100);
        std::ostringstream windows;
        std::ostringstream totals;
        sim.stats().writeCsv(windows);
        sim.stats().writeTotalsCsv(totals);
        return std::make_pair(windows.str(), totals.str());
    };
    const auto on = capture(true);
    const auto off = capture(false);
    EXPECT_EQ(on.first, off.first);
    EXPECT_EQ(on.second, off.second);
}

// When every box is quiescent and nothing is scheduled, run() must
// still account for every requested cycle (fast-forward consumes the
// budget rather than spinning).
TEST(Activity, QuiescentModelFastForwardsToBudget)
{
    Simulator sim;
    OneShotProducer prod(sim.binder(), sim.stats(), "prod", "wire",
                         3, 1);
    SleepyConsumer cons(sim.binder(), sim.stats(), "cons", "wire",
                        1);
    sim.addBox(&prod);
    sim.addBox(&cons);
    sim.run(1'000'000);
    EXPECT_EQ(sim.cycle(), 1'000'000u);
    ASSERT_EQ(cons.receivedAt.size(), 1u);
    EXPECT_EQ(cons.receivedAt[0], 4u);
}

namespace
{

/** Payload for the randomized model's object wires. */
class ValueObj : public DynamicObject
{
  public:
    explicit ValueObj(u64 v) : value(v) {}
    u64 value;
};

/**
 * Randomized toy box: drains every input when clocked, writes a
 * random number of objects or tokens (within bandwidth) to each
 * output until @p stopAt, and sleeps between random wakeups, so it
 * is only clocked through wakeAt() hints or input delivery.
 */
class RandomBox : public Box
{
  public:
    RandomBox(SignalBinder& binder, StatisticManager& stats,
              std::string name, u64 seed, Cycle stopAt)
        : Box(binder, stats, std::move(name)), _rng(seed),
          _stopAt(stopAt)
    {
        wakeAt(0);
    }

    void
    connect(RandomBox& reader, const std::string& wire, u32 bandwidth,
            u32 latency, SignalKind kind)
    {
        binder().registerSignal(this, wire, Direction::Out, bandwidth,
                                latency, kind);
        reader.binder().registerSignal(&reader, wire, Direction::In,
                                       bandwidth, latency, kind);
    }

    void
    update(Cycle cycle) override
    {
        const auto& ins = inputSignals();
        for (u32 i = 0; i < ins.size(); ++i) {
            Signal* in = ins[i];
            if (in->kind() == SignalKind::Token) {
                if (const u32 n = in->readTokens(cycle))
                    mix(cycle, i, n);
                continue;
            }
            while (auto obj = in->read(cycle))
                mix(cycle, i,
                    static_cast<const ValueObj&>(*obj).value);
        }
        if (cycle >= _stopAt)
            return;
        for (Signal* out : outputSignals()) {
            // Leave most outputs clean so the dirty mask is sparse.
            if (_rng() % 3 != 0)
                continue;
            const u32 writes = 1 + _rng() % out->bandwidth();
            for (u32 k = 0; k < writes; ++k) {
                if (out->kind() == SignalKind::Token)
                    out->writeToken(cycle);
                else
                    out->write(cycle,
                               std::make_shared<ValueObj>(_rng()));
            }
        }
        if (_rng() % 4 != 0)
            wakeAt(cycle + 1 + _rng() % 6);
    }

    bool busy() const override { return false; }

    u64 hash = 0;

  private:
    void
    mix(Cycle cycle, u32 input, u64 value)
    {
        hash = hash * 0x100000001b3ull ^ (cycle * 131 + input) ^ value;
    }

    std::mt19937_64 _rng;
    Cycle _stopAt;
};

/** Every box's idle and live-input state against a scan of its
 * inputs; returns the number of disagreements. */
u32
checkActivity(const std::vector<std::unique_ptr<RandomBox>>& boxes,
              Cycle next)
{
    u32 mismatches = 0;
    for (const auto& box : boxes) {
        bool scanEmpty = true;
        u64 live = 0;
        for (const Signal* in : box->inputSignals()) {
            scanEmpty = scanEmpty && in->fastEmpty();
            live += in->inFlight() - in->pendingWrites();
        }
        const bool refIdle =
            !box->busy() && next < box->nextWake() && scanEmpty;
        if (box->idleAt(next) != refIdle || box->liveInputs() != live)
            ++mismatches;
    }
    return mismatches;
}

struct RandomRun
{
    std::vector<u64> hashes;
    u64 writes = 0;
    u64 fanoutWrites = 0;
    u32 mismatches = 0;
};

RandomRun
runRandomModel(u64 seed, bool parallel)
{
    constexpr u32 kBoxes = 6;
    constexpr u32 kFanout = 70; // > 64 outputs: shared dirty bit.
    constexpr Cycle kStop = 1500;
    Simulator sim;
    if (parallel)
        sim.setScheduler(std::make_unique<ParallelScheduler>(4));
    std::mt19937_64 rng(seed);
    std::vector<std::unique_ptr<RandomBox>> boxes;
    for (u32 b = 0; b < kBoxes; ++b) {
        boxes.push_back(std::make_unique<RandomBox>(
            sim.binder(), sim.stats(), "box" + std::to_string(b),
            rng(), kStop));
    }
    const auto randomKind = [&] {
        return rng() % 2 ? SignalKind::Token : SignalKind::Object;
    };
    for (u32 e = 0; e < 16; ++e) {
        const u32 from = rng() % kBoxes;
        const u32 to = (from + 1 + rng() % (kBoxes - 1)) % kBoxes;
        boxes[from]->connect(*boxes[to], "w" + std::to_string(e),
                             1 + rng() % 3, 1 + rng() % 4,
                             randomKind());
    }
    for (u32 f = 0; f < kFanout; ++f) {
        boxes[0]->connect(*boxes[1], "fan" + std::to_string(f),
                          1 + rng() % 2, 1 + rng() % 3, randomKind());
    }
    EXPECT_GT(boxes[0]->outputSignals().size(), 64u);
    for (auto& box : boxes)
        sim.addBox(box.get());

    RandomRun run;
    while (sim.cycle() < kStop + 64) {
        sim.step();
        run.mismatches += checkActivity(boxes, sim.cycle());
    }
    EXPECT_TRUE(sim.quiescent());
    for (const auto& box : boxes)
        run.hashes.push_back(box->hash);
    for (const std::string& name : sim.binder().signalNames()) {
        const Signal* sig = sim.binder().find(name);
        EXPECT_EQ(sig->totalWrites(), sig->totalReads()) << name;
        run.writes += sig->totalWrites();
        if (name.rfind("fan", 0) == 0 &&
            std::stoi(name.substr(3)) >= 63) {
            run.fanoutWrites += sig->totalWrites();
        }
    }
    return run;
}

} // anonymous namespace

// The per-box live-input counter must agree, every cycle, with a
// reference scan over the box's input wires, and idleAt() with the
// scan-based definition of idleness — on randomized wiring mixing
// object and token wires, under the serial and the partitioned
// engine.  Box 0 has more than 64 outputs, so propagate()'s shared
// dirty bit is exercised too: everything written is delivered and
// read, and both engines agree bit for bit.
TEST(Activity, LiveInputCounterMatchesInputScan)
{
    for (const u64 seed : {1ull, 2ull, 3ull}) {
        const RandomRun serial = runRandomModel(seed, false);
        const RandomRun par = runRandomModel(seed, true);
        EXPECT_EQ(serial.mismatches, 0u) << "seed " << seed;
        EXPECT_EQ(par.mismatches, 0u) << "seed " << seed;
        EXPECT_GT(serial.writes, 1000u) << "seed " << seed;
        EXPECT_GT(serial.fanoutWrites, 0u) << "seed " << seed;
        EXPECT_EQ(serial.writes, par.writes) << "seed " << seed;
        EXPECT_EQ(serial.hashes, par.hashes) << "seed " << seed;
    }
}

// The drain check: with every box empty and every registered signal
// empty, a box still counting a live input is a leaked count.  A
// wire registered with another simulator's binder is invisible to
// this simulator's totalInFlight(), so data left on it shows up only
// in the reader box's counter.
TEST(Activity, DrainCheckNamesBoxWithLeakedLiveInput)
{
    Simulator sim;
    Simulator other;
    SleepyConsumer cons(other.binder(), other.stats(), "stray_reader",
                        "stray", 1);
    sim.addBox(&cons);
    EXPECT_TRUE(sim.quiescent());
    Signal* stray = other.binder().find("stray");
    stray->write(0, std::make_shared<DynamicObject>());
    stray->commit();
    try {
        (void)sim.quiescent();
        ADD_FAILURE() << "leaked live input not detected";
    } catch (const SimError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'stray_reader'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("still counts 1 live input"),
                  std::string::npos)
            << what;
    }
}
