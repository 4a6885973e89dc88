/**
 * @file
 * Unit tests for the boxes-and-signals simulation framework.
 */

#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "sim/box.hh"
#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/object_pool.hh"
#include "sim/signal.hh"
#include "sim/signal_binder.hh"
#include "sim/simulator.hh"
#include "sim/statistics.hh"

using namespace attila;
using namespace attila::sim;

namespace
{

DynamicObjectPtr
makeObj(u32 color = 0)
{
    auto obj = std::make_shared<DynamicObject>();
    obj->setColor(color);
    return obj;
}

/** Minimal box for binder tests. */
class NullBox : public Box
{
  public:
    NullBox(SignalBinder& binder, StatisticManager& stats,
            std::string name)
        : Box(binder, stats, std::move(name))
    {}

    void update(Cycle) override {}

    Signal*
    addInput(const std::string& name, u32 bw, u32 lat)
    {
        return input(name, bw, lat);
    }

    Signal*
    addOutput(const std::string& name, u32 bw, u32 lat)
    {
        return output(name, bw, lat);
    }
};

} // anonymous namespace

TEST(Signal, DeliversAfterLatency)
{
    Signal sig("s", 1, 3);
    auto obj = makeObj();
    sig.write(10, obj);
    EXPECT_EQ(sig.read(11), nullptr);
    EXPECT_EQ(sig.read(12), nullptr);
    auto got = sig.read(13);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->id(), obj->id());
    // Nothing left afterwards.
    EXPECT_EQ(sig.read(13), nullptr);
}

TEST(Signal, RespectsBandwidthWithinCycle)
{
    Signal sig("s", 2, 1);
    sig.write(0, makeObj());
    sig.write(0, makeObj());
    EXPECT_FALSE(sig.canWrite(0));
    EXPECT_THROW(sig.write(0, makeObj()), SimError);
}

TEST(Signal, BandwidthRefreshesEachCycle)
{
    Signal sig("s", 1, 2);
    sig.write(0, makeObj());
    EXPECT_TRUE(sig.canWrite(1));
    sig.write(1, makeObj());
    ASSERT_NE(sig.read(2), nullptr);
    ASSERT_NE(sig.read(3), nullptr);
}

TEST(Signal, DetectsDataLoss)
{
    Signal sig("s", 1, 2);
    sig.write(0, makeObj());
    // Never read; writing the slot again a full lap later must
    // detect the lost object.  The ring is rounded up to a power of
    // two (4 slots for latency 2), so the lap is 4 cycles.
    EXPECT_THROW(sig.write(4, makeObj()), SimError);
}

TEST(Signal, MultipleObjectsSameCycleFifo)
{
    Signal sig("s", 4, 1);
    auto a = makeObj(1);
    auto b = makeObj(2);
    sig.write(5, a);
    sig.write(5, b);
    EXPECT_EQ(sig.pendingAt(6), 2u);
    EXPECT_EQ(sig.read(6)->color(), 1u);
    EXPECT_EQ(sig.read(6)->color(), 2u);
}

TEST(Signal, RejectsZeroBandwidthOrLatency)
{
    EXPECT_THROW(Signal("s", 0, 1), FatalError);
    EXPECT_THROW(Signal("s", 1, 0), FatalError);
}

TEST(SignalBinder, ConnectsTwoEnds)
{
    SignalBinder binder;
    StatisticManager stats;
    NullBox producer(binder, stats, "producer");
    NullBox consumer(binder, stats, "consumer");
    Signal* out = producer.addOutput("wire", 2, 3);
    Signal* in = consumer.addInput("wire", 2, 3);
    EXPECT_EQ(out, in);
    EXPECT_NO_THROW(binder.checkConnectivity());
    EXPECT_EQ(binder.writerOf("wire"), "producer");
    EXPECT_EQ(binder.readerOf("wire"), "consumer");
}

TEST(SignalBinder, RejectsInterfaceMismatch)
{
    SignalBinder binder;
    StatisticManager stats;
    NullBox producer(binder, stats, "producer");
    NullBox consumer(binder, stats, "consumer");
    producer.addOutput("wire", 2, 3);
    EXPECT_THROW(consumer.addInput("wire", 2, 4), FatalError);
}

TEST(SignalBinder, RejectsDoubleWriter)
{
    SignalBinder binder;
    StatisticManager stats;
    NullBox a(binder, stats, "a");
    NullBox b(binder, stats, "b");
    a.addOutput("wire", 1, 1);
    EXPECT_THROW(b.addOutput("wire", 1, 1), FatalError);
}

TEST(SignalBinder, ReportsDanglingSignals)
{
    SignalBinder binder;
    StatisticManager stats;
    NullBox a(binder, stats, "a");
    a.addOutput("wire", 1, 1);
    EXPECT_THROW(binder.checkConnectivity(), FatalError);
}

TEST(ObjectPool, RecyclesStorage)
{
    ObjectPool<DynamicObject> pool;
    void* first = nullptr;
    {
        auto obj = pool.acquire();
        first = obj.get();
    }
    EXPECT_EQ(pool.freeCount(), 1u);
    auto again = pool.acquire();
    EXPECT_EQ(again.get(), first);
    EXPECT_EQ(pool.allocated(), 1u);
    EXPECT_EQ(pool.recycled(), 1u);
}

TEST(ObjectPool, SurvivesPoolDeathWithLiveObjects)
{
    std::shared_ptr<DynamicObject> survivor;
    {
        ObjectPool<DynamicObject> pool;
        survivor = pool.acquire();
    }
    // Releasing after the pool is gone must not crash.
    survivor.reset();
}

TEST(Statistics, TotalsAndWindows)
{
    StatisticManager stats;
    stats.setWindow(10);
    Statistic& s = stats.get("box", "events");
    s.inc(3);
    stats.cycle(10); // Window boundary closes the window.
    s.inc(5);
    stats.cycle(20);
    EXPECT_EQ(s.total(), 8u);
    ASSERT_EQ(s.samples().size(), 2u);
    EXPECT_EQ(s.samples()[0], 3u);
    EXPECT_EQ(s.samples()[1], 5u);
}

TEST(Statistics, LateRegistrationPadsWindows)
{
    StatisticManager stats;
    stats.setWindow(10);
    stats.get("box", "early").inc(1);
    stats.cycle(10);
    Statistic& late = stats.get("box", "late");
    late.inc(2);
    stats.cycle(20);
    ASSERT_EQ(late.samples().size(), 2u);
    EXPECT_EQ(late.samples()[0], 0u);
    EXPECT_EQ(late.samples()[1], 2u);
}

TEST(Statistics, CsvOutputShape)
{
    StatisticManager stats;
    stats.setWindow(5);
    stats.get("a", "x").inc(7);
    stats.cycle(5);
    std::ostringstream os;
    stats.writeCsv(os);
    EXPECT_EQ(os.str(), "window,a.x\n0,7\n");
    std::ostringstream totals;
    stats.writeTotalsCsv(totals);
    EXPECT_EQ(totals.str(), "statistic,total\na.x,7\n");
}

TEST(Statistics, ConcurrentGetAndFind)
{
    // get() may insert from worker threads while other workers call
    // find()/names(); every registry accessor must take the lock.
    // Run under TSan this is the regression test for the find() race.
    StatisticManager stats;
    stats.setWindow(100);
    constexpr u32 kThreads = 4;
    constexpr u32 kIters = 200;
    std::vector<std::thread> pool;
    for (u32 t = 0; t < kThreads; ++t) {
        pool.emplace_back([&stats, t] {
            const std::string box = "box" + std::to_string(t);
            for (u32 i = 0; i < kIters; ++i) {
                stats.get(box, "ctr" + std::to_string(i)).inc();
                // Probe the registry only: reading the *counter* of
                // a statistic another thread owns is outside the
                // threading contract, so don't dereference it here.
                const std::string other =
                    "box" + std::to_string((t + 1) % kThreads) +
                    ".ctr" + std::to_string(i);
                [[maybe_unused]] const Statistic* found =
                    stats.find(other);
                if (i % 50 == 0) {
                    EXPECT_GE(stats.names().size(), 1u);
                }
            }
        });
    }
    for (auto& thread : pool)
        thread.join();
    EXPECT_EQ(stats.names().size(), kThreads * kIters);
    for (u32 t = 0; t < kThreads; ++t) {
        const Statistic* s =
            stats.find("box" + std::to_string(t) + ".ctr0");
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->total(), 1u);
    }
}

TEST(DynamicObject, CookieTrail)
{
    DynamicObject parent;
    DynamicObject child;
    child.copyTrailFrom(parent);
    DynamicObject grandchild;
    grandchild.copyTrailFrom(child);
    ASSERT_EQ(grandchild.cookies().size(), 2u);
    EXPECT_EQ(grandchild.cookies()[0], parent.id());
    EXPECT_EQ(grandchild.cookies()[1], child.id());
}

// ===== Two-phase write buffering ===================================

TEST(SignalBuffered, StagedWritesInvisibleUntilCommit)
{
    Signal sig("s", 1, 1);
    sig.setBuffered(true);
    sig.write(0, makeObj(7));
    EXPECT_EQ(sig.pendingWrites(), 1u);
    // Not yet published: the reader must not see it.
    EXPECT_EQ(sig.read(1), nullptr);
    sig.commit();
    EXPECT_EQ(sig.pendingWrites(), 0u);
    auto got = sig.read(1);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->color(), 7u);
}

TEST(SignalBuffered, DisablingBufferingFlushesPending)
{
    Signal sig("s", 1, 1);
    sig.setBuffered(true);
    sig.write(0, makeObj());
    sig.setBuffered(false);
    EXPECT_EQ(sig.pendingWrites(), 0u);
    EXPECT_NE(sig.read(1), nullptr);
}

TEST(SignalBuffered, CanWriteCountsPendingWrites)
{
    Signal sig("s", 2, 1);
    sig.setBuffered(true);
    EXPECT_TRUE(sig.canWrite(0));
    sig.write(0, makeObj());
    EXPECT_TRUE(sig.canWrite(0));
    sig.write(0, makeObj());
    EXPECT_FALSE(sig.canWrite(0));
}

/** The exact diagnostic text from a failing write/commit. */
template <typename Fn>
std::string
simErrorMessage(Fn&& fn)
{
    try {
        fn();
    } catch (const SimError& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected SimError";
    return {};
}

TEST(SignalBuffered, BandwidthDiagnosticMatchesImmediateMode)
{
    const std::string immediate = simErrorMessage([] {
        Signal sig("s", 2, 1);
        sig.write(7, makeObj());
        sig.write(7, makeObj());
        sig.write(7, makeObj());
    });
    const std::string buffered = simErrorMessage([] {
        Signal sig("s", 2, 1);
        sig.setBuffered(true);
        sig.write(7, makeObj());
        sig.write(7, makeObj());
        sig.write(7, makeObj());
    });
    EXPECT_FALSE(immediate.empty());
    EXPECT_EQ(immediate, buffered);
}

TEST(SignalBuffered, DataLossDiagnosticMatchesImmediateMode)
{
    const std::string immediate = simErrorMessage([] {
        Signal sig("s", 1, 2);
        sig.write(0, makeObj());
        sig.write(4, makeObj()); // Same slot one lap on, never read.
    });
    const std::string buffered = simErrorMessage([] {
        Signal sig("s", 1, 2);
        sig.setBuffered(true);
        sig.write(0, makeObj());
        sig.commit();
        sig.write(4, makeObj());
        sig.commit(); // Loss detected when the write publishes.
    });
    EXPECT_FALSE(immediate.empty());
    EXPECT_EQ(immediate, buffered);
}

TEST(SignalBuffered, InFlightCountsSlotsAndPending)
{
    Signal sig("s", 1, 4);
    sig.setBuffered(true);
    EXPECT_EQ(sig.inFlight(), 0u);
    sig.write(0, makeObj());
    EXPECT_EQ(sig.inFlight(), 1u); // Staged.
    sig.commit();
    EXPECT_EQ(sig.inFlight(), 1u); // Travelling.
    ASSERT_NE(sig.read(4), nullptr);
    EXPECT_EQ(sig.inFlight(), 0u);
}

// ===== Token wires ================================================

TEST(SignalToken, DeliversAfterLatencyImmediate)
{
    Signal sig("c", 4, 3, SignalKind::Token);
    sig.writeToken(10);
    sig.writeToken(10);
    EXPECT_EQ(sig.readTokens(11), 0u);
    EXPECT_EQ(sig.readTokens(12), 0u);
    EXPECT_EQ(sig.pendingAt(13), 2u);
    EXPECT_EQ(sig.readTokens(13), 2u);
    // Nothing left afterwards.
    EXPECT_EQ(sig.readTokens(13), 0u);
    EXPECT_EQ(sig.totalWrites(), 2u);
    EXPECT_EQ(sig.totalReads(), 2u);
}

TEST(SignalToken, DeliversAfterLatencyBuffered)
{
    Signal sig("c", 4, 2, SignalKind::Token);
    sig.setBuffered(true);
    sig.writeToken(5);
    sig.writeToken(5);
    sig.writeToken(5);
    EXPECT_EQ(sig.pendingWrites(), 3u);
    // Not yet published: the reader must not see them.
    EXPECT_EQ(sig.readTokens(7), 0u);
    sig.commit();
    EXPECT_EQ(sig.pendingWrites(), 0u);
    EXPECT_EQ(sig.readTokens(6), 0u);
    EXPECT_EQ(sig.readTokens(7), 3u);
    EXPECT_EQ(sig.readTokens(7), 0u);
}

TEST(SignalToken, CanWriteCountsStagedTokens)
{
    Signal sig("c", 2, 1, SignalKind::Token);
    sig.setBuffered(true);
    EXPECT_TRUE(sig.canWrite(0));
    sig.writeToken(0);
    EXPECT_TRUE(sig.canWrite(0));
    sig.writeToken(0);
    EXPECT_FALSE(sig.canWrite(0));
    EXPECT_TRUE(sig.canWrite(1));
}

TEST(SignalToken, BandwidthDiagnosticMatchesObjectMode)
{
    const std::string objects = simErrorMessage([] {
        Signal sig("s", 2, 1);
        sig.write(7, makeObj());
        sig.write(7, makeObj());
        sig.write(7, makeObj());
    });
    const std::string immediate = simErrorMessage([] {
        Signal sig("s", 2, 1, SignalKind::Token);
        sig.writeToken(7);
        sig.writeToken(7);
        sig.writeToken(7);
    });
    const std::string buffered = simErrorMessage([] {
        Signal sig("s", 2, 1, SignalKind::Token);
        sig.setBuffered(true);
        sig.writeToken(7);
        sig.writeToken(7);
        sig.writeToken(7);
    });
    EXPECT_FALSE(objects.empty());
    EXPECT_EQ(objects, immediate);
    EXPECT_EQ(objects, buffered);
}

TEST(SignalToken, DataLossDiagnosticMatchesObjectMode)
{
    const std::string objects = simErrorMessage([] {
        Signal sig("s", 2, 2);
        sig.write(0, makeObj());
        sig.write(0, makeObj());
        sig.write(4, makeObj()); // Same slot one lap on, never read.
    });
    const std::string immediate = simErrorMessage([] {
        Signal sig("s", 2, 2, SignalKind::Token);
        sig.writeToken(0);
        sig.writeToken(0);
        sig.writeToken(4);
    });
    const std::string buffered = simErrorMessage([] {
        Signal sig("s", 2, 2, SignalKind::Token);
        sig.setBuffered(true);
        sig.writeToken(0);
        sig.writeToken(0);
        sig.commit();
        sig.writeToken(4);
        sig.commit(); // Loss detected when the write publishes.
    });
    EXPECT_NE(objects.find("2 object(s)"), std::string::npos)
        << objects;
    EXPECT_EQ(objects, immediate);
    EXPECT_EQ(objects, buffered);
}

TEST(SignalToken, InFlightCountsStagedAndLiveTokens)
{
    Signal sig("c", 4, 2, SignalKind::Token);
    sig.setBuffered(true);
    EXPECT_EQ(sig.inFlight(), 0u);
    sig.writeToken(0);
    sig.writeToken(0);
    EXPECT_EQ(sig.inFlight(), 2u); // Staged.
    EXPECT_TRUE(sig.fastEmpty());  // Staged tokens are not live.
    sig.commit();
    EXPECT_EQ(sig.inFlight(), 2u); // Travelling.
    EXPECT_FALSE(sig.fastEmpty());
    sig.writeToken(1);
    EXPECT_EQ(sig.inFlight(), 3u); // Two live, one staged.
    EXPECT_EQ(sig.readTokens(2), 2u);
    EXPECT_EQ(sig.inFlight(), 1u);
    sig.commit();
    EXPECT_EQ(sig.readTokens(3), 1u);
    EXPECT_EQ(sig.inFlight(), 0u);
    EXPECT_TRUE(sig.fastEmpty());
}

TEST(SignalToken, BinderRejectsKindMismatch)
{
    for (const bool tokenWriter : {true, false}) {
        SignalBinder binder;
        StatisticManager stats;
        NullBox producer(binder, stats, "producer");
        NullBox consumer(binder, stats, "consumer");
        const SignalKind writerKind =
            tokenWriter ? SignalKind::Token : SignalKind::Object;
        const SignalKind readerKind =
            tokenWriter ? SignalKind::Object : SignalKind::Token;
        binder.registerSignal(&producer, "wire", Direction::Out, 2, 1,
                              writerKind);
        try {
            binder.registerSignal(&consumer, "wire", Direction::In, 2,
                                  1, readerKind);
            ADD_FAILURE() << "kind mismatch accepted";
        } catch (const FatalError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("'wire': interface mismatch"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("'consumer'"), std::string::npos)
                << what;
        }
    }
}

TEST(SignalToken, ObjectApiOnTokenWirePanics)
{
    Signal token("t", 2, 1, SignalKind::Token);
    EXPECT_THROW(token.write(0, makeObj()), SimError);
    EXPECT_THROW(token.read(1), SimError);
    token.writeToken(0);
    EXPECT_THROW(token.read(1), SimError);
    EXPECT_EQ(token.readTokens(1), 1u);

    Signal object("o", 2, 1);
    EXPECT_THROW(object.writeToken(0), SimError);
    EXPECT_THROW(object.readTokens(1), SimError);
}

TEST(SignalToken, EveryTokenIsCountedAndTraced)
{
    StatisticManager stats;
    EventTrace events;
    Signal sig("link.credit", 3, 1, SignalKind::Token);
    sig.setBuffered(true);
    sig.setWriteStat(&stats.get("signal.link.credit", "writes"));
    sig.setEventTrace(&events, events.registerSignal(sig.name()));
    sig.writeToken(4);
    sig.writeToken(4);
    sig.writeToken(4);
    sig.commit();
    sig.writeToken(5);
    sig.commit();

    const Statistic* writes = stats.find("signal.link.credit.writes");
    ASSERT_NE(writes, nullptr);
    EXPECT_EQ(writes->total(), 4u);

    // One SignalWrite per token at its write cycle; tokens have no
    // identity and no lineage.
    const EventTraceData data = events.collect();
    std::vector<Cycle> cycles;
    for (const TraceEvent& ev : data.events) {
        ASSERT_EQ(ev.kind, static_cast<u16>(EventKind::SignalWrite));
        EXPECT_EQ(ev.id, kNoTraceId);
        EXPECT_EQ(ev.parent, kNoTraceId);
        cycles.push_back(ev.cycle);
    }
    EXPECT_EQ(cycles, (std::vector<Cycle>{4, 4, 4, 5}));
}

TEST(SignalToken, ReaderBoxCountsLiveTokens)
{
    SignalBinder binder;
    binder.setBuffered(true);
    StatisticManager stats;
    NullBox producer(binder, stats, "producer");
    NullBox consumer(binder, stats, "consumer");
    Signal* wire = binder.registerSignal(&producer, "wire",
                                         Direction::Out, 4, 1,
                                         SignalKind::Token);
    binder.registerSignal(&consumer, "wire", Direction::In, 4, 1,
                          SignalKind::Token);
    wire->writeToken(0);
    wire->writeToken(0);
    EXPECT_EQ(consumer.liveInputs(), 0u); // Staged only.
    producer.propagate(0);
    EXPECT_EQ(wire->pendingWrites(), 0u);
    EXPECT_EQ(consumer.liveInputs(), 2u);
    EXPECT_EQ(wire->readTokens(1), 2u);
    EXPECT_EQ(consumer.liveInputs(), 0u);
}

// ===== Schedulers ================================================

namespace
{

/** Emits one object per cycle for `count` cycles. */
class PulseBox : public Box
{
  public:
    PulseBox(SignalBinder& binder, StatisticManager& stats,
             std::string name, std::string wire, u32 count)
        : Box(binder, stats, std::move(name)), _count(count)
    {
        _out = output(std::move(wire), 1, 1);
    }

    void
    update(Cycle cycle) override
    {
        if (_sent < _count) {
            _out->write(cycle, makeObj());
            ++_sent;
            stat("sent").inc();
        }
    }

    bool empty() const override { return _sent >= _count; }

  private:
    Signal* _out;
    u32 _count;
    u32 _sent = 0;
};

/** Counts objects received on its input wire. */
class SinkBox : public Box
{
  public:
    SinkBox(SignalBinder& binder, StatisticManager& stats,
            std::string name, std::string wire)
        : Box(binder, stats, std::move(name))
    {
        _in = input(std::move(wire), 1, 1);
    }

    void
    update(Cycle cycle) override
    {
        if (_in->read(cycle)) {
            ++received;
            stat("received").inc();
        }
    }

    Signal* _in;
    u32 received = 0;
};

/** Box whose update panics at a given cycle. */
class FaultyBox : public Box
{
  public:
    FaultyBox(SignalBinder& binder, StatisticManager& stats,
              std::string name, Cycle fault_cycle)
        : Box(binder, stats, std::move(name)), _fault(fault_cycle)
    {}

    void
    update(Cycle cycle) override
    {
        if (cycle == _fault)
            panic("box '", name(), "': injected fault at cycle ",
                  cycle);
    }

  private:
    Cycle _fault;
};

/** Run a N-producer/N-sink mesh under `scheduler`, return the stats
 * totals CSV and received counts. */
std::string
runMesh(std::unique_ptr<Scheduler> scheduler, u64 cycles)
{
    Simulator sim;
    sim.setScheduler(std::move(scheduler));
    std::vector<std::unique_ptr<PulseBox>> producers;
    std::vector<std::unique_ptr<SinkBox>> sinks;
    for (u32 i = 0; i < 6; ++i) {
        const std::string wire = "wire" + std::to_string(i);
        producers.push_back(std::make_unique<PulseBox>(
            sim.binder(), sim.stats(), "producer" + std::to_string(i),
            wire, 10 + i));
        sinks.push_back(std::make_unique<SinkBox>(
            sim.binder(), sim.stats(), "sink" + std::to_string(i),
            wire));
        sim.addBox(producers.back().get());
        sim.addBox(sinks.back().get());
    }
    sim.run(cycles);
    EXPECT_TRUE(sim.quiescent());
    std::ostringstream os;
    sim.stats().writeTotalsCsv(os);
    for (u32 i = 0; i < 6; ++i)
        EXPECT_EQ(sinks[i]->received, 10 + i);
    return os.str();
}

} // anonymous namespace

TEST(Scheduler, ParallelMatchesSerialOnMesh)
{
    const std::string serial =
        runMesh(std::make_unique<SerialScheduler>(), 32);
    const std::string par2 =
        runMesh(std::make_unique<ParallelScheduler>(2), 32);
    const std::string par4 =
        runMesh(std::make_unique<ParallelScheduler>(4), 32);
    EXPECT_EQ(serial, par2);
    EXPECT_EQ(serial, par4);
}

TEST(Scheduler, ParallelPropagatesWorkerErrors)
{
    Simulator sim;
    sim.setScheduler(std::make_unique<ParallelScheduler>(4));
    std::vector<std::unique_ptr<FaultyBox>> boxes;
    for (u32 i = 0; i < 8; ++i) {
        boxes.push_back(std::make_unique<FaultyBox>(
            sim.binder(), sim.stats(), "faulty" + std::to_string(i),
            i == 5 ? 3u : 1'000'000u));
        sim.addBox(boxes.back().get());
    }
    sim.run(3);
    EXPECT_THROW(sim.step(), SimError);
}

namespace
{

/** Emits `perCycle` sequence-stamped objects per cycle (the color
 * carries the sequence number, so arrival order is observable). */
class SeqPulseBox : public Box
{
  public:
    SeqPulseBox(SignalBinder& binder, StatisticManager& stats,
                std::string name, std::string wire, u32 count,
                u32 per_cycle)
        : Box(binder, stats, std::move(name)), _count(count),
          _perCycle(per_cycle)
    {
        _out = output(std::move(wire), per_cycle, 1);
    }

    void
    update(Cycle cycle) override
    {
        if (_sent >= _count)
            return;
        for (u32 i = 0; i < _perCycle; ++i) {
            auto obj = makeObj();
            obj->setColor(_seq++);
            _out->write(cycle, std::move(obj));
        }
        ++_sent;
    }

    bool empty() const override { return _sent >= _count; }

  private:
    Signal* _out;
    u32 _count;
    u32 _perCycle;
    u32 _sent = 0;
    u32 _seq = 0;
};

/** Drains several wires in a fixed order and hashes the sequence
 * stamps in arrival order: any scheduler that perturbs per-signal
 * commit order (or the sink's read order) changes the hash. */
class OrderHashSink : public Box
{
  public:
    OrderHashSink(SignalBinder& binder, StatisticManager& stats,
                  std::string name,
                  const std::vector<std::string>& wires, u32 bandwidth)
        : Box(binder, stats, std::move(name))
    {
        for (const std::string& wire : wires)
            _ins.push_back(input(wire, bandwidth, 1));
    }

    void
    update(Cycle cycle) override
    {
        for (Signal* in : _ins) {
            while (DynamicObjectPtr obj = in->read(cycle)) {
                hash ^= obj->color() + 1;
                hash *= 1099511628211ull;
            }
        }
    }

    std::vector<Signal*> _ins;
    u64 hash = 1469598103934665603ull;
};

/** Run the fan-in ordering mesh (4 stamped producers, one ordering
 * sink) under @p scheduler and return the arrival-order hash. */
u64
runOrderMesh(std::unique_ptr<Scheduler> scheduler)
{
    Simulator sim;
    sim.setScheduler(std::move(scheduler));
    std::vector<std::string> wires;
    std::vector<std::unique_ptr<SeqPulseBox>> producers;
    for (u32 i = 0; i < 4; ++i) {
        wires.push_back("ow" + std::to_string(i));
        producers.push_back(std::make_unique<SeqPulseBox>(
            sim.binder(), sim.stats(), "seq" + std::to_string(i),
            wires.back(), 12 + i, 2));
        sim.addBox(producers.back().get());
    }
    OrderHashSink sink(sim.binder(), sim.stats(), "ordersink", wires,
                       2);
    sim.addBox(&sink);
    sim.run(24);
    EXPECT_TRUE(sim.quiescent());
    return sink.hash;
}

} // anonymous namespace

TEST(Scheduler, PartitionAssignmentDeterministic)
{
    // Two engines over two identically-wired models must produce the
    // same partitioning (the bench/test bit-identity story depends
    // on it), and connected producer/sink pairs must land in the
    // same partition — their edge is the only traffic, so cutting it
    // would be a partitioning bug.
    const auto build = [](Simulator& sim,
                          std::vector<std::unique_ptr<PulseBox>>& ps,
                          std::vector<std::unique_ptr<SinkBox>>& ss) {
        for (u32 i = 0; i < 6; ++i) {
            const std::string wire = "pw" + std::to_string(i);
            ps.push_back(std::make_unique<PulseBox>(
                sim.binder(), sim.stats(),
                "producer" + std::to_string(i), wire, 4));
            ss.push_back(std::make_unique<SinkBox>(
                sim.binder(), sim.stats(),
                "sink" + std::to_string(i), wire));
            sim.addBox(ps.back().get());
            sim.addBox(ss.back().get());
        }
    };

    Simulator simA, simB;
    std::vector<std::unique_ptr<PulseBox>> psA, psB;
    std::vector<std::unique_ptr<SinkBox>> ssA, ssB;
    build(simA, psA, ssA);
    build(simB, psB, ssB);

    ParallelScheduler schedA(2), schedB(2);
    const std::vector<u32> a =
        schedA.partitionAssignment(simA.boxes());
    const std::vector<u32> b =
        schedB.partitionAssignment(simB.boxes());
    ASSERT_EQ(a.size(), 12u);
    EXPECT_EQ(a, b);
    for (u32 p : a)
        EXPECT_LT(p, 2u);
    // Boxes alternate producer0, sink0, producer1, sink1, ...
    for (u32 i = 0; i < 6; ++i)
        EXPECT_EQ(a[2 * i], a[2 * i + 1]) << "pair " << i;
    // The pairs are mutually disconnected, so no signal need cross.
    EXPECT_EQ(schedA.crossSignals(simA.boxes()), 0u);
    // Both partitions actually get work (3 pairs each by LPT).
    EXPECT_NE(a.front(),
              a[2 * 5]); // At least two distinct partitions used.
}

TEST(Scheduler, WorkStealingPreservesSignalOrder)
{
    // Sequence-stamped multi-object traffic through a fan-in sink:
    // the arrival-order hash must not depend on the engine, the
    // thread count or the steal setting.
    const u64 serial =
        runOrderMesh(std::make_unique<SerialScheduler>());
    const u64 par2 =
        runOrderMesh(std::make_unique<ParallelScheduler>(2));
    const u64 par4 =
        runOrderMesh(std::make_unique<ParallelScheduler>(4));
    ParallelScheduler::Options noSteal;
    noSteal.workSteal = false;
    const u64 par4NoSteal = runOrderMesh(
        std::make_unique<ParallelScheduler>(4, noSteal));
    EXPECT_EQ(serial, par2);
    EXPECT_EQ(serial, par4);
    EXPECT_EQ(serial, par4NoSteal);
}

TEST(Scheduler, MakeSchedulerFactory)
{
    auto serial = makeScheduler("serial");
    EXPECT_STREQ(serial->name(), "serial");
    EXPECT_EQ(serial->threadCount(), 1u);
    auto parallel = makeScheduler("parallel", 3);
    EXPECT_STREQ(parallel->name(), "parallel");
    EXPECT_EQ(parallel->threadCount(), 3u);
    EXPECT_THROW(makeScheduler("bogus"), FatalError);
}

TEST(Simulator, DrainDetection)
{
    Simulator sim;

    class CountBox : public Box
    {
      public:
        CountBox(SignalBinder& binder, StatisticManager& stats)
            : Box(binder, stats, "count")
        {}
        void update(Cycle) override { ++ticks; }
        bool empty() const override { return ticks >= 5; }
        u32 ticks = 0;
    };

    CountBox box(sim.binder(), sim.stats());
    sim.addBox(&box);
    EXPECT_FALSE(sim.allEmpty());
    sim.run(5);
    EXPECT_TRUE(sim.allEmpty());
    EXPECT_EQ(sim.cycle(), 5u);
}
