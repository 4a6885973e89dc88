/**
 * @file
 * Banked GDDR DRAM model tests: row hit/miss/conflict latencies,
 * precharge/activate accounting, the FR-FCFS starvation cap and
 * bit-identical determinism of both scheduling policies under the
 * serial and parallel engines.
 */

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <gtest/gtest.h>

#include "gpu/dram_timing.hh"
#include "gpu/gpu.hh"
#include "gpu/memory_controller.hh"
#include "sim/config_file.hh"
#include "sim/simulator.hh"
#include "workloads/terrain.hh"

using namespace attila;
using namespace attila::gpu;

namespace
{

/** Host box owning the MemPort that feeds the controller. */
class ClientBox : public sim::Box
{
  public:
    ClientBox(sim::SignalBinder& binder,
              sim::StatisticManager& stats, const GpuConfig& config)
        : Box(binder, stats, "client")
    {
        mem.init(*this, binder, "mc.test",
                 config.memoryRequestQueue);
        wake();
    }

    sim::Next
    update(Cycle cycle) override
    {
        mem.clock(cycle);
        if (tick)
            tick(cycle);
        return sim::Next::runs();
    }

    MemPort mem;
    std::function<void(Cycle)> tick;
};

struct DramHarness
{
    explicit DramHarness(GpuConfig cfg = bankedConfig())
        : config(cfg), memory(1 << 20)
    {
        client = std::make_unique<ClientBox>(
            sim.binder(), sim.stats(), config);
        mc = std::make_unique<MemoryController>(
            sim.binder(), sim.stats(), config, memory,
            std::vector<std::string>{"mc.test"});
        sim.addBox(client.get());
        sim.addBox(mc.get());
    }

    static GpuConfig
    bankedConfig()
    {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.memModel = MemModel::Banked;
        return cfg;
    }

    /**
     * Serve single-burst reads at @p addrs one at a time (the next
     * is sent only after the previous response) and return the
     * response cycle of each.
     */
    std::vector<Cycle>
    serialReads(const std::vector<u32>& addrs)
    {
        std::vector<Cycle> done;
        std::size_t next = 0;
        bool waiting = false;
        client->tick = [&](Cycle cycle) {
            if (client->mem.hasResponse()) {
                client->mem.popResponse(cycle);
                done.push_back(cycle);
                waiting = false;
            }
            if (!waiting && next < addrs.size() &&
                client->mem.canRequest(cycle)) {
                auto txn = std::make_shared<MemTransaction>();
                txn->isRead = true;
                txn->address = addrs[next++];
                txn->size = 64;
                client->mem.request(cycle, std::move(txn));
                waiting = true;
            }
        };
        for (u32 i = 0; i < 10000 && done.size() < addrs.size(); ++i)
            sim.step();
        EXPECT_EQ(done.size(), addrs.size());
        return done;
    }

    GpuConfig config;
    emu::GpuMemory memory;
    sim::Simulator sim;
    std::unique_ptr<ClientBox> client;
    std::unique_ptr<MemoryController> mc;
};

} // anonymous namespace

// ===== DramTiming =================================================

TEST(DramTiming, ParsesGpgpuSimSpec)
{
    const DramTiming t = DramTiming::parse(
        "nbk=8:CCD=2:RRD=8:RCD=12:RAS=25:RP=10:RC=35:CL=10:WL=7"
        ":WR=11");
    EXPECT_EQ(t.nbk, 8u);
    EXPECT_EQ(t.RCD, 12u);
    EXPECT_EQ(t.RAS, 25u);
    EXPECT_EQ(t.RP, 10u);
    EXPECT_EQ(t.RC, 35u);
    EXPECT_EQ(t.CL, 10u);
    EXPECT_EQ(t.WL, 7u);
    EXPECT_EQ(t.WR, 11u);
    // Round trip through the canonical format.
    EXPECT_EQ(DramTiming::parse(t.format()), t);
    // Partial specs overlay the defaults.
    EXPECT_EQ(DramTiming::parse("nbk=4").nbk, 4u);
    EXPECT_EQ(DramTiming::parse("nbk=4").CL, DramTiming{}.CL);
    // CDLR is accepted (gpgpu-sim spec compatibility) and ignored.
    EXPECT_NO_THROW(DramTiming::parse("nbk=8:CDLR=6"));
}

TEST(DramTiming, RejectsBadSpecs)
{
    EXPECT_THROW(DramTiming::parse("nbk=6"), sim::ConfigError);
    EXPECT_THROW(DramTiming::parse("nbk=0"), sim::ConfigError);
    EXPECT_THROW(DramTiming::parse("BOGUS=1"), sim::ConfigError);
    EXPECT_THROW(DramTiming::parse("nbk"), sim::ConfigError);
    EXPECT_THROW(DramTiming::parse("nbk=x"), sim::ConfigError);
}

// ===== Bank-state latencies =======================================

TEST(BankedDram, RowHitIsCheaperThanMissAndConflict)
{
    // Three reads on channel 0, bank 0: row 0, row 0 again (hit),
    // then row 1 (conflict).
    DramHarness h;
    const u32 pageBytes = h.config.memoryPageBytes;
    const u32 nbk = DramTiming::parse(h.config.dramTiming).nbk;
    const std::vector<u32> addrs = {0, 64, pageBytes * nbk};
    const std::vector<Cycle> done = h.serialReads(addrs);
    ASSERT_EQ(done.size(), 3u);

    const Cycle missLat = done[0];
    const Cycle hitLat = done[1] - done[0];
    const Cycle conflictLat = done[2] - done[1];
    // Hit (CL + transfer) < cold miss (+RCD) < conflict (+RP +RCD).
    EXPECT_LT(hitLat, missLat);
    EXPECT_GT(conflictLat, hitLat);
    const DramTiming t = DramTiming::parse(h.config.dramTiming);
    EXPECT_GE(conflictLat, hitLat + t.RP + t.RCD);

    EXPECT_EQ(h.mc->rowHits(), 1u);
    EXPECT_EQ(h.mc->rowMisses(), 1u);
    EXPECT_EQ(h.mc->rowConflicts(), 1u);
}

TEST(BankedDram, PrechargeAndActivateAccounting)
{
    // Alternating rows of one bank: first access activates, every
    // later one precharges + activates.
    DramHarness h;
    const u32 rowStride =
        h.config.memoryPageBytes *
        DramTiming::parse(h.config.dramTiming).nbk;
    std::vector<u32> addrs;
    for (u32 i = 0; i < 6; ++i)
        addrs.push_back((i % 2) * rowStride);
    h.serialReads(addrs);
    EXPECT_EQ(h.mc->rowMisses(), 1u);
    EXPECT_EQ(h.mc->rowConflicts(), 5u);
    EXPECT_EQ(h.mc->precharges(), 5u);
    EXPECT_EQ(h.mc->activates(), 6u);
    EXPECT_EQ(h.mc->rowHits(), 0u);
}

TEST(BankedDram, BanksTrackRowsIndependently)
{
    // Bank 0 row 0, bank 1 row 0, then bank 0 row 0 again: the
    // return to bank 0 is a hit because bank 1's activate did not
    // disturb bank 0's open row.
    DramHarness h;
    const u32 pageBytes = h.config.memoryPageBytes;
    h.serialReads({0, pageBytes, 0 + 64});
    EXPECT_EQ(h.mc->rowMisses(), 2u);
    EXPECT_EQ(h.mc->rowHits(), 1u);
    EXPECT_EQ(h.mc->rowConflicts(), 0u);
}

TEST(BankedDram, WriteRecoveryDelaysConflictPrecharge)
{
    // A write to row 0 then a read of row 1 (same bank): the
    // precharge must wait out the write recovery window, so the
    // conflict costs at least WR more than after a read.
    auto conflictAfter = [](bool write) {
        DramHarness h;
        const u32 rowStride =
            h.config.memoryPageBytes *
            DramTiming::parse(h.config.dramTiming).nbk;
        std::vector<Cycle> done;
        u32 phase = 0;
        h.client->tick = [&](Cycle cycle) {
            if (h.client->mem.hasResponse()) {
                h.client->mem.popResponse(cycle);
                done.push_back(cycle);
            }
            if (phase == done.size() && phase < 2 &&
                h.client->mem.canRequest(cycle)) {
                auto txn = std::make_shared<MemTransaction>();
                txn->isRead = phase == 0 ? !write : true;
                txn->address = phase == 0 ? 0 : rowStride;
                txn->size = 64;
                if (!txn->isRead)
                    std::fill_n(txn->data.begin(), 64, u8{0xab});
                h.client->mem.request(cycle, std::move(txn));
                ++phase;
            }
        };
        for (u32 i = 0; i < 10000 && done.size() < 2; ++i)
            h.sim.step();
        EXPECT_EQ(done.size(), 2u);
        return done[1] - done[0];
    };
    const Cycle afterRead = conflictAfter(false);
    const Cycle afterWrite = conflictAfter(true);
    EXPECT_GT(afterWrite, afterRead);
}

// ===== Scheduling policies ========================================

namespace
{

/** Interleave two rows of one bank, send everything up front, and
 * return (cycles, rowHits) once all responses are back. */
std::pair<Cycle, u64>
interleavedRows(GpuConfig cfg, u32 perStream)
{
    DramHarness h(cfg);
    const u32 stride =
        cfg.memoryChannels * cfg.channelInterleave;
    const u32 rowStride =
        cfg.memoryPageBytes * DramTiming::parse(cfg.dramTiming).nbk;
    const u32 total = perStream * 2;
    u32 sent = 0;
    u32 responses = 0;
    h.client->tick = [&](Cycle cycle) {
        while (h.client->mem.hasResponse()) {
            h.client->mem.popResponse(cycle);
            ++responses;
        }
        while (sent < total && h.client->mem.canRequest(cycle)) {
            auto txn = std::make_shared<MemTransaction>();
            txn->isRead = true;
            txn->address =
                (sent % 2) * rowStride + (sent / 2) * stride;
            txn->size = 64;
            h.client->mem.request(cycle, std::move(txn));
            ++sent;
        }
    };
    Cycle cycles = 0;
    while (responses < total && cycles < 200000) {
        h.sim.step();
        ++cycles;
    }
    EXPECT_EQ(responses, total);
    return {cycles, h.mc->rowHits()};
}

} // anonymous namespace

TEST(BankedDram, FrFcfsBeatsFifoOnInterleavedRows)
{
    GpuConfig fifo = DramHarness::bankedConfig();
    fifo.dramScheduler = DramSchedPolicy::Fifo;
    GpuConfig frfcfs = DramHarness::bankedConfig();
    frfcfs.dramScheduler = DramSchedPolicy::FrFcfs;

    const auto [fifoCycles, fifoHits] = interleavedRows(fifo, 32);
    const auto [frCycles, frHits] = interleavedRows(frfcfs, 32);
    EXPECT_GT(frHits, fifoHits);
    EXPECT_LT(frCycles, fifoCycles);
}

TEST(BankedDram, StarvationCapBoundsBypasses)
{
    // cap = 0 forces FIFO order even under FR-FCFS: the policies
    // must agree exactly.  A positive cap reorders.
    GpuConfig capped = DramHarness::bankedConfig();
    capped.dramScheduler = DramSchedPolicy::FrFcfs;
    capped.frfcfsCap = 0;
    GpuConfig fifo = DramHarness::bankedConfig();
    fifo.dramScheduler = DramSchedPolicy::Fifo;

    const auto cappedRun = interleavedRows(capped, 16);
    const auto fifoRun = interleavedRows(fifo, 16);
    EXPECT_EQ(cappedRun, fifoRun);

    GpuConfig open = DramHarness::bankedConfig();
    open.dramScheduler = DramSchedPolicy::FrFcfs;
    open.frfcfsCap = 64;
    const auto openRun = interleavedRows(open, 16);
    EXPECT_GT(openRun.second, fifoRun.second);
}

// ===== Determinism (serial vs parallel engines) ===================

namespace
{

u64
framebufferHash(const Gpu& gpu)
{
    u64 h = 1469598103934665603ull;
    for (const FrameImage& frame : gpu.frames()) {
        for (u32 px : frame.pixels) {
            h ^= px;
            h *= 1099511628211ull;
        }
    }
    return h;
}

std::pair<u64, u64>
runBanked(const CommandList& list, DramSchedPolicy policy,
          SchedulerKind engine)
{
    unsetenv("ATTILA_CONFIG");
    unsetenv("ATTILA_CONFIG_SET");
    GpuConfig config = GpuConfig::baseline();
    config.memorySize = 32u << 20;
    config.memModel = MemModel::Banked;
    config.dramScheduler = policy;
    config.scheduler = engine;
    config.schedulerThreads = engine == SchedulerKind::Parallel ? 4
                                                                : 0;
    Gpu gpu(config);
    gpu.submit(list);
    EXPECT_TRUE(gpu.runUntilIdle(200'000'000))
        << "pipeline did not drain";
    return {gpu.cycle(), framebufferHash(gpu)};
}

} // anonymous namespace

TEST(BankedDram, PoliciesDeterministicAcrossEngines)
{
    workloads::WorkloadParams params;
    params.width = 96;
    params.height = 96;
    params.frames = 1;
    params.textureSize = 32;
    params.detail = 4;
    workloads::TerrainWorkload workload(params);
    gl::Context ctx(params.width, params.height, 32u << 20);
    workload.setup(ctx);
    workload.renderFrame(ctx, 0);
    const CommandList list = ctx.takeCommands();

    for (const DramSchedPolicy policy :
         {DramSchedPolicy::Fifo, DramSchedPolicy::FrFcfs}) {
        const auto serial =
            runBanked(list, policy, SchedulerKind::Serial);
        const auto parallel =
            runBanked(list, policy, SchedulerKind::Parallel);
        EXPECT_EQ(serial, parallel) << enumName(policy);
        EXPECT_GT(serial.first, 0u);
    }
    // The two policies are distinct scenarios: same image, but the
    // schedule (and typically the cycle count) differs.
    const auto fifo =
        runBanked(list, DramSchedPolicy::Fifo, SchedulerKind::Serial);
    const auto frfcfs = runBanked(list, DramSchedPolicy::FrFcfs,
                                  SchedulerKind::Serial);
    EXPECT_EQ(fifo.second, frfcfs.second);
}
