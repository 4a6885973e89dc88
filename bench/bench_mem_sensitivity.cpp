/**
 * @file
 * Memory-model sensitivity sweep: flat vs banked GDDR timing, FIFO
 * vs FR-FCFS scheduling (paper §2.2's GDDR channel model).
 *
 * Part 1 drives the memory controller directly with two interleaved
 * read streams that map to different rows of the same bank — the
 * worst case for an in-order scheduler (every access is a row
 * conflict) and the best case for FR-FCFS (reordering batches each
 * row's hits together).  The bench fails unless FR-FCFS shows both
 * more row hits and fewer cycles than FIFO on this pattern.
 *
 * Part 2 renders the terrain workload end to end under the three
 * memory models (flat, banked FIFO, banked FR-FCFS), emitting one
 * BENCH_JSON line per configuration; each carries a distinct
 * config_hash, so external sweeps can tell the scenarios apart.
 */

#include "bench_common.hh"

#include <functional>

#include "gpu/memory_controller.hh"
#include "sim/simulator.hh"

using namespace attila;
using namespace attila::bench;

namespace
{

/** Host box owning the MemPort that feeds the controller. */
class StreamClient : public sim::Box
{
  public:
    StreamClient(sim::SignalBinder& binder,
                 sim::StatisticManager& stats,
                 const gpu::GpuConfig& config)
        : Box(binder, stats, "client")
    {
        mem.init(*this, binder, "mc.stream",
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

    gpu::MemPort mem;
    std::function<void(Cycle)> tick;
};

struct StreamResult
{
    u64 cycles = 0;
    u64 rowHits = 0;
    u64 rowConflicts = 0;
};

/**
 * Issue @p perStream reads alternating between two rows of the same
 * bank of channel 0, and run until every response is back.
 */
StreamResult
runStreams(const gpu::GpuConfig& config, u32 perStream)
{
    sim::Simulator simulator;
    emu::GpuMemory memory(1 << 20);
    StreamClient client(simulator.binder(), simulator.stats(),
                        config);
    gpu::MemoryController mc(simulator.binder(), simulator.stats(),
                             config, memory,
                             std::vector<std::string>{"mc.stream"});
    simulator.addBox(&client);
    simulator.addBox(&mc);

    // Channel-0 stripes repeat every channels*interleave bytes; the
    // two streams sit nbk pages apart, so they share a bank but not
    // a row.
    const u32 stride =
        config.memoryChannels * config.channelInterleave;
    const u32 rowB = config.memoryPageBytes * 8;
    const u32 total = perStream * 2;
    u32 sent = 0;
    u32 responses = 0;
    client.tick = [&](Cycle cycle) {
        while (client.mem.hasResponse()) {
            client.mem.popResponse(cycle);
            ++responses;
        }
        while (sent < total && client.mem.canRequest(cycle)) {
            const u32 index = sent / 2;
            const u32 base = (sent % 2) ? rowB : 0;
            auto txn = std::make_shared<gpu::MemTransaction>();
            txn->isRead = true;
            txn->address = base + index * stride;
            txn->size = 64;
            client.mem.request(cycle, std::move(txn));
            ++sent;
        }
    };

    StreamResult result;
    while (responses < total && result.cycles < 1'000'000) {
        simulator.step();
        ++result.cycles;
    }
    result.rowHits = mc.rowHits();
    result.rowConflicts = mc.rowConflicts();
    return result;
}

void
emitStreamJson(const std::string& label, const gpu::GpuConfig& c,
               const StreamResult& r)
{
    std::cout << "BENCH_JSON {\"bench\":\"" << benchName()
              << "\",\"label\":\"" << label
              << "\",\"cycles\":" << r.cycles
              << ",\"row_hits\":" << r.rowHits
              << ",\"row_conflicts\":" << r.rowConflicts
              << ",\"dram_scheduler\":\""
              << gpu::enumName(c.dramScheduler)
              << "\",\"config_hash\":\"" << configHashHex(c)
              << "\"}\n";
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    parseArgs(argc, argv);
    setBench("mem_sensitivity");

    printHeader("DRAM scheduling: interleaved row streams");
    gpu::GpuConfig banked = gpu::GpuConfig::baseline();
    applyOptions(banked);
    banked.memModel = gpu::MemModel::Banked;
    banked.scheduler = gpu::SchedulerKind::Serial;

    gpu::GpuConfig fifoCfg = banked;
    fifoCfg.dramScheduler = gpu::DramSchedPolicy::Fifo;
    gpu::GpuConfig frfcfsCfg = banked;
    frfcfsCfg.dramScheduler = gpu::DramSchedPolicy::FrFcfs;

    const u32 perStream = 64;
    const StreamResult fifo = runStreams(fifoCfg, perStream);
    const StreamResult frfcfs = runStreams(frfcfsCfg, perStream);
    emitStreamJson("stream_fifo", fifoCfg, fifo);
    emitStreamJson("stream_frfcfs", frfcfsCfg, frfcfs);

    std::cout << std::left << std::setw(12) << "policy"
              << std::setw(10) << "cycles" << std::setw(10) << "hits"
              << "conflicts\n"
              << std::setw(12) << "fifo" << std::setw(10)
              << fifo.cycles << std::setw(10) << fifo.rowHits
              << fifo.rowConflicts << "\n"
              << std::setw(12) << "frfcfs" << std::setw(10)
              << frfcfs.cycles << std::setw(10) << frfcfs.rowHits
              << frfcfs.rowConflicts << "\n";

    const bool advantage = frfcfs.rowHits > fifo.rowHits &&
                           frfcfs.cycles < fifo.cycles;
    if (!advantage) {
        std::cout << "FAIL: FR-FCFS shows no row-hit advantage on"
                     " the interleaved-row pattern.\n";
    }

    printHeader("End-to-end: terrain under three memory models");
    auto params = benchParams(/*frames=*/1);
    workloads::TerrainWorkload terrain(params);
    gpu::CommandList commands = buildCommands(terrain);

    gpu::GpuConfig flat = gpu::GpuConfig::baseline();
    applyOptions(flat);
    flat.memModel = gpu::MemModel::Flat;
    run(commands, flat, params.frames, "flat");
    run(commands, fifoCfg, params.frames, "banked_fifo");
    run(commands, frfcfsCfg, params.frames, "banked_frfcfs");

    return advantage ? 0 : 1;
}
