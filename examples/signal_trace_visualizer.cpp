/**
 * @file
 * Signal Trace Visualizer: the performance-debugging tool of the
 * paper (§3).  Runs a small render with the event trace enabled,
 * bins every SignalWrite event by signal and renders an ASCII
 * timeline of per-signal activity — the utilization view the
 * original GUI tool provided.  The trace is also saved as
 * out/pipeline.evtrace for event_trace_export.
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <map>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "sim/event_trace.hh"
#include "sim/out_dir.hh"
#include "workloads/cubes.hh"

using namespace attila;

int
run()
{
    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    config.memorySize = 32u << 20;
    config.eventTrace = true;
    gpu::Gpu gpu(config);

    workloads::WorkloadParams params;
    params.width = 128;
    params.height = 128;
    params.frames = 1;
    params.textureSize = 32;
    params.detail = 4;
    gl::Context ctx(params.width, params.height,
                    gpu.config().memorySize);
    workloads::CubesWorkload scene(params);
    scene.setup(ctx);
    scene.renderFrame(ctx, 0);
    gpu.submit(ctx.takeCommands());
    gpu.runUntilIdle();
    const sim::EventTraceData trace =
        gpu.simulator().finishEventTrace();
    const std::string tracePath = sim::outPath("pipeline.evtrace");
    sim::writeEventTraceBinary(trace, tracePath);

    // --- Analysis ----------------------------------------------------
    // Write cycles per signal name; events arrive sorted by cycle, so
    // each list is sorted and the first/last events bound the run.
    std::map<std::string, std::vector<Cycle>> writes;
    u64 records = 0;
    Cycle first = 0;
    Cycle last = 0;
    for (const sim::TraceEvent& e : trace.events) {
        if (e.kind != static_cast<u16>(sim::EventKind::SignalWrite))
            continue;
        if (records++ == 0)
            first = e.cycle;
        last = e.cycle;
        writes[trace.signals[e.unit]].push_back(e.cycle);
    }
    // Writes into @p cycles within [@p from, @p to).
    const auto activity = [](const std::vector<Cycle>& cycles,
                             Cycle from, Cycle to) {
        return static_cast<u64>(
            std::lower_bound(cycles.begin(), cycles.end(), to) -
            std::lower_bound(cycles.begin(), cycles.end(), from));
    };
    std::cout << "signal trace: " << records << " records, cycles "
              << first << ".." << last << "\n\n";

    // Select the busiest data signals for display.
    struct Row
    {
        std::string name;
        u64 total;
    };
    std::vector<Row> rows;
    for (const auto& [name, cycles] : writes) {
        if (name.find(".credit") != std::string::npos)
            continue; // Flow control noise.
        rows.push_back({name, cycles.size()});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) {
                  return a.total > b.total;
              });
    rows.resize(std::min<std::size_t>(rows.size(), 16));

    // ASCII timeline: 60 buckets across the run.
    const u32 buckets = 60;
    const Cycle span = std::max<Cycle>(1, last - first);
    std::cout << std::left << std::setw(26) << "signal"
              << " activity timeline (" << span / buckets
              << " cycles per column)\n";
    const char* shade = " .:-=+*#%@";
    for (const Row& row : rows) {
        const std::vector<Cycle>& cycles = writes.at(row.name);
        u64 maxBucket = 1;
        std::vector<u64> hist(buckets, 0);
        for (u32 b = 0; b < buckets; ++b) {
            const Cycle from = first + span * b / buckets;
            const Cycle to = first + span * (b + 1) / buckets;
            hist[b] = activity(cycles, from, to);
            maxBucket = std::max(maxBucket, hist[b]);
        }
        std::cout << std::left << std::setw(26) << row.name << " ";
        for (u32 b = 0; b < buckets; ++b) {
            const u32 level = static_cast<u32>(
                hist[b] * 9 / maxBucket);
            std::cout << shade[level];
        }
        std::cout << "  (" << row.total << ")\n";
    }
    std::cout << "\nTrace file: " << tracePath << "\n";
    return 0;
}

/** Report configuration and simulator errors instead of aborting. */
int
main()
{
    try {
        return run();
    } catch (const SimError& e) {
        std::cerr << "error: " << e.what() << "\n";
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
    }
    return 2;
}
