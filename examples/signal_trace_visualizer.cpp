/**
 * @file
 * Signal Trace Visualizer: the performance-debugging tool of the
 * paper (§3).  Runs a small render with per-cycle signal tracing
 * enabled, then renders an ASCII timeline of per-signal activity —
 * the utilization view the original GUI tool provided.
 */

#include <algorithm>
#include <iomanip>
#include <iostream>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "sim/out_dir.hh"
#include "sim/signal_trace.hh"
#include "workloads/cubes.hh"

using namespace attila;

int
run()
{
    const std::string tracePath =
        sim::outPath("pipeline.sigtrace");

    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    config.memorySize = 32u << 20;
    config.signalTracePath = tracePath;
    gpu::Gpu gpu(config);

    workloads::WorkloadParams params;
    params.width = 128;
    params.height = 128;
    params.frames = 1;
    params.textureSize = 32;
    params.detail = 4;
    gl::Context ctx(params.width, params.height, config.memorySize);
    workloads::CubesWorkload scene(params);
    scene.setup(ctx);
    scene.renderFrame(ctx, 0);
    gpu.submit(ctx.takeCommands());
    gpu.runUntilIdle();
    gpu.simulator().tracer()->flush();

    // --- Analysis ----------------------------------------------------
    sim::SignalTraceReader reader(tracePath);
    std::cout << "signal trace: " << reader.records().size()
              << " records, cycles " << reader.firstCycle() << ".."
              << reader.lastCycle() << "\n\n";

    // Select the busiest data signals for display.
    struct Row
    {
        std::string name;
        u64 total;
    };
    std::vector<Row> rows;
    for (const std::string& name : reader.signalNames()) {
        if (name.find(".credit") != std::string::npos)
            continue; // Flow control noise.
        rows.push_back(
            {name, reader.activity(name, 0, ~0ull >> 1)});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) {
                  return a.total > b.total;
              });
    rows.resize(std::min<std::size_t>(rows.size(), 16));

    // ASCII timeline: 60 buckets across the run.
    const u32 buckets = 60;
    const Cycle span =
        std::max<Cycle>(1, reader.lastCycle() - reader.firstCycle());
    std::cout << std::left << std::setw(26) << "signal"
              << " activity timeline (" << span / buckets
              << " cycles per column)\n";
    const char* shade = " .:-=+*#%@";
    for (const Row& row : rows) {
        u64 maxBucket = 1;
        std::vector<u64> hist(buckets, 0);
        for (u32 b = 0; b < buckets; ++b) {
            const Cycle from =
                reader.firstCycle() + span * b / buckets;
            const Cycle to =
                reader.firstCycle() + span * (b + 1) / buckets;
            hist[b] = reader.activity(row.name, from, to);
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
