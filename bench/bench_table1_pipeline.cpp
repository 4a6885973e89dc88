/**
 * @file
 * Table 1 (and Figures 1/2) reproduction: the baseline
 * architecture's per-unit bandwidths, queue sizes and latencies as
 * actually constructed by the simulator, plus the box-and-signal
 * topology of both pipeline models (the machine-readable version of
 * the paper's block diagrams).
 */

#include "bench_common.hh"

using namespace attila;
using namespace attila::bench;

namespace
{

void
printTopology(const char* title, const gpu::GpuConfig& config)
{
    gpu::GpuConfig cfg = config;
    cfg.memorySize = 8u << 20;
    gpu::Gpu gpu(cfg);
    auto& binder = gpu.simulator().binder();
    std::cout << "\n--- " << title << ": boxes and signals ---\n";
    u32 count = 0;
    for (const std::string& name : binder.signalNames()) {
        if (name.find(".credit") != std::string::npos)
            continue;
        const gpu::Gpu* g = &gpu;
        (void)g;
        std::cout << "  " << std::left << std::setw(28) << name
                  << binder.writerOf(name) << " -> "
                  << binder.readerOf(name) << "\n";
        ++count;
    }
    std::cout << "  (" << count << " data signals)\n";
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    parseArgs(argc, argv);
    setBench("table1_pipeline");
    printHeader("Table 1: baseline ATTILA architecture");

    const gpu::GpuConfig c = gpu::GpuConfig::baseline();
    std::cout << std::left << std::setw(26) << "Unit"
              << std::setw(26) << "Input/Output bandwidth"
              << std::setw(12) << "Queue" << "Latency\n";
    auto row = [](const char* unit, const char* bw, u32 queue,
                  const char* latency) {
        std::cout << std::left << std::setw(26) << unit
                  << std::setw(26) << bw << std::setw(12) << queue
                  << latency << "\n";
    };
    row("Streamer", "1 index / 1 vertex", c.streamerQueue, "Mem");
    row("Primitive Assembly", "1 vertex / 1 triangle",
        c.primitiveAssemblyQueue, "1");
    row("Clipper", "1 triangle / 1 triangle", c.clipperQueue, "6");
    row("Triangle Setup", "1 triangle / 1 triangle", c.setupQueue,
        "10");
    row("Fragment Generation", "1 triangle / 2x64 frag",
        c.fragmentGenQueue, "1");
    row("Hierarchical Z", "2x64 frag / 2x64 frag", c.hzQueue, "1");
    row("Z Test (per ROP)", "4 frag / 4 frag", 64, "2+Mem");
    row("Interpolator", "2x4 frag / 2x4 frag", 0, "2 to 8");
    row("Color Write (per ROP)", "4 frag", 64, "2+Mem");
    row("Vertex Shader", "1 vertex / 1 vertex",
        c.vertexShaderThreads, "variable");
    row("Fragment Shader", "4 frag / 4 frag",
        c.shaderInputsInFlight, "variable");

    std::cout << "\nBaseline configuration:\n"
              << "  unified shaders:        "
              << (c.unifiedShaders ? "yes" : "no") << " ("
              << c.numShaders << " units)\n"
              << "  vertex shaders (fig 1): " << c.numVertexShaders
              << "\n"
              << "  ROP units:              " << c.numRops << "\n"
              << "  texture units:          " << c.numTextureUnits
              << "\n"
              << "  memory channels:        " << c.memoryChannels
              << " x " << c.channelBytesPerCycle
              << " B/cycle (burst " << c.memoryBurstBytes
              << " B, interleave " << c.channelInterleave << " B)\n"
              << "  system bus:             "
              << c.systemBusBytesPerCycle << " B/cycle\n"
              << "  shader registers:       " << c.shaderRegisters
              << " (vertex pool " << c.vertexShaderRegisters
              << ")\n";

    // Figures 1 and 2: construct both pipelines and dump their
    // box/signal topology.
    gpu::GpuConfig unified = c;
    unified.unifiedShaders = true;
    printTopology("Figure 2: unified pipeline", unified);

    gpu::GpuConfig nonUnified = c;
    nonUnified.unifiedShaders = false;
    printTopology("Figure 1: non-unified pipeline", nonUnified);

    // Execution-engine speedup: the same baseline pipeline driven by
    // the serial reference scheduler and by the parallel worker-pool
    // scheduler.  Cycle counts must match exactly (the two-phase
    // clock makes intra-cycle order irrelevant); wall-clock KHz is
    // where they differ.
    printHeader("Scheduler speedup: serial vs parallel box loop");
    workloads::WorkloadParams params = benchParams(1, 128);
    workloads::TerrainWorkload terrain(params);
    const gpu::CommandList commands = buildCommands(terrain);

    gpu::GpuConfig serialCfg = c;
    serialCfg.scheduler = gpu::SchedulerKind::Serial;
    const RunResult serial =
        run(commands, serialCfg, params.frames, "terrain_serial");

    gpu::GpuConfig parallelCfg = c;
    parallelCfg.scheduler = gpu::SchedulerKind::Parallel;
    parallelCfg.schedulerThreads = 0; // All hardware threads.
    const RunResult parallel = run(commands, parallelCfg,
                                   params.frames, "terrain_parallel");

    std::cout << "  serial:   " << serial.cycles << " cycles, "
              << std::fixed << std::setprecision(1)
              << serial.simKHz() << " KHz\n"
              << "  parallel: " << parallel.cycles << " cycles, "
              << parallel.simKHz() << " KHz\n"
              << "  speedup:  " << std::setprecision(2)
              << (serial.wallSeconds > 0.0
                      ? parallel.simKHz() / serial.simKHz()
                      : 0.0)
              << "x  cycle counts "
              << (serial.cycles == parallel.cycles ? "MATCH"
                                                   : "DIVERGE")
              << "\n"
              << std::defaultfloat;
    return serial.cycles == parallel.cycles ? 0 : 1;
}
