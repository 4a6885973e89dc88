/**
 * @file
 * Shared harness for the benchmark binaries that regenerate the
 * paper's tables and figures (see DESIGN.md §3 and EXPERIMENTS.md).
 */

#ifndef ATTILA_BENCH_COMMON_HH
#define ATTILA_BENCH_COMMON_HH

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "sim/config_file.hh"
#include "sim/event_trace.hh"
#include "sim/out_dir.hh"
#include "sim/trace_export.hh"
#include "workloads/cubes.hh"
#include "workloads/shadows.hh"
#include "workloads/terrain.hh"

namespace attila::bench
{

/** Binary-wide benchmark name used in the BENCH_JSON lines; set it
 * once at the top of each bench's main(). */
inline std::string&
benchName()
{
    static std::string name = "bench";
    return name;
}

inline void
setBench(const std::string& name)
{
    benchName() = name;
}

/** Command-line overrides shared by every bench binary.  Unset
 * options leave the workload's own config (and any environment
 * overrides) untouched. */
struct BenchOptions
{
    std::optional<std::string> configFile; ///< --config <file>.
    /** section.key=value assignments from --set and its flag
     * aliases, in command-line order. */
    std::vector<std::string> sets;
};

inline BenchOptions&
options()
{
    static BenchOptions opts;
    return opts;
}

/** A discrete bench flag and the config key it sets. */
struct FlagAlias
{
    const char* flag;
    const char* key;
    const char* bareValue; ///< Value when given without one, or null.
};

/** Shorthand flags, each rewritten into `--set <key>=<value>`. */
inline constexpr FlagAlias kFlagAliases[] = {
    {"--scheduler", "engine.scheduler", nullptr},
    {"--threads", "engine.threads", nullptr}, // 0 = all hw threads.
    {"--work-steal", "engine.workSteal", nullptr},
    {"--idle-skip", "engine.idleSkip", nullptr},
    {"--event-trace", "stats.eventTrace", "true"},
};

/**
 * Consume the shared bench flags from argv, compacting the array in
 * place so downstream parsers (google-benchmark's Initialize) only
 * see their own `--benchmark_*` flags and positional arguments.
 * Every assignment is checked against a scratch config here, so a
 * malformed value or an unrecognised `--flag` exits with a
 * diagnostic before any work starts.
 */
inline void
parseArgs(int& argc, char** argv)
{
    const auto bad = [](const std::string& arg) {
        std::cerr << "error: bad bench flag '" << arg << "'\n"
                  << "usage: --scheduler=serial|parallel "
                     "--threads=N (0 = auto) --work-steal=0|1 "
                     "--idle-skip=0|1 --event-trace[=0|1] "
                     "--config <file> --set section.key=value\n";
        std::exit(2);
    };
    // Value of `--flag=v` or the following argv slot (`--flag v`);
    // null when the flag matches neither form.
    const auto valueOf = [&](const char* flag, int& i,
                             const std::string& arg,
                             const char* bareValue)
        -> std::optional<std::string> {
        const std::string name(flag);
        if (arg.rfind(name, 0) != 0)
            return std::nullopt;
        if (arg.size() > name.size() && arg[name.size()] == '=')
            return arg.substr(name.size() + 1);
        if (arg.size() != name.size())
            return std::nullopt;
        if (bareValue)
            return std::string(bareValue);
        if (i + 1 >= argc)
            bad(arg);
        return std::string(argv[++i]);
    };
    gpu::GpuConfig probe;
    const auto addSet = [&](const std::string& assignment,
                            const char* origin) {
        try {
            probe.applySet(assignment, origin);
        } catch (const sim::ConfigError& e) {
            std::cerr << "error: " << e.what() << "\n";
            std::exit(2);
        }
        options().sets.push_back(assignment);
    };
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (const auto v = valueOf("--config", i, arg, nullptr)) {
            options().configFile = *v;
            continue;
        }
        if (const auto v = valueOf("--set", i, arg, nullptr)) {
            addSet(*v, "--set");
            continue;
        }
        bool aliased = false;
        for (const FlagAlias& alias : kFlagAliases) {
            if (const auto v =
                    valueOf(alias.flag, i, arg, alias.bareValue)) {
                addSet(std::string(alias.key) + "=" + *v, alias.flag);
                aliased = true;
                break;
            }
        }
        if (aliased)
            continue;
        if (arg.rfind("--", 0) == 0 && arg.size() > 2 &&
            arg.rfind("--benchmark_", 0) != 0)
            bad(arg);
        // google-benchmark's own flags and positionals pass through.
        argv[out++] = argv[i];
    }
    argc = out;
}

/**
 * Apply the parsed overrides to a run's config.  Layering order
 * (later wins): workload defaults < `--config` file < environment
 * (ATTILA_CONFIG, ATTILA_CONFIG_SET) < `--set` and its flag aliases,
 * in command-line order.  Environment overrides are consumed here,
 * so the Gpu constructor sees `envApplied` and does not re-apply
 * them on top.
 */
inline void
applyOptions(gpu::GpuConfig& config)
{
    try {
        if (options().configFile)
            config.applyFile(*options().configFile);
        config.applyEnvOverrides();
        for (const std::string& assignment : options().sets)
            config.applySet(assignment);
    } catch (const sim::ConfigError& e) {
        std::cerr << "error: " << e.what() << "\n";
        std::exit(2);
    }
}

/** Outcome of one simulated run. */
struct RunResult
{
    u64 cycles = 0;
    u32 frames = 0;
    f64 wallSeconds = 0.0;
    std::unique_ptr<gpu::Gpu> gpu;

    /** Wall-clock simulation speed in simulated kilocycles per
     * second of host time. */
    f64
    simKHz() const
    {
        if (wallSeconds <= 0.0)
            return 0.0;
        return static_cast<f64>(cycles) / wallSeconds / 1e3;
    }

    /** Frames per second at the configured clock. */
    f64
    fps() const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<f64>(frames) *
               static_cast<f64>(gpu->config().clockMHz) * 1e6 /
               static_cast<f64>(cycles);
    }

    u64
    stat(const std::string& name) const
    {
        const sim::Statistic* s = gpu->stats().find(name);
        return s ? s->total() : 0;
    }

    /** Sum a statistic over unit instances 0..count-1. */
    u64
    statSum(const std::string& prefix, u32 count,
            const std::string& suffix) const
    {
        u64 total = 0;
        for (u32 i = 0; i < count; ++i) {
            total += stat(prefix + std::to_string(i) + "." + suffix);
        }
        return total;
    }
};

/** Build a workload's command stream. */
inline gpu::CommandList
buildCommands(workloads::Workload& workload)
{
    const workloads::WorkloadParams& params = workload.params();
    gl::Context ctx(params.width, params.height, 64u << 20);
    workload.setup(ctx);
    for (u32 f = 0; f < params.frames; ++f)
        workload.renderFrame(ctx, f);
    return ctx.takeCommands();
}

/**
 * One machine-readable line per run, greppable as ^BENCH_JSON.  The
 * scheduler fields reflect the effective config (after environment
 * overrides), so speedup sweeps can be driven externally.
 */
/** Sixteen-digit hex rendering of GpuConfig::configHash(), the
 * scenario identity carried on every BENCH_JSON line. */
inline std::string
configHashHex(const gpu::GpuConfig& config)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << config.configHash();
    return os.str();
}

inline void
emitJson(const std::string& label, const RunResult& result)
{
    const gpu::GpuConfig& c = result.gpu->config();
    std::cout << "BENCH_JSON {\"bench\":\"" << benchName()
              << "\",\"label\":\"" << label
              << "\",\"cycles\":" << result.cycles
              << ",\"frames\":" << result.frames << ",\"fps\":"
              << std::fixed << std::setprecision(3) << result.fps()
              << ",\"wall_s\":" << std::setprecision(6)
              << result.wallSeconds << ",\"khz\":"
              << std::setprecision(3) << result.simKHz()
              << ",\"scheduler\":\"" << gpu::enumName(c.scheduler)
              << "\",\"threads\":" << c.schedulerThreads
              << ",\"threads_resolved\":"
              << result.gpu->simulator().scheduler().threadCount()
              << ",\"work_steal\":"
              << (c.schedWorkSteal ? "true" : "false")
              << ",\"idle_skip\":" << (c.idleSkip ? "true" : "false")
              << ",\"event_trace\":"
              << (c.eventTrace ? "true" : "false")
              << ",\"mem_model\":\"" << gpu::enumName(c.memModel)
              << "\",\"dram_scheduler\":\""
              << gpu::enumName(c.dramScheduler)
              << "\",\"config_hash\":\"" << configHashHex(c)
              << "\"}\n"
              << std::defaultfloat;
}

/** Supplementary machine-readable line carrying a cache's hit/miss
 * counters alongside the run's wall-clock speed, so runs can be
 * compared on cache behaviour as well as on cycles. */
inline void
emitCacheJson(const std::string& label, const RunResult& result,
              u64 hits, u64 misses)
{
    const f64 rate =
        hits + misses ? static_cast<f64>(hits) * 100.0 /
                            static_cast<f64>(hits + misses)
                      : 0.0;
    std::cout << "BENCH_JSON {\"bench\":\"" << benchName()
              << "\",\"label\":\"" << label << "\",\"hits\":" << hits
              << ",\"misses\":" << misses << ",\"hit_rate\":"
              << std::fixed << std::setprecision(3) << rate
              << ",\"khz\":" << result.simKHz() << "}\n"
              << std::defaultfloat;
}

/**
 * After a traced run: collect the events, export the binary trace
 * and the Chrome-tracing JSON to out/, aggregate per statistics
 * window and cross-check against the StatisticManager.  A mismatch
 * is a correctness failure (the trace no longer agrees with the
 * independently collected statistics) and exits non-zero.  Runs
 * after the timing stop, so the <5% overhead budget covers recording
 * only — export cost is paid once, off the clock.
 */
inline void
exportEventTrace(const std::string& label, RunResult& result)
{
    sim::EventTraceData data =
        result.gpu->simulator().finishEventTrace();
    std::string stem = benchName() + "_" + label;
    for (char& c : stem) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    const std::string binPath = sim::outPath(stem + ".evtrace");
    const std::string jsonPath = sim::outPath(stem + ".trace.json");
    const u64 window =
        std::max<u64>(1, result.gpu->config().statsWindow);
    sim::writeEventTraceBinary(data, binPath);
    sim::writeChromeTraceJson(data, window, jsonPath);
    const sim::TraceSeries series = sim::aggregateTrace(data, window);
    const auto mismatches =
        sim::crossCheckStats(series, result.gpu->stats());
    std::cout << "BENCH_JSON {\"bench\":\"" << benchName()
              << "\",\"label\":\"" << label
              << "/event_trace\",\"events\":" << data.events.size()
              << ",\"dropped\":" << data.dropped
              << ",\"series\":" << series.counts.size()
              << ",\"match\":"
              << (mismatches.empty() ? "true" : "false")
              << ",\"json\":\"" << jsonPath << "\"}\n";
    if (!mismatches.empty()) {
        std::cerr << "error: event trace disagrees with statistics ("
                  << mismatches.size() << " mismatches):\n";
        for (std::size_t i = 0;
             i < std::min<std::size_t>(mismatches.size(), 10); ++i)
            std::cerr << "  " << mismatches[i] << "\n";
        std::exit(1);
    }
}

/** Run @p commands on a GPU with @p config.  Every run is timed and
 * reported as a BENCH_JSON line tagged with @p label. */
inline RunResult
run(const gpu::CommandList& commands, gpu::GpuConfig config,
    u32 frames, const std::string& label = "run")
{
    config.memorySize = 64u << 20;
    applyOptions(config);
    RunResult result;
    result.gpu = std::make_unique<gpu::Gpu>(config);
    result.gpu->dac().setKeepLastOnly(true);
    result.gpu->submit(commands);
    const auto start = std::chrono::steady_clock::now();
    if (!result.gpu->runUntilIdle(2'000'000'000ull)) {
        std::cerr << "warning: pipeline did not drain\n";
    }
    const auto stop = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<f64>(stop - start).count();
    result.cycles = result.gpu->cycle();
    result.frames = frames;
    emitJson(label, result);
    if (sim::kEventTraceCompiled &&
        result.gpu->simulator().eventTrace()) {
        exportEventTrace(label, result);
    }
    return result;
}

/** The reduced-scale stand-ins for the paper's game traces. */
inline workloads::WorkloadParams
benchParams(u32 frames = 2, u32 size = 192, u32 aniso = 8)
{
    workloads::WorkloadParams params;
    params.width = size;
    params.height = size;
    params.frames = frames;
    params.textureSize = 64;
    params.anisotropy = aniso;
    params.detail = 8;
    return params;
}

inline void
printHeader(const std::string& title)
{
    std::cout << "\n==== " << title << " ====\n";
}

} // namespace attila::bench

#endif // ATTILA_BENCH_COMMON_HH
