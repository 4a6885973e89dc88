/**
 * @file
 * simbench: the closed-loop host-performance benchmark of the ATTILA
 * simulator (see README.md in this directory).
 *
 * One process runs one workload: it builds the scene's command stream
 * through the public workload and AGL APIs, constructs a gpu::Gpu,
 * submits, clocks it with runUntilIdle() and checks every frame
 * against gpu::RefRenderer.  One simulation runs at a time.
 *
 *   simbench --workload <name> --seed <n> --seconds <s> --trace 0|1
 *
 * --trace 0 reports the end-to-end metrics (sim_khz, setup_s,
 * peak_rss_mb) with event tracing off; --trace 1 additionally makes
 * one run under the 2-thread partitioned engine and one with event
 * tracing on, and reports the per-layer metrics.
 * The last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}; the line before it
 * is a SIMBENCH_RECORD carrying provenance and every measured value.
 *
 * Test hooks: --stream-hash prints the command-stream hash of the
 * seed's frame window and exits; --inject-mismatch flips one pixel of
 * the first simulated frame before the oracle comparison.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "gpu/ref_renderer.hh"
#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/trace_export.hh"
#include "workloads/shadows.hh"
#include "workloads/terrain.hh"

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SIMBENCH_COMPILER
#define SIMBENCH_COMPILER "unknown"
#endif

using namespace attila;

namespace
{

/** Seed used when --seed is absent; tuning happened on this one. */
constexpr u64 kDefaultSeed = 0;
/** Seed kept out of tuning, for re-checking later claims. */
constexpr u64 kHeldOutSeed = 11;

/** Setup-only samples taken before the timed section (setup_s is
 * taken over these plus every timed repetition's own setup). */
constexpr u32 kSetupSamples = 15;
/** Timed repetitions made even when --seconds has already run out. */
constexpr u32 kMinReps = 3;
constexpr u64 kMaxCycles = 2'000'000'000ull;
/**
 * runUntilIdle is called in slices of this many simulated cycles, each
 * timed on its own (tens of milliseconds of host time).  Slicing
 * changes nothing simulated: the drain poll and the idle fast-forward
 * depend only on the absolute cycle.
 */
constexpr u64 kSliceCycles = 32768;
/**
 * The host flips between a quiet state and a contended one about 1.5x
 * slower, in phases of one to a few seconds.  Repetitions simulate the
 * same cycles, so slice k of every repetition does the same work:
 * sim_khz sums, over the slices, this low quantile of each slice's
 * host time, and setup_s takes the same quantile of the set-up
 * samples.  Both report the quiet host, which repeats across runs;
 * a repetition as a whole mixes the two states and does not.
 */
constexpr f64 kQuietQuantile = 0.1;
/** Steps of the clock-probe chain (see clockChainS). */
constexpr u32 kChainSteps = 100'000;
/**
 * The chain's time at the reference clock: three shift/xor pairs, six
 * dependent one-cycle operations per step, at 3 GHz.  Host times are
 * scaled by kReferenceChainS / (measured chain time), so the host's
 * clock steps (2.6-3.0 GHz on the host this was tuned on, drifting
 * over minutes) do not move the reported times.
 */
constexpr f64 kReferenceChainS = 6.0 * kChainSteps / 3e9;
/** Chains timed after each set-up; their median is its clock. */
constexpr u32 kSetupChains = 5;

using Clock = std::chrono::steady_clock;

f64
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<f64>(Clock::now() - start).count();
}

volatile u64 gChainSink;

/**
 * Host seconds of a chain of kChainSteps xorshift steps.  Every
 * operation depends on the one before and touches no memory, so the
 * time is the host core's clock period times a fixed cycle count: a
 * clock reading that other tenants' cache and memory traffic does not
 * disturb.
 */
f64
clockChainS()
{
    const auto t = Clock::now();
    u64 x = 0x9e3779b97f4a7c15ull;
    for (u32 i = 0; i < kChainSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    gChainSink = x;
    return secondsSince(t);
}

/** The @p q quantile of @p v, interpolating between order statistics
 * (q = 0.5 is the median). */
f64
quantile(std::vector<f64> v, f64 q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const f64 pos = q * static_cast<f64>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}

f64
median(const std::vector<f64>& v)
{
    return quantile(v, 0.5);
}

/** FNV-1a, the hash the repo uses for config identity. */
class Fnv
{
  public:
    void
    bytes(const void* data, std::size_t n)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            _h ^= p[i];
            _h *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    value(const T& v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        bytes(&v, sizeof v);
    }

    void
    vec(const emu::Vec4& v)
    {
        value(v.x);
        value(v.y);
        value(v.z);
        value(v.w);
    }

    void
    text(const std::string& s)
    {
        value(s.size());
        bytes(s.data(), s.size());
    }

    u64 digest() const { return _h; }

  private:
    u64 _h = 0xcbf29ce484222325ull;
};

std::string
hex(u64 v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/** Hash of everything the simulator receives: field by field, so
 * struct padding never enters the digest. */
u64
streamHash(const gpu::CommandList& commands)
{
    Fnv h;
    for (const gpu::Command& c : commands) {
        h.value(c.op);
        switch (c.op) {
          case gpu::CommandOp::WriteReg:
            h.value(c.reg);
            h.value(c.regIndex);
            h.value(c.value.u);
            h.value(c.value.f);
            h.vec(c.value.v);
            break;
          case gpu::CommandOp::WriteBuffer:
            h.value(c.address);
            h.value(c.data->size());
            h.bytes(c.data->data(), c.data->size());
            break;
          case gpu::CommandOp::LoadVertexProgram:
          case gpu::CommandOp::LoadFragmentProgram:
            h.value(c.program->target);
            for (const emu::Instruction& ins : c.program->code) {
                h.value(ins.op);
                h.value(ins.dst.bank);
                h.value(ins.dst.index);
                h.value(ins.dst.writeMask);
                for (const emu::SrcOperand& src : ins.src) {
                    h.value(src.bank);
                    h.value(src.index);
                    h.bytes(src.swizzle.data(), src.swizzle.size());
                    h.value(src.negate);
                }
                h.value(ins.saturate);
                h.value(ins.texUnit);
                h.value(ins.texTarget);
            }
            for (const auto& [slot, v] : c.program->literals) {
                h.value(slot);
                h.vec(v);
            }
            break;
          case gpu::CommandOp::Draw:
            h.value(c.draw.primitive);
            h.value(c.draw.count);
            h.value(c.draw.first);
            break;
          default:
            break;
        }
    }
    return h.digest();
}

// ===== Workloads ====================================================

enum class SceneKind { Shadows, Terrain };

/**
 * One benchmark workload: a scene, its size and a GPU config.  A
 * repetition simulates one animation frame: short repetitions give
 * each slice many samples per run (see kQuietQuantile).
 */
struct Scene
{
    std::string name;
    SceneKind kind;
    workloads::WorkloadParams params;
    /** `section.key=value` overrides on GpuConfig::baseline(). */
    std::vector<std::string> sets;
};

/** The seed picks the animation frame in [0, kSeedFrames). */
constexpr u32 kSeedFrames = 16;

workloads::WorkloadParams
sceneParams(u32 size, u32 detail, u32 aniso)
{
    workloads::WorkloadParams p;
    p.width = size;
    p.height = size;
    p.textureSize = 64;
    p.anisotropy = aniso;
    p.detail = detail;
    return p;
}

std::vector<Scene>
scenes()
{
    return {
        // ROP/write-heavy Doom3 stand-in on the Table 1 baseline.
        {"shadows", SceneKind::Shadows, sceneParams(192, 8, 8), {}},
        // Fig. 9 "window + 1 TU" texture-bound case on banked
        // FR-FCFS DRAM (the keys of dram_banked_frfcfs.cfg).
        {"terrain-tex1", SceneKind::Terrain, sceneParams(192, 8, 8),
         {"shader.units=3", "texture.units=1", "rop.units=1",
          "memory.channels=2", "shader.scheduling=threadwindow",
          "shader.inputsInFlight=384", "shader.registers=1536",
          "memory.memModel=banked", "memory.dramScheduler=frfcfs",
          "memory.frfcfsCap=64", "memory.frfcfsWindow=16"}},
        // Vertex-heavy control: dense grid at low resolution.
        {"terrain-dense", SceneKind::Terrain, sceneParams(96, 24, 1),
         {}},
    };
}

gpu::GpuConfig
sceneConfig(const Scene& scene, bool eventTrace,
            const std::vector<std::string>& extraSets = {})
{
    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    for (const std::string& set : scene.sets)
        config.applySet(set, "simbench");
    for (const std::string& set : extraSets)
        config.applySet(set, "simbench");
    config.eventTrace = eventTrace;
    return config;
}

std::unique_ptr<workloads::Workload>
makeWorkload(const Scene& scene)
{
    if (scene.kind == SceneKind::Shadows)
        return std::make_unique<workloads::ShadowsWorkload>(
            scene.params);
    return std::make_unique<workloads::TerrainWorkload>(scene.params);
}

// ===== One repetition ===============================================

/** Host-time spans of one set-up, around each public call. */
struct SetupSpans
{
    f64 buildS = 0;     ///< Workload::setup + renderFrame + takeCommands.
    f64 constructS = 0; ///< gpu::Gpu construction.
    f64 submitS = 0;    ///< Gpu::submit.
    f64 chainS = 0;     ///< Median clockChainS() right after it.

    f64 total() const { return buildS + constructS + submitS; }

    /** total() at the reference clock. */
    f64 referenceTotal() const
    {
        return total() * kReferenceChainS / chainS;
    }
};

struct Rep
{
    gpu::CommandList commands;
    std::unique_ptr<gpu::Gpu> gpu;
    SetupSpans spans;
};

gpu::CommandList
buildStream(const Scene& scene, u32 frame)
{
    std::unique_ptr<workloads::Workload> workload = makeWorkload(scene);
    gl::Context ctx(scene.params.width, scene.params.height,
                    64u << 20);
    workload->setup(ctx);
    workload->renderFrame(ctx, frame);
    return ctx.takeCommands();
}

Rep
setUp(const Scene& scene, u32 first, const gpu::GpuConfig& config)
{
    Rep rep;
    auto t = Clock::now();
    rep.commands = buildStream(scene, first);
    rep.spans.buildS = secondsSince(t);
    t = Clock::now();
    rep.gpu = std::make_unique<gpu::Gpu>(config);
    rep.spans.constructS = secondsSince(t);
    t = Clock::now();
    rep.gpu->submit(rep.commands);
    rep.spans.submitS = secondsSince(t);
    std::vector<f64> chains;
    for (u32 i = 0; i < kSetupChains; ++i)
        chains.push_back(clockChainS());
    rep.spans.chainS = median(chains);
    return rep;
}

/** What must repeat exactly across runs of one workload and seed. */
struct Outcome
{
    bool drained = false;
    u64 cycles = 0;
    u64 statsHash = 0;
    std::vector<u64> frameHashes;
    f64 runS = 0;
    /** Host seconds of each kSliceCycles slice of the run. */
    std::vector<f64> sliceS;
    /** Median clockChainS() over the run, one chain after each slice. */
    f64 chainS = 0;

    bool
    sameCounts(const Outcome& o) const
    {
        return cycles == o.cycles && statsHash == o.statsHash;
    }
};

u64
frameHash(const gpu::FrameImage& frame)
{
    Fnv h;
    h.value(frame.width);
    h.value(frame.height);
    h.bytes(frame.pixels.data(), frame.pixels.size() * sizeof(u32));
    return h.digest();
}

Outcome
runRep(Rep& rep)
{
    Outcome out;
    std::vector<f64> chains;
    for (u64 ran = 0; !out.drained && ran < kMaxCycles;
         ran += kSliceCycles) {
        const auto t = Clock::now();
        out.drained = rep.gpu->runUntilIdle(kSliceCycles);
        out.sliceS.push_back(secondsSince(t));
        out.runS += out.sliceS.back();
        chains.push_back(clockChainS());
    }
    out.chainS = median(chains);
    out.cycles = rep.gpu->cycle();
    Fnv h;
    for (const std::string& name : rep.gpu->stats().names()) {
        h.text(name);
        h.value(rep.gpu->stats().find(name)->total());
    }
    out.statsHash = h.digest();
    for (const gpu::FrameImage& frame : rep.gpu->frames())
        out.frameHashes.push_back(frameHash(frame));
    return out;
}

rusage
selfUsage()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage;
}

f64
peakRssMb()
{
    return static_cast<f64>(selfUsage().ru_maxrss) / 1024.0; // KiB.
}

f64
toSeconds(const timeval& tv)
{
    return static_cast<f64>(tv.tv_sec) +
           static_cast<f64>(tv.tv_usec) / 1e6;
}

// ===== Per-layer counts =============================================

/** StatisticManager totals with unit instances summed. */
class Totals
{
  public:
    explicit Totals(gpu::Gpu& gpu)
    {
        for (const std::string& name : gpu.stats().names())
            _totals[name] = gpu.stats().find(name)->total();
    }

    /** Sum of "<unit><digits>.<stat>" (and "<unit>.<stat>"). */
    f64
    sum(const std::string& unit, const std::string& stat) const
    {
        u64 total = 0;
        for (const auto& [name, value] : _totals) {
            if (name.compare(0, unit.size(), unit) != 0)
                continue;
            std::size_t i = unit.size();
            while (i < name.size() && std::isdigit(
                                          static_cast<unsigned char>(
                                              name[i])))
                ++i;
            if (name.compare(i, std::string::npos, "." + stat) == 0)
                total += value;
        }
        return static_cast<f64>(total);
    }

    /** Sum over every statistic named "<prefix>...<suffix>". */
    f64
    sumMatching(const std::string& prefix,
                const std::string& suffix) const
    {
        u64 total = 0;
        for (const auto& [name, value] : _totals) {
            if (name.size() >= prefix.size() + suffix.size() &&
                name.compare(0, prefix.size(), prefix) == 0 &&
                name.compare(name.size() - suffix.size(),
                             suffix.size(), suffix) == 0)
                total += value;
        }
        return static_cast<f64>(total);
    }

  private:
    std::map<std::string, u64> _totals;
};

/** The run time on a quiet host at the reference clock: slice by
 * slice, the kQuietQuantile quantile over the repetitions of the same
 * slice (each scaled by its repetition's clock), summed. */
f64
quietRunS(const std::vector<Outcome>& outcomes)
{
    f64 total = 0;
    const std::size_t slices = outcomes[0].sliceS.size();
    for (std::size_t k = 0; k < slices; ++k) {
        std::vector<f64> times;
        for (const Outcome& o : outcomes) {
            if (o.sliceS.size() == slices)
                times.push_back(o.sliceS[k] * kReferenceChainS /
                                o.chainS);
        }
        total += quantile(times, kQuietQuantile);
    }
    return total;
}

f64
ratio(f64 num, f64 den)
{
    return den > 0 ? num / den : 0.0;
}

// ===== Output =======================================================

using Metrics = std::vector<std::pair<std::string, f64>>;

struct MetricUnit
{
    const char* name;
    const char* unit;
};

/** Every metric this program reports, with its unit. */
constexpr MetricUnit kEndToEnd[] = {
    {"sim_khz", "kcycles/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricUnit kPerLayer[] = {
    {"workloads.build_s", "s"},
    {"gl.commands", "count"},
    {"gpu.construct_s", "s"},
    {"gpu.submit_s", "s"},
    {"sim.run_s", "s"},
    {"sim.cycles", "cycles"},
    {"sim.box_updates", "count"},
    {"sim.active_ratio", "ratio"},
    {"sim.signal_writes", "count"},
    {"sim.threads_resolved", "count"},
    {"sim.par2.run_s", "s"},
    {"sim.par2.speedup", "ratio"},
    {"sim.event_trace.overhead", "ratio"},
    {"sim.event_trace.events", "count"},
    {"sim.event_trace.collect_s", "s"},
    {"emu.ref_render_s", "s"},
    {"gpu.streamer.vertices", "count"},
    {"gpu.streamer.vcache_hit_rate", "ratio"},
    {"gpu.clipper.trivial_rejects", "count"},
    {"gpu.setup.triangles", "count"},
    {"gpu.setup.cull_rate", "ratio"},
    {"gpu.fraggen.fragments", "count"},
    {"gpu.hz.cull_rate", "ratio"},
    {"gpu.shader.instructions", "count"},
    {"gpu.shader.threads", "count"},
    {"gpu.shader.util", "ratio"},
    {"gpu.shader.tex_stall_cycles", "cycles"},
    {"gpu.ffifo.window_full_cycles", "cycles"},
    {"gpu.texture.requests", "count"},
    {"gpu.texture.bilinear_ops", "count"},
    {"gpu.texture.hit_rate", "ratio"},
    {"gpu.texture.util", "ratio"},
    {"gpu.zst.fragments_tested", "count"},
    {"gpu.zst.pass_rate", "ratio"},
    {"gpu.zst.hit_rate", "ratio"},
    {"gpu.cw.fragments", "count"},
    {"gpu.cw.hit_rate", "ratio"},
    {"gpu.mc.write_mb", "MB"},
    {"gpu.mc.read_mb", "MB"},
    {"gpu.mc.row_hit_rate", "ratio"},
    {"gpu.mc.row_conflicts", "count"},
    {"gpu.mc.util", "ratio"},
};

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(f64 v)
{
    std::ostringstream os;
    os << std::setprecision(12) << v;
    return os.str();
}

template <std::size_t N>
std::string
metricsJson(const Metrics& values, const MetricUnit (&units)[N])
{
    std::string out = "{";
    for (const MetricUnit& m : units) {
        const auto it = std::find_if(
            values.begin(), values.end(),
            [&](const auto& kv) { return kv.first == m.name; });
        if (it == values.end())
            fatal("simbench: metric '", m.name, "' was not measured");
        if (out.size() > 1)
            out += ", ";
        out += jsonString(m.name) + ": {\"value\": " +
               jsonNumber(it->second) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
}

// ===== Command line =================================================

struct Args
{
    std::string workload;
    u64 seed = kDefaultSeed;
    f64 seconds = 10.0;
    bool trace = false;
    bool streamHashOnly = false;
    bool injectMismatch = false;
    std::string commit = "unknown";
    std::string sourceHash = "unknown";
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "simbench: " << why << "\n"
              << "usage: simbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--stream-hash] "
                 "[--inject-mismatch] [--commit SHA] "
                 "[--source-hash H]\nworkloads:";
    for (const Scene& s : scenes())
        std::cerr << " " << s.name;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        const auto number = [&](const std::string& v) {
            char* end = nullptr;
            const f64 n = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || n < 0)
                usage("bad value '" + v + "' for " + arg);
            return n;
        };
        if (arg == "--workload") {
            args.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            char* end = nullptr;
            args.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("bad value '" + v + "' for --seed");
        } else if (arg == "--seconds") {
            args.seconds = number(value());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            args.trace = v == "1";
        } else if (arg == "--stream-hash") {
            args.streamHashOnly = true;
        } else if (arg == "--inject-mismatch") {
            args.injectMismatch = true;
        } else if (arg == "--commit") {
            args.commit = value();
        } else if (arg == "--source-hash") {
            args.sourceHash = value();
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

/** The seed picks the animation frame (the point on the camera path);
 * seed 0 gives frame 0, the fig10 frame. */
u32
firstFrame(u64 seed)
{
    return static_cast<u32>(seed % kSeedFrames);
}

// ===== The benchmark ================================================

int
benchMain(const Args& args)
{
    const std::vector<Scene> all = scenes();
    const auto sceneIt =
        std::find_if(all.begin(), all.end(), [&](const Scene& s) {
            return s.name == args.workload;
        });
    if (sceneIt == all.end())
        usage("unknown workload '" + args.workload + "'");
    const Scene& scene = *sceneIt;
    const u32 first = firstFrame(args.seed);

    if (args.streamHashOnly) {
        std::cout << "first_frame " << first << " stream_hash "
                  << hex(streamHash(buildStream(scene, first)))
                  << "\n";
        return 0;
    }

    const gpu::GpuConfig config = sceneConfig(scene, false);

    // --- 1. Set-up alone, several times ----------------------------
    std::vector<f64> setupS, setupRefS, buildS, constructS, submitS;
    const auto recordSpans = [&](const SetupSpans& s) {
        setupS.push_back(s.total());
        setupRefS.push_back(s.referenceTotal());
        buildS.push_back(s.buildS);
        constructS.push_back(s.constructS);
        submitS.push_back(s.submitS);
    };
    for (u32 i = 0; i < kSetupSamples; ++i)
        recordSpans(setUp(scene, first, config).spans);

    // --- 2. Timed repetitions, one simulation at a time ------------
    std::vector<Outcome> outcomes;
    std::vector<gpu::FrameImage> simFrames;
    gpu::CommandList commands;
    u32 threadsResolved = 0;
    u64 streamDigest = 0;
    const rusage before = selfUsage();
    const auto timed = Clock::now();
    while (outcomes.size() < kMinReps ||
           secondsSince(timed) < args.seconds) {
        Rep rep = setUp(scene, first, config);
        recordSpans(rep.spans);
        outcomes.push_back(runRep(rep));
        if (outcomes.size() == 1) {
            simFrames = rep.gpu->frames();
            commands = rep.commands;
            streamDigest = streamHash(rep.commands);
            threadsResolved =
                rep.gpu->simulator().scheduler().threadCount();
        }
    }
    // Read before the oracle, whose own memory image would hide the
    // simulator's footprint.
    const f64 peakRss = peakRssMb();
    const f64 timedWallS = secondsSince(timed);
    const rusage after = selfUsage();

    // --- 3. The oracle ---------------------------------------------
    const auto refStart = Clock::now();
    gpu::RefRenderer reference(64u << 20);
    reference.execute(commands);
    const f64 refRenderS = secondsSince(refStart);

    if (args.injectMismatch && !simFrames.empty() &&
        !simFrames[0].pixels.empty())
        simFrames[0].pixels[0] ^= 0x00ffffffu;

    bool imageOk = !simFrames.empty() &&
                   simFrames.size() == reference.frames().size();
    for (std::size_t f = 0; imageOk && f < simFrames.size(); ++f)
        imageOk = simFrames[f].diffCount(reference.frames()[f]) == 0;

    // --- 4. Count failed frames ------------------------------------
    const Outcome& base = outcomes[0];
    u64 attempted = 0;
    u64 failed = 0;
    // Counts @p o's frame; @p valid false fails it.  Returns whether
    // @p o repeats the first repetition exactly.
    const auto check = [&](const Outcome& o, bool valid = true) {
        const bool same = valid && o.drained && o.sameCounts(base) &&
                          o.frameHashes == base.frameHashes;
        ++attempted;
        failed += same && imageOk ? 0 : 1;
        return same;
    };
    for (const Outcome& o : outcomes)
        check(o);

    std::vector<f64> khz, runS, clockGhz;
    for (const Outcome& o : outcomes) {
        khz.push_back(static_cast<f64>(o.cycles) / o.runS / 1e3);
        runS.push_back(o.runS);
        clockGhz.push_back(3.0 * kReferenceChainS / o.chainS);
    }

    Metrics endToEnd = {
        {"sim_khz",
         static_cast<f64>(base.cycles) / quietRunS(outcomes) / 1e3},
        {"setup_s", quantile(setupRefS, kQuietQuantile)},
        {"peak_rss_mb", peakRss},
    };

    // --- 5. Per-layer runs: the partitioned engine, then tracing ---
    Metrics perLayer;
    u64 traceEvents = 0;
    bool parallelOk = true;
    bool traceOk = true;
    if (args.trace) {
        // The 2-thread partitioned engine must equal the serial
        // engine bit for bit; its host time isolates the scheduler.
        Rep par = setUp(scene, first,
                        sceneConfig(scene, false,
                                    {"engine.scheduler=parallel",
                                     "engine.threads=2"}));
        const Outcome par2 = runRep(par);
        parallelOk = check(par2);
        threadsResolved = par.gpu->simulator().scheduler().threadCount();
        par.gpu.reset();

        Rep rep = setUp(scene, first, sceneConfig(scene, true));
        const Outcome traced = runRep(rep);
        gpu::Gpu& gpu = *rep.gpu;
        const gpu::GpuConfig& c = gpu.config();
        const f64 cycles = static_cast<f64>(traced.cycles);

        f64 boxUpdates = 0;
        f64 collectS = 0;
        bool statsAgree = true;
        if constexpr (sim::kEventTraceCompiled) {
            const auto t = Clock::now();
            const sim::EventTraceData data =
                gpu.simulator().finishEventTrace();
            const sim::TraceSeries series = sim::aggregateTrace(
                data, std::max<u64>(1, c.statsWindow));
            collectS = secondsSince(t);
            traceEvents = data.events.size();
            statsAgree =
                sim::crossCheckStats(series, gpu.stats()).empty();
            const std::string active = ".activeCycles";
            for (const auto& [name, counts] : series.counts) {
                if (name.size() > active.size() &&
                    name.compare(name.size() - active.size(),
                                 active.size(), active) == 0) {
                    for (u64 n : counts)
                        boxUpdates += static_cast<f64>(n);
                }
            }
        }
        // The traced run is one more attempt at every frame.
        traceOk = check(traced, statsAgree);
        std::size_t boxes = 0;
        for (const auto& d : gpu.simulator().domains())
            boxes += d->boxes().size();

        const Totals t(gpu);
        const f64 mb = 1024.0 * 1024.0;
        const f64 rowAccesses = t.sum("MemoryController", "rowHits") +
                                t.sum("MemoryController", "rowMisses") +
                                t.sum("MemoryController",
                                      "rowConflicts");
        const f64 zTested = t.sum("ZStencilTest", "fragmentsTested");
        perLayer = {
            {"workloads.build_s", median(buildS)},
            {"gl.commands", static_cast<f64>(commands.size())},
            {"gpu.construct_s", median(constructS)},
            {"gpu.submit_s", median(submitS)},
            {"sim.run_s", median(runS)},
            {"sim.cycles", cycles},
            {"sim.box_updates", boxUpdates},
            {"sim.active_ratio",
             ratio(boxUpdates, static_cast<f64>(boxes) * cycles)},
            {"sim.signal_writes", t.sumMatching("signal.", ".writes")},
            {"sim.threads_resolved", static_cast<f64>(threadsResolved)},
            {"sim.par2.run_s", par2.runS},
            {"sim.par2.speedup", ratio(median(runS), par2.runS)},
            {"sim.event_trace.overhead",
             ratio(traced.runS, median(runS))},
            {"sim.event_trace.events", static_cast<f64>(traceEvents)},
            {"sim.event_trace.collect_s", collectS},
            {"emu.ref_render_s", refRenderS},
            {"gpu.streamer.vertices", t.sum("Streamer", "vertices")},
            {"gpu.streamer.vcache_hit_rate",
             ratio(t.sum("Streamer", "vertexCacheHits"),
                   t.sum("Streamer", "vertexCacheHits") +
                       t.sum("Streamer", "vertexCacheMisses"))},
            {"gpu.clipper.trivial_rejects",
             t.sum("Clipper", "trivialRejects")},
            {"gpu.setup.triangles", t.sum("TriangleSetup", "triangles")},
            {"gpu.setup.cull_rate",
             ratio(t.sum("TriangleSetup", "culled"),
                   t.sum("TriangleSetup", "triangles"))},
            {"gpu.fraggen.fragments",
             t.sum("FragmentGenerator", "fragments")},
            {"gpu.hz.cull_rate",
             ratio(t.sum("HierarchicalZ", "tilesCulled"),
                   t.sum("HierarchicalZ", "tiles"))},
            {"gpu.shader.instructions",
             t.sum("ShaderUnit", "instructions")},
            {"gpu.shader.threads", t.sum("ShaderUnit", "threads")},
            {"gpu.shader.util",
             ratio(t.sum("ShaderUnit", "busyCycles"),
                   c.numShaders * cycles)},
            {"gpu.shader.tex_stall_cycles",
             t.sum("ShaderUnit", "textureStallCycles")},
            {"gpu.ffifo.window_full_cycles",
             t.sum("FragmentFIFO", "windowFullCycles")},
            {"gpu.texture.requests", t.sum("TextureUnit", "requests")},
            {"gpu.texture.bilinear_ops",
             t.sum("TextureUnit", "bilinearOps")},
            {"gpu.texture.hit_rate",
             ratio(t.sum("TextureUnit", "cacheHits"),
                   t.sum("TextureUnit", "cacheHits") +
                       t.sum("TextureUnit", "cacheMisses"))},
            {"gpu.texture.util",
             ratio(t.sum("TextureUnit", "busyCycles"),
                   c.numTextureUnits * cycles)},
            {"gpu.zst.fragments_tested", zTested},
            {"gpu.zst.pass_rate",
             ratio(t.sum("ZStencilTest", "fragmentsPassed"), zTested)},
            {"gpu.zst.hit_rate",
             ratio(t.sum("ZStencilTest", "cacheHits"),
                   t.sum("ZStencilTest", "cacheHits") +
                       t.sum("ZStencilTest", "cacheMisses"))},
            {"gpu.cw.fragments", t.sum("ColorWrite", "fragments")},
            {"gpu.cw.hit_rate",
             ratio(t.sum("ColorWrite", "cacheHits"),
                   t.sum("ColorWrite", "cacheHits") +
                       t.sum("ColorWrite", "cacheMisses"))},
            {"gpu.mc.write_mb",
             t.sum("MemoryController", "writeBytes") / mb},
            {"gpu.mc.read_mb",
             t.sum("MemoryController", "readBytes") / mb},
            {"gpu.mc.row_hit_rate",
             ratio(t.sum("MemoryController", "rowHits"), rowAccesses)},
            {"gpu.mc.row_conflicts",
             t.sum("MemoryController", "rowConflicts")},
            {"gpu.mc.util",
             ratio(t.sum("MemoryController", "busyCycles"),
                   c.memoryChannels * cycles)},
        };
    }

    const f64 failedFrac =
        static_cast<f64>(failed) / static_cast<f64>(attempted);
    const bool correct = failed == 0;

    // --- 6. Report -------------------------------------------------
    Metrics allValues = endToEnd;
    allValues.insert(allValues.end(), perLayer.begin(),
                      perLayer.end());
    std::ostringstream rec;
    rec << "SIMBENCH_RECORD {\"workload\": " << jsonString(scene.name)
        << ", \"seed\": " << args.seed
        << ", \"default_seed\": " << kDefaultSeed
        << ", \"held_out_seed\": " << kHeldOutSeed
        << ", \"first_frame\": " << first
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"commit\": " << jsonString(args.commit)
        << ", \"source_hash\": " << jsonString(args.sourceHash)
        << ", \"build_type\": " << jsonString(SIMBENCH_BUILD_TYPE)
        << ", \"compiler\": " << jsonString(SIMBENCH_COMPILER)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"trace_events_compiled\": "
        << (sim::kEventTraceCompiled ? "true" : "false")
        << ", \"config_hash\": " << jsonString(hex(config.configHash()))
        << ", \"config_sets\": [";
    for (std::size_t i = 0; i < scene.sets.size(); ++i)
        rec << (i ? ", " : "") << jsonString(scene.sets[i]);
    rec << "], \"threads_resolved\": " << threadsResolved
        << ", \"stream_hash\": " << jsonString(hex(streamDigest))
        << ", \"sim_cycles\": " << base.cycles
        << ", \"stats_hash\": " << jsonString(hex(base.statsHash))
        << ", \"image_hash\": ";
    {
        Fnv h;
        for (u64 fh : base.frameHashes)
            h.value(fh);
        rec << jsonString(hex(h.digest()));
    }
    rec << ", \"reps\": " << outcomes.size()
        << ", \"setup_samples\": " << setupS.size()
        << ", \"parallel_identical\": "
        << (parallelOk ? "true" : "false")
        << ", \"trace_consistent\": " << (traceOk ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"failed_frac\": " << jsonNumber(failedFrac)
        << ", \"timed_host\": {\"wall_s\": " << jsonNumber(timedWallS)
        << ", \"user_s\": "
        << jsonNumber(toSeconds(after.ru_utime) -
                      toSeconds(before.ru_utime))
        << ", \"sys_s\": "
        << jsonNumber(toSeconds(after.ru_stime) -
                      toSeconds(before.ru_stime))
        << ", \"minor_faults\": " << after.ru_minflt - before.ru_minflt
        << ", \"involuntary_switches\": "
        << after.ru_nivcsw - before.ru_nivcsw << "}"
        << ", \"khz_samples\": [";
    for (std::size_t i = 0; i < khz.size(); ++i)
        rec << (i ? ", " : "") << jsonNumber(khz[i]);
    rec << "], \"clock_ghz_samples\": [";
    for (std::size_t i = 0; i < clockGhz.size(); ++i)
        rec << (i ? ", " : "") << jsonNumber(clockGhz[i]);
    rec << "], \"setup_samples_s\": [";
    for (std::size_t i = 0; i < setupS.size(); ++i)
        rec << (i ? ", " : "") << jsonNumber(setupS[i]);
    rec << "], \"values\": {";
    for (std::size_t i = 0; i < allValues.size(); ++i)
        rec << (i ? ", " : "") << jsonString(allValues[i].first) << ": "
            << jsonNumber(allValues[i].second);
    rec << "}}";
    std::cout << rec.str() << "\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": "
              << (args.trace ? metricsJson(perLayer, kPerLayer)
                             : metricsJson(endToEnd, kEndToEnd))
              << "}" << std::endl;
    return 0;
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return benchMain(args);
    } catch (const std::exception& e) {
        std::cerr << "simbench: " << e.what() << "\n";
        return 1;
    }
}
