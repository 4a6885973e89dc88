/**
 * @file
 * GpuConfig: the simulator's configuration (paper §3: "over 100
 * parameters").  Defaults reproduce the baseline architecture of
 * Tables 1 and 2.
 *
 * Every field is reachable without a rebuild through the layered
 * text-configuration system (sim/config_file.hh):
 *
 *   defaults  <  --config file  <  ATTILA_CONFIG file
 *             <  ATTILA_CONFIG_SET
 *             <  --set section.key=value and the bench flags that
 *                alias it, in command-line order
 *
 * fromFile()/toFile() round-trip the full parameter set;
 * toConfigText() is the canonical dump whose FNV-1a hash keys
 * BENCH_JSON lines and sweep result stores.
 */

#ifndef ATTILA_GPU_GPU_CONFIG_HH
#define ATTILA_GPU_GPU_CONFIG_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace attila::gpu
{

/** Shader scheduling modes (the Fig 7 experiment). */
enum class ShaderScheduling : u8
{
    /** Thread window: out-of-order execution across the window's
     * threads, in-order commit. */
    ThreadWindow,
    /** Shader input queue: strictly in-order execution. */
    InOrderQueue,
};

/** Fragment generator traversal algorithms (paper §2.2). */
enum class FragmentGenKind : u8
{
    Recursive, ///< McCool et al. recursive descent (default).
    Scanline,  ///< Neon-style tile scanner.
};

/** Engine clocking the boxes each cycle (sim/scheduler.hh). */
enum class SchedulerKind : u8
{
    Serial,   ///< Single-threaded reference engine.
    Parallel, ///< Worker pool, one barrier per phase.
};

/** Memory controller timing model. */
enum class MemModel : u8
{
    Flat,   ///< Flat burst latency + page-open/turnaround penalties.
    Banked, ///< Banked GDDR: row state + RCD/RAS/RP/RC/CL/WL/WR.
};

/** DRAM request scheduling policy (banked model only). */
enum class DramSchedPolicy : u8
{
    Fifo,   ///< Oldest first (matches the flat model's order).
    FrFcfs, ///< Row-hit first, oldest within a class (FR-FCFS).
};

// ===== String <-> enum tables =====================================
// The single source of truth for every textual spelling of a config
// enum, shared by the config-file loader and therefore by every
// layer above it (ATTILA_CONFIG_SET, --set and the bench flags).
// Adding an enumerator means adding exactly one table row.

/** One name↔value binding of a config enum. */
template <typename E>
struct EnumName
{
    const char* name;
    E value;
};

template <typename E>
struct EnumNames; // Specialized per enum below.

template <>
struct EnumNames<ShaderScheduling>
{
    static constexpr EnumName<ShaderScheduling> table[] = {
        {"threadwindow", ShaderScheduling::ThreadWindow},
        {"inorder", ShaderScheduling::InOrderQueue},
    };
};

template <>
struct EnumNames<FragmentGenKind>
{
    static constexpr EnumName<FragmentGenKind> table[] = {
        {"recursive", FragmentGenKind::Recursive},
        {"scanline", FragmentGenKind::Scanline},
    };
};

template <>
struct EnumNames<SchedulerKind>
{
    static constexpr EnumName<SchedulerKind> table[] = {
        {"serial", SchedulerKind::Serial},
        {"parallel", SchedulerKind::Parallel},
    };
};

template <>
struct EnumNames<MemModel>
{
    static constexpr EnumName<MemModel> table[] = {
        {"flat", MemModel::Flat},
        {"banked", MemModel::Banked},
    };
};

template <>
struct EnumNames<DramSchedPolicy>
{
    static constexpr EnumName<DramSchedPolicy> table[] = {
        {"fifo", DramSchedPolicy::Fifo},
        {"frfcfs", DramSchedPolicy::FrFcfs},
    };
};

/** Canonical spelling of @p value. */
template <typename E>
constexpr const char*
enumName(E value)
{
    for (const auto& entry : EnumNames<E>::table) {
        if (entry.value == value)
            return entry.name;
    }
    return "?";
}

/** Parse @p name; nullopt when it matches no table row. */
template <typename E>
constexpr std::optional<E>
enumFromName(std::string_view name)
{
    for (const auto& entry : EnumNames<E>::table) {
        if (name == entry.name)
            return entry.value;
    }
    return std::nullopt;
}

/** "a|b|c" choice list for usage and error messages. */
template <typename E>
std::string
enumChoices()
{
    std::string out;
    for (const auto& entry : EnumNames<E>::table) {
        if (!out.empty())
            out += '|';
        out += entry.name;
    }
    return out;
}

struct GpuConfig;

/**
 * The values a config key accepts, declared next to the key in the
 * field table (gpu/gpu_config.cc).  Integer keys are checked against
 * min, max and multipleOf; a relation checks the key against other
 * keys and returns what is wrong with it, or an empty string.
 */
struct ConfigDomain
{
    u64 min = 0;
    u64 max = ~u64{0};
    u64 multipleOf = 1;
    std::string (*relation)(const GpuConfig&) = nullptr;
};

/** One key of the field table with its declared domain. */
struct ConfigKey
{
    std::string name;     ///< "section.key".
    bool integer = false; ///< Bool, enum and string keys parse names.
    ConfigDomain domain;
};

/** The full configuration of a simulated ATTILA GPU. */
struct GpuConfig
{
    // ===== Global ===================================================
    bool unifiedShaders = true; ///< Fig 2 (true) vs Fig 1 (false).
    u32 memorySize = 64u << 20; ///< GPU memory bytes.

    // ===== Clock ====================================================
    /** GPU clock frequency.  The model has one clock: every box,
     * memory included, advances once per cycle, and this rate only
     * converts simulated cycles into reported frames per second. */
    u64 clockMHz = 600;

    // ===== Shader pool ==============================================
    u32 numShaders = 2;       ///< Fragment/unified shader units.
    u32 numVertexShaders = 4; ///< Dedicated units (non-unified).
    ShaderScheduling scheduling = ShaderScheduling::ThreadWindow;
    /** Shader inputs in flight (fragments+vertices); 1 thread = 4
     * inputs.  Baseline: 112 fragment + 16 vertex inputs. */
    u32 shaderInputsInFlight = 128;
    u32 vertexShaderThreads = 12; ///< Non-unified vertex threads.
    /** Physical temp registers (per input).  Baseline: 448 for the
     * fragment/unified pool. */
    u32 shaderRegisters = 512;
    u32 vertexShaderRegisters = 96;
    u32 shaderFetchRate = 1;  ///< Instructions issued per cycle.

    // ===== Texture units ============================================
    u32 numTextureUnits = 2;  ///< One per shader in the baseline.
    u32 textureCacheKB = 16;
    u32 textureCacheWays = 4;
    u32 textureCacheLine = 256;
    u32 textureCachePorts = 4; ///< Texel reads per cycle.
    u32 textureCacheMshr = 4;  ///< Concurrent misses in flight.
    u32 textureRequestQueue = 16;

    // ===== ROPs =====================================================
    u32 numRops = 2;         ///< Z/stencil + colour units each.
    u32 ropLatency = 2;      ///< Pipeline latency before memory.
    // A Z or colour cache line is one framebuffer tile (fbTileBytes).
    u32 zCacheKB = 16;
    u32 zCacheWays = 4;
    u32 zCacheMshr = 4;
    u32 colorCacheKB = 16;
    u32 colorCacheWays = 4;
    u32 colorCacheMshr = 4;
    bool zCompression = true;
    bool fastClear = true;
    u32 clearCycles = 8;     ///< Fast clear latency.
    /** Double-rate Z (paper §7 extension): depth/stencil-only
     *  passes (colour writes masked) process two quads per cycle. */
    bool doubleRateZ = false;
    /** Colour compression (paper §7 extension): uniform tiles write
     *  back at 1:4 (flat surfaces, UI, sky). */
    bool colorCompression = false;

    // ===== Geometry pipeline (Table 1) ==============================
    u32 streamerQueue = 48;
    u32 vertexCacheEntries = 16; ///< Post-shading vertex cache.
    u32 vertexRequestQueue = 16;
    u32 primitiveAssemblyQueue = 8;
    u32 clipperQueue = 4;
    u32 clipperLatency = 6;
    u32 trianglesPerCycle = 1;
    u32 setupQueue = 12;
    u32 setupLatency = 10;
    u32 fragmentGenQueue = 16;
    FragmentGenKind fragmentGen = FragmentGenKind::Recursive;
    u32 tilesPerCycle = 2;   ///< 2 x 64 fragments per cycle.
    u32 genTileSize = 8;     ///< Second/third tiling level (8x8).

    // ===== Hierarchical Z ===========================================
    bool hzEnabled = true;
    u32 hzQueue = 64;
    u32 hzTilesPerCycle = 2;

    // ===== Interpolator =============================================
    u32 interpolatorBaseLatency = 2;
    u32 interpolatorMaxLatency = 8;
    u32 interpolatorQuadsPerCycle = 2;

    // ===== Fragment FIFO ============================================
    u32 fragmentFifoQueue = 64;

    // ===== Memory controller ========================================
    u32 memoryChannels = 4;
    u32 channelBytesPerCycle = 16; ///< 64-bit DDR: 16 B/cycle.
    u32 memoryBurstBytes = 64;     ///< One transaction burst.
    u32 channelInterleave = 256;   ///< Bytes per channel stripe.
    u32 memoryPageBytes = 4096;    ///< DRAM row (page) size.
    u32 pageOpenPenalty = 8;       ///< Flat model: page-change cost.
    u32 readWriteTurnaround = 4;   ///< Flat model: rd<->wr switch.
    u32 memoryRequestQueue = 16;   ///< Per-client request queue.
    u32 systemBusBytesPerCycle = 16; ///< PCIe-like: 2 x 8 B/cycle.
    /** DRAM timing model.  Flat reproduces the historical burst
     * latency bit for bit; Banked adds per-channel banks with row
     * open/close state driven by dramTiming. */
    MemModel memModel = MemModel::Flat;
    /** Banked-model request scheduling policy. */
    DramSchedPolicy dramScheduler = DramSchedPolicy::Fifo;
    /** Banked-model timing string (see gpu/dram_timing.hh). */
    std::string dramTiming =
        "nbk=8:CCD=2:RRD=8:RCD=12:RAS=25:RP=10:RC=35:CL=10:WL=7"
        ":WR=11";
    /** FR-FCFS starvation cap: once the oldest pending burst has
     * been overtaken this many times, it is scheduled next
     * regardless of row hits behind it. */
    u32 frfcfsCap = 64;
    /** FR-FCFS scheduling window: pending bursts examined per
     * decision (gpgpu-sim's frfcfs_dram_sched_queue_size). */
    u32 frfcfsWindow = 16;

    // ===== Execution engine =========================================
    /** Box-loop engine (engine.scheduler = serial|parallel). */
    SchedulerKind scheduler = SchedulerKind::Serial;
    /** Worker threads for the parallel engine; 0 = all hardware
     * threads. */
    u32 schedulerThreads = 0;
    /** Parallel engine: idle workers steal active boxes from loaded
     * partitions (commit order stays canonical, so results are
     * bit-identical either way). */
    bool schedWorkSteal = true;
    /** Parallel engine: partition size cap as a percentage of
     * perfect balance; larger values let the partitioner keep heavy
     * signal edges uncut at the cost of imbalance (work stealing
     * absorbs it). */
    u32 schedPartitionSlack = 125;
    /** Activity-driven clocking: skip provably idle boxes and
     * fast-forward fully idle stretches.  Bit-identical results
     * either way; false restores the always-clock reference path
     * for debugging and A/B runs. */
    bool idleSkip = true;
    /** Cycles between drain polls once the command stream is
     * exhausted (the poll walks every box and signal, so it is too
     * expensive to run each cycle). */
    u32 drainPollInterval = 64;

    // ===== Statistics / debugging ===================================
    u64 statsWindow = 10000; ///< Sampling window in cycles.
    /** Structured binary event tracing (box activity spans, signal
     * occupancy, cache transactions, shader thread slots).  Works
     * under any scheduler; exported to Chrome-tracing/Perfetto JSON
     * by the benches and examples.  No-op when the build compiled
     * tracing out (ATTILA_TRACE_EVENTS=0). */
    bool eventTrace = false;

    // ===== Host bookkeeping (not configuration state) ===============
    /** Set once applyEnvOverrides() ran, so the Gpu constructor does
     * not re-apply the environment over explicit `--set` overrides
     * (precedence: file < env < --set). */
    bool envApplied = false;

    bool operator==(const GpuConfig&) const = default;

    /** Baseline configuration of Tables 1 and 2. */
    static GpuConfig
    baseline()
    {
        return GpuConfig{};
    }

    /**
     * The Fig 7-9 case study configuration: three unified shaders,
     * one ROP, two 64-bit DDR channels, a 384-input window/queue and
     * 1536 temporary registers.
     */
    static GpuConfig
    caseStudy(ShaderScheduling mode, u32 textureUnits)
    {
        GpuConfig c;
        c.unifiedShaders = true;
        c.numShaders = 3;
        c.numTextureUnits = textureUnits;
        c.numRops = 1;
        c.memoryChannels = 2;
        c.scheduling = mode;
        c.shaderInputsInFlight = 384;
        c.shaderRegisters = 1536;
        return c;
    }

    /** Embedded configuration: a single unified shader does all the
     * vertex, fragment and triangle shading work (paper ref [2]). */
    static GpuConfig
    embedded()
    {
        GpuConfig c;
        c.unifiedShaders = true;
        c.numShaders = 1;
        c.numTextureUnits = 1;
        c.numRops = 1;
        c.memoryChannels = 1;
        c.shaderInputsInFlight = 32;
        c.shaderRegisters = 128;
        c.textureCacheKB = 4;
        c.zCacheKB = 4;
        c.colorCacheKB = 4;
        return c;
    }

    // ===== Text configuration (gpu/gpu_config.cc) ===================

    /** baseline() overlaid with @p path (no environment layering). */
    static GpuConfig fromFile(const std::string& path);

    /** Parse @p text as a config file named @p name over baseline. */
    static GpuConfig fromConfigText(
        const std::string& text,
        const std::string& name = "<config>");

    /** Overlay @p path onto this config (absent keys keep their
     * current values, so partial sweep files compose). */
    void applyFile(const std::string& path);

    /** Overlay config text (see applyFile). */
    void applyText(const std::string& text,
                   const std::string& name = "<config>");

    /**
     * Apply "section.key=value" overrides (the --set layer).  A list
     * in the ATTILA_CONFIG_SET form is one layer, like a file: keys
     * related by a domain (a cache's KB, ways and line) are checked
     * on their final values, so they may be set in any order.
     */
    void applySet(const std::string& assignments,
                  const std::string& origin = "--set");

    /** One entry of an override layer: an assignment list in the
     * ATTILA_CONFIG_SET form and where it was given. */
    struct SetEntry
    {
        std::string assignments;
        std::string origin;
    };

    /** Apply @p layer as one layer (see applySet; later entries win
     * on the same key), naming each entry's own origin. */
    void applySets(const std::vector<SetEntry>& layer);

    /**
     * Apply the environment layer: ATTILA_CONFIG (a config file
     * path), then ATTILA_CONFIG_SET (section.key=value overrides
     * separated by ';', or by ',' where the next assignment begins).
     * Throws ConfigError when any other ATTILA_* variable is set, so
     * a retired knob fails loudly instead of being ignored.  Sets
     * envApplied so the Gpu constructor skips its own application
     * when a harness already layered the environment (keeping
     * `--set` the highest-precedence layer).
     */
    void applyEnvOverrides();

    /** Canonical full-parameter dump; fromConfigText() of it
     * reproduces this config exactly. */
    std::string toConfigText() const;

    /** Write toConfigText() to @p path. */
    void toFile(const std::string& path) const;

    /** FNV-1a hash of toConfigText(): the scenario identity carried
     * in BENCH_JSON lines and sweep result stores. */
    u64 configHash() const;

    /** Throw ConfigError naming the first key outside its declared
     * domain, as "set in code" (loading checks each key it sets
     * against the same domains, naming where it was set). */
    void validate() const;

    /** Every key of the field table, in table order. */
    static std::vector<ConfigKey> schema();
};

} // namespace attila::gpu

#endif // ATTILA_GPU_GPU_CONFIG_HH
