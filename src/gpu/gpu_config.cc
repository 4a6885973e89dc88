/**
 * @file
 * GpuConfig text-configuration plumbing: the field table binding
 * every parameter to its "section.key" name and its domain, the
 * layered file/env/--set application, the domain checker and the
 * canonical dump.
 *
 * One visitor template walks the field table in every direction, so
 * a parameter added to visitConfigFields() is automatically loaded,
 * checked, dumped, hashed, diffed and covered by the round-trip and
 * domain tests.
 */

#include "gpu/gpu_config.hh"

#include <cstdlib>
#include <fstream>
#include <type_traits>

#include <unistd.h>

#include "gpu/dram_timing.hh"
#include "gpu/framebuffer.hh"
#include "gpu/work_objects.hh"
#include "sim/config_file.hh"

namespace attila::gpu
{

namespace
{

/** A cache's KB must split into whole sets of whole lines. */
std::string
cacheSplits(u32 kb, u32 ways, u32 line)
{
    // A zero way count or line size is reported by its own key.
    const u64 setBytes = u64{ways} * line;
    if (setBytes == 0 || u64{kb} * 1024 % setBytes == 0)
        return {};
    return std::to_string(kb) + " KB does not split into " +
           std::to_string(ways) + "-way sets of " +
           std::to_string(line) + "-byte lines";
}

std::string
textureCacheSplits(const GpuConfig& c)
{
    return cacheSplits(c.textureCacheKB, c.textureCacheWays,
                       c.textureCacheLine);
}

std::string
zCacheSplits(const GpuConfig& c)
{
    return cacheSplits(c.zCacheKB, c.zCacheWays, fbTileBytes);
}

std::string
colorCacheSplits(const GpuConfig& c)
{
    return cacheSplits(c.colorCacheKB, c.colorCacheWays, fbTileBytes);
}

/** The banked-model timing string parses (it is the stored form). */
std::string
dramTimingParses(const GpuConfig& c)
{
    try {
        (void)DramTiming::parse(c.dramTiming);
    } catch (const sim::ConfigError& e) {
        return e.what();
    }
    return {};
}

/** Queue and window sizes, in entries. */
constexpr ConfigDomain queue{.min = 1, .max = 4096};
/** Signal latencies and fixed pipeline delays, in cycles. */
constexpr ConfigDomain latency{.min = 1, .max = 1024};
/** Per-cycle rates (also signal bandwidths). */
constexpr ConfigDomain rate{.min = 1, .max = 64};
/** Replicated units: each one is a box with its own links. */
constexpr ConfigDomain units{.min = 1, .max = 32};
/** Byte widths and strides of the memory system. */
constexpr ConfigDomain bytes{.min = 1, .max = 1u << 20};
/** Miss slots: the fill table's free mask is 32 bits. */
constexpr ConfigDomain mshr{.min = 1, .max = 32};

/**
 * The field table: every key, its field and the values it accepts.
 * Visitor contract: field(key, ref, domain) for each value category
 * (bool, u32, u64, string, enum); bool and enum keys take no domain
 * beyond their spellings.  Key order here defines nothing — the
 * ConfigFile dump sorts canonically — but grouping mirrors the
 * struct for review.
 */
template <typename V>
void
visitConfigFields(GpuConfig& c, V&& v)
{
    v.field("global.unifiedShaders", c.unifiedShaders);
    v.field("global.memorySize", c.memorySize,
            {.min = 4u << 20, .max = 256u << 20});

    v.field("clock.gpuMHz", c.clockMHz, {.min = 1, .max = 100000});

    v.field("shader.units", c.numShaders, units);
    v.field("shader.vertexUnits", c.numVertexShaders, units);
    v.field("shader.scheduling", c.scheduling);
    // Whether a pool holds one thread depends on the program, so the
    // Fragment FIFO rejects a smaller one at run time, naming the key.
    v.field("shader.inputsInFlight", c.shaderInputsInFlight,
            {.min = 1, .max = 4096});
    v.field("shader.vertexThreads", c.vertexShaderThreads,
            {.min = 1, .max = 1024});
    v.field("shader.registers", c.shaderRegisters,
            {.min = 1, .max = 16384});
    v.field("shader.vertexRegisters", c.vertexShaderRegisters,
            {.max = 16384});
    v.field("shader.fetchRate", c.shaderFetchRate, {.min = 1, .max = 16});

    v.field("texture.units", c.numTextureUnits, units);
    v.field("texture.cacheKB", c.textureCacheKB,
            {.min = 1, .max = 1024, .relation = textureCacheSplits});
    v.field("texture.cacheWays", c.textureCacheWays,
            {.min = 1, .max = 64, .relation = textureCacheSplits});
    v.field("texture.cacheLine", c.textureCacheLine,
            {.min = 1,
             .max = memMaxTransactionBytes,
             .relation = textureCacheSplits});
    v.field("texture.cachePorts", c.textureCachePorts, rate);
    v.field("texture.cacheMshr", c.textureCacheMshr, mshr);
    v.field("texture.requestQueue", c.textureRequestQueue, queue);

    v.field("rop.units", c.numRops, units);
    v.field("rop.latency", c.ropLatency, latency);
    v.field("rop.zCacheKB", c.zCacheKB,
            {.min = 1, .max = 1024, .relation = zCacheSplits});
    v.field("rop.zCacheWays", c.zCacheWays,
            {.min = 1, .max = 64, .relation = zCacheSplits});
    v.field("rop.zCacheMshr", c.zCacheMshr, mshr);
    v.field("rop.colorCacheKB", c.colorCacheKB,
            {.min = 1, .max = 1024, .relation = colorCacheSplits});
    v.field("rop.colorCacheWays", c.colorCacheWays,
            {.min = 1, .max = 64, .relation = colorCacheSplits});
    v.field("rop.colorCacheMshr", c.colorCacheMshr, mshr);
    v.field("rop.zCompression", c.zCompression);
    v.field("rop.fastClear", c.fastClear);
    v.field("rop.clearCycles", c.clearCycles, {.max = 1u << 16});
    v.field("rop.doubleRateZ", c.doubleRateZ);
    v.field("rop.colorCompression", c.colorCompression);

    v.field("geometry.streamerQueue", c.streamerQueue, queue);
    v.field("geometry.vertexCacheEntries", c.vertexCacheEntries,
            {.max = 4096});
    v.field("geometry.vertexRequestQueue", c.vertexRequestQueue, queue);
    v.field("geometry.primitiveAssemblyQueue",
            c.primitiveAssemblyQueue, queue);
    v.field("geometry.clipperQueue", c.clipperQueue, queue);
    v.field("geometry.clipperLatency", c.clipperLatency, latency);
    v.field("geometry.trianglesPerCycle", c.trianglesPerCycle, rate);
    v.field("geometry.setupQueue", c.setupQueue, queue);
    v.field("geometry.setupLatency", c.setupLatency, latency);
    v.field("geometry.fragmentGenQueue", c.fragmentGenQueue, queue);
    v.field("geometry.fragmentGen", c.fragmentGen);
    v.field("geometry.tilesPerCycle", c.tilesPerCycle, rate);
    // Even, so no 2x2 quad straddles two framebuffer tiles, and no
    // wider than one: HZ splits each generated tile as one 8x8 block.
    v.field("geometry.genTileSize", c.genTileSize,
            {.min = 1, .max = fbTileDim, .multipleOf = 2});

    v.field("hz.enabled", c.hzEnabled);
    v.field("hz.queue", c.hzQueue, queue);
    v.field("hz.tilesPerCycle", c.hzTilesPerCycle, rate);

    v.field("interpolator.baseLatency", c.interpolatorBaseLatency,
            {.max = 1024});
    v.field("interpolator.maxLatency", c.interpolatorMaxLatency,
            {.max = 1024});
    v.field("interpolator.quadsPerCycle", c.interpolatorQuadsPerCycle,
            rate);

    v.field("ffifo.queue", c.fragmentFifoQueue, queue);

    v.field("memory.channels", c.memoryChannels, units);
    v.field("memory.bytesPerCycle", c.channelBytesPerCycle, bytes);
    v.field("memory.burstBytes", c.memoryBurstBytes,
            {.min = 1, .max = memMaxTransactionBytes});
    v.field("memory.interleave", c.channelInterleave, bytes);
    v.field("memory.pageBytes", c.memoryPageBytes, bytes);
    v.field("memory.pageOpenPenalty", c.pageOpenPenalty, {.max = 1024});
    v.field("memory.readWriteTurnaround", c.readWriteTurnaround,
            {.max = 1024});
    // The Streamer issues a vertex's fetches (one per enabled
    // stream, up to 8) in one cycle, so fewer credits deadlock it.
    v.field("memory.requestQueue", c.memoryRequestQueue,
            {.min = 8, .max = 4096});
    v.field("memory.systemBusBytesPerCycle", c.systemBusBytesPerCycle,
            bytes);
    v.field("memory.memModel", c.memModel);
    v.field("memory.dramScheduler", c.dramScheduler);
    v.field("memory.dramTiming", c.dramTiming,
            {.relation = dramTimingParses});
    v.field("memory.frfcfsCap", c.frfcfsCap, {.max = 1u << 16});
    v.field("memory.frfcfsWindow", c.frfcfsWindow, queue);

    v.field("engine.scheduler", c.scheduler);
    v.field("engine.threads", c.schedulerThreads, {.max = 64});
    v.field("engine.workSteal", c.schedWorkSteal);
    v.field("engine.partitionSlack", c.schedPartitionSlack,
            {.min = 100, .max = 1000});
    v.field("engine.idleSkip", c.idleSkip);
    v.field("engine.drainPollInterval", c.drainPollInterval,
            {.min = 1, .max = 1u << 16});

    v.field("stats.window", c.statsWindow, {.min = 1, .max = 1ull << 32});
    v.field("stats.eventTrace", c.eventTrace);
}

/** u32 and u64 fields: the ones a domain's range applies to. */
template <typename T>
constexpr bool isInteger = std::is_same_v<T, u32> || std::is_same_v<T, u64>;

/** Loader: overlays a ConfigFile's assignments onto the fields. */
struct Loader
{
    const sim::ConfigFile& cfg;

    template <typename T>
    void
    field(const char* key, T& ref, const ConfigDomain& = {})
    {
        if constexpr (std::is_same_v<T, bool>) {
            ref = cfg.getBool(key, ref);
        } else if constexpr (std::is_same_v<T, u32>) {
            ref = cfg.getU32(key, ref);
        } else if constexpr (std::is_same_v<T, u64>) {
            ref = cfg.getU64(key, ref);
        } else if constexpr (std::is_same_v<T, std::string>) {
            ref = cfg.getString(key, ref);
        } else {
            const sim::ConfigFile::Entry* e = cfg.find(key);
            if (!e)
                return;
            const auto v = enumFromName<T>(e->value);
            if (!v) {
                throw sim::ConfigError(
                    "config: " + e->origin + ": key '" + key +
                    "': expected " + enumChoices<T>() + ", got '" +
                    e->value + "'");
            }
            ref = *v;
        }
    }
};

/** Dumper: renders every field into a ConfigFile for dump(). */
struct Dumper
{
    sim::ConfigFile& cfg;

    template <typename T>
    void
    field(const char* key, T& ref, const ConfigDomain& = {})
    {
        if constexpr (std::is_same_v<T, bool>)
            cfg.set(key, ref ? "true" : "false", "default");
        else if constexpr (isInteger<T>)
            cfg.set(key, std::to_string(ref), "default");
        else if constexpr (std::is_same_v<T, std::string>)
            cfg.set(key, ref, "default");
        else
            cfg.set(key, enumName(ref), "default");
    }
};

/** Why @p value lies outside @p d's range, or "" when it does not. */
std::string
rangeError(u64 value, const ConfigDomain& d)
{
    if (value < d.min)
        return "must be at least " + std::to_string(d.min);
    if (value > d.max)
        return "must be at most " + std::to_string(d.max);
    if (value % d.multipleOf != 0)
        return "must be a multiple of " + std::to_string(d.multipleOf);
    return {};
}

/**
 * Checker: throws ConfigError for the first key outside its domain.
 * With a ConfigFile it checks the keys that layer set and names the
 * place each was set; without one it checks every key, "set in
 * code".
 */
struct Checker
{
    const GpuConfig& c;
    const sim::ConfigFile* cfg;

    template <typename T>
    void
    field(const char* key, T& ref, const ConfigDomain& d = {})
    {
        const sim::ConfigFile::Entry* e = cfg ? cfg->find(key) : nullptr;
        if (cfg && !e)
            return;
        std::string why;
        if constexpr (isInteger<T>)
            why = rangeError(ref, d);
        if (why.empty() && d.relation)
            why = d.relation(c);
        if (!why.empty()) {
            throw sim::ConfigError(
                "config: " + (e ? e->origin : "set in code") +
                ": key '" + key + "': " + why);
        }
    }
};

/** Schema: lists every key with its domain. */
struct Schema
{
    std::vector<ConfigKey>& keys;

    template <typename T>
    void
    field(const char* key, T&, const ConfigDomain& d = {})
    {
        keys.push_back({key, isInteger<T>, d});
    }
};

void
applyConfig(GpuConfig& c, const sim::ConfigFile& cfg)
{
    visitConfigFields(c, Loader{cfg});
    visitConfigFields(c, Checker{c, &cfg});
    cfg.failOnUnconsumed("GpuConfig");
}

} // anonymous namespace

GpuConfig
GpuConfig::fromFile(const std::string& path)
{
    GpuConfig c = baseline();
    c.applyFile(path);
    return c;
}

GpuConfig
GpuConfig::fromConfigText(const std::string& text,
                          const std::string& name)
{
    GpuConfig c = baseline();
    c.applyText(text, name);
    return c;
}

void
GpuConfig::applyFile(const std::string& path)
{
    sim::ConfigFile cfg;
    cfg.parseFile(path);
    applyConfig(*this, cfg);
}

void
GpuConfig::applyText(const std::string& text,
                     const std::string& name)
{
    sim::ConfigFile cfg;
    cfg.parseString(text, name);
    applyConfig(*this, cfg);
}

void
GpuConfig::applySet(const std::string& assignments,
                    const std::string& origin)
{
    applySets({{assignments, origin}});
}

void
GpuConfig::applySets(const std::vector<SetEntry>& layer)
{
    sim::ConfigFile cfg;
    for (const SetEntry& entry : layer) {
        for (const std::string& one :
             sim::ConfigFile::splitAssignments(entry.assignments))
            cfg.setOverride(one, entry.origin);
    }
    applyConfig(*this, cfg);
}

void
GpuConfig::applyEnvOverrides()
{
    // Only the two config variables are read.  Any other ATTILA_*
    // variable is a leftover knob whose value would otherwise be
    // silently ignored.
    for (char** env = environ; *env; ++env) {
        const std::string entry(*env);
        const std::string name = entry.substr(0, entry.find('='));
        if (name.rfind("ATTILA_", 0) == 0 && name != "ATTILA_CONFIG" &&
            name != "ATTILA_CONFIG_SET") {
            throw sim::ConfigError(
                "config: environment variable " + name +
                " is not supported; set options through "
                "ATTILA_CONFIG_SET=section.key=value (or a file named "
                "by ATTILA_CONFIG)");
        }
    }
    if (const char* env = std::getenv("ATTILA_CONFIG")) {
        if (*env)
            applyFile(env);
    }
    if (const char* env = std::getenv("ATTILA_CONFIG_SET"))
        applySet(env, "ATTILA_CONFIG_SET");
    envApplied = true;
}

std::string
GpuConfig::toConfigText() const
{
    sim::ConfigFile cfg;
    // The dumper only reads; the const_cast keeps visitConfigFields
    // single-sourced for both directions.
    visitConfigFields(const_cast<GpuConfig&>(*this), Dumper{cfg});
    return cfg.dump();
}

void
GpuConfig::toFile(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        throw sim::ConfigError("config: cannot write '" + path +
                               "'");
    }
    out << toConfigText();
}

void
GpuConfig::validate() const
{
    // The checker only reads (see toConfigText()).
    visitConfigFields(const_cast<GpuConfig&>(*this),
                      Checker{*this, nullptr});
}

std::vector<ConfigKey>
GpuConfig::schema()
{
    std::vector<ConfigKey> keys;
    GpuConfig c;
    visitConfigFields(c, Schema{keys});
    return keys;
}

u64
GpuConfig::configHash() const
{
    const std::string text = toConfigText();
    u64 h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace attila::gpu
