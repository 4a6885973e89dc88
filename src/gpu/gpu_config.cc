/**
 * @file
 * GpuConfig text-configuration plumbing: the field table binding
 * every parameter to its "section.key" name, the layered
 * file/env/--set application, the canonical dump and the
 * gpgpu-sim-style composite string parsers (cache geometry, DRAM
 * timing validation).
 *
 * One visitor template walks the field table in both directions, so
 * a parameter added to visitConfigFields() is automatically loaded,
 * dumped, hashed, diffed and covered by the round-trip test.
 */

#include "gpu/gpu_config.hh"

#include <bit>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "gpu/dram_timing.hh"
#include "sim/config_file.hh"

namespace attila::gpu
{

namespace
{

/**
 * The field table.  Visitor contract: one field() overload per value
 * category (bool, u32, u64, string, enum).  Key order here defines
 * nothing — the ConfigFile dump sorts canonically — but grouping
 * mirrors the struct for review.
 */
template <typename V>
void
visitConfigFields(GpuConfig& c, V&& v)
{
    v.field("global.unifiedShaders", c.unifiedShaders);
    v.field("global.memorySize", c.memorySize);

    v.field("clock.gpuMHz", c.clockMHz);

    v.field("shader.units", c.numShaders);
    v.field("shader.vertexUnits", c.numVertexShaders);
    v.field("shader.scheduling", c.scheduling);
    v.field("shader.inputsInFlight", c.shaderInputsInFlight);
    v.field("shader.vertexThreads", c.vertexShaderThreads);
    v.field("shader.registers", c.shaderRegisters);
    v.field("shader.vertexRegisters", c.vertexShaderRegisters);
    v.field("shader.fetchRate", c.shaderFetchRate);

    v.field("texture.units", c.numTextureUnits);
    v.field("texture.cacheKB", c.textureCacheKB);
    v.field("texture.cacheWays", c.textureCacheWays);
    v.field("texture.cacheLine", c.textureCacheLine);
    v.field("texture.cachePorts", c.textureCachePorts);
    v.field("texture.cacheMshr", c.textureCacheMshr);
    v.field("texture.requestQueue", c.textureRequestQueue);

    v.field("rop.units", c.numRops);
    v.field("rop.latency", c.ropLatency);
    v.field("rop.zCacheKB", c.zCacheKB);
    v.field("rop.zCacheWays", c.zCacheWays);
    v.field("rop.zCacheLine", c.zCacheLine);
    v.field("rop.zCacheMshr", c.zCacheMshr);
    v.field("rop.colorCacheKB", c.colorCacheKB);
    v.field("rop.colorCacheWays", c.colorCacheWays);
    v.field("rop.colorCacheLine", c.colorCacheLine);
    v.field("rop.colorCacheMshr", c.colorCacheMshr);
    v.field("rop.zCompression", c.zCompression);
    v.field("rop.fastClear", c.fastClear);
    v.field("rop.clearCycles", c.clearCycles);
    v.field("rop.doubleRateZ", c.doubleRateZ);
    v.field("rop.colorCompression", c.colorCompression);

    v.field("geometry.streamerQueue", c.streamerQueue);
    v.field("geometry.vertexCacheEntries", c.vertexCacheEntries);
    v.field("geometry.vertexRequestQueue", c.vertexRequestQueue);
    v.field("geometry.primitiveAssemblyQueue",
            c.primitiveAssemblyQueue);
    v.field("geometry.clipperQueue", c.clipperQueue);
    v.field("geometry.clipperLatency", c.clipperLatency);
    v.field("geometry.trianglesPerCycle", c.trianglesPerCycle);
    v.field("geometry.setupQueue", c.setupQueue);
    v.field("geometry.setupLatency", c.setupLatency);
    v.field("geometry.fragmentGenQueue", c.fragmentGenQueue);
    v.field("geometry.fragmentGen", c.fragmentGen);
    v.field("geometry.tilesPerCycle", c.tilesPerCycle);
    v.field("geometry.genTileSize", c.genTileSize);

    v.field("hz.enabled", c.hzEnabled);
    v.field("hz.queue", c.hzQueue);
    v.field("hz.tilesPerCycle", c.hzTilesPerCycle);

    v.field("interpolator.baseLatency", c.interpolatorBaseLatency);
    v.field("interpolator.maxLatency", c.interpolatorMaxLatency);
    v.field("interpolator.quadsPerCycle",
            c.interpolatorQuadsPerCycle);

    v.field("ffifo.queue", c.fragmentFifoQueue);

    v.field("memory.channels", c.memoryChannels);
    v.field("memory.bytesPerCycle", c.channelBytesPerCycle);
    v.field("memory.burstBytes", c.memoryBurstBytes);
    v.field("memory.interleave", c.channelInterleave);
    v.field("memory.pageBytes", c.memoryPageBytes);
    v.field("memory.pageOpenPenalty", c.pageOpenPenalty);
    v.field("memory.readWriteTurnaround", c.readWriteTurnaround);
    v.field("memory.requestQueue", c.memoryRequestQueue);
    v.field("memory.systemBusBytesPerCycle",
            c.systemBusBytesPerCycle);
    v.field("memory.memModel", c.memModel);
    v.field("memory.dramScheduler", c.dramScheduler);
    v.field("memory.dramTiming", c.dramTiming);
    v.field("memory.frfcfsCap", c.frfcfsCap);
    v.field("memory.frfcfsWindow", c.frfcfsWindow);

    v.field("engine.scheduler", c.scheduler);
    v.field("engine.threads", c.schedulerThreads);
    v.field("engine.workSteal", c.schedWorkSteal);
    v.field("engine.partitionSlack", c.schedPartitionSlack);
    v.field("engine.idleSkip", c.idleSkip);
    v.field("engine.drainPollInterval", c.drainPollInterval);

    v.field("stats.window", c.statsWindow);
    v.field("stats.eventTrace", c.eventTrace);
}

/** Loader: overlays a ConfigFile's assignments onto the fields. */
struct Loader
{
    const sim::ConfigFile& cfg;

    void
    field(const char* key, bool& ref)
    {
        ref = cfg.getBool(key, ref);
    }

    void
    field(const char* key, u32& ref)
    {
        ref = cfg.getU32(key, ref);
    }

    void
    field(const char* key, u64& ref)
    {
        ref = cfg.getU64(key, ref);
    }

    void
    field(const char* key, std::string& ref)
    {
        ref = cfg.getString(key, ref);
    }

    template <typename E>
    void
    field(const char* key, E& ref)
    {
        const sim::ConfigFile::Entry* e = cfg.find(key);
        if (!e)
            return;
        if (const auto v = enumFromName<E>(e->value)) {
            ref = *v;
            return;
        }
        throw sim::ConfigError("config: " + e->origin + ": key '" +
                               key + "': expected " +
                               enumChoices<E>() + ", got '" +
                               e->value + "'");
    }
};

/** Dumper: renders every field into a ConfigFile for dump(). */
struct Dumper
{
    sim::ConfigFile& cfg;

    void
    field(const char* key, bool& ref)
    {
        cfg.set(key, ref ? "true" : "false", "default");
    }

    void
    field(const char* key, u32& ref)
    {
        cfg.set(key, std::to_string(ref), "default");
    }

    void
    field(const char* key, u64& ref)
    {
        cfg.set(key, std::to_string(ref), "default");
    }

    void
    field(const char* key, std::string& ref)
    {
        cfg.set(key, ref, "default");
    }

    template <typename E>
    void
    field(const char* key, E& ref)
    {
        cfg.set(key, enumName(ref), "default");
    }
};

/**
 * Expand the input-only composite keys: the gpgpu-sim cache
 * geometry strings set the discrete KB/ways/line/MSHR fields, and
 * the DRAM timing string is validated eagerly so a bad sweep file
 * fails at load, not mid-run.
 */
void
applyCompositeKeys(GpuConfig& c, const sim::ConfigFile& cfg)
{
    struct GeomKey
    {
        const char* key;
        u32* kb;
        u32* ways;
        u32* line;
        u32* mshr;
    };
    const GeomKey geoms[] = {
        {"texture.cacheGeometry", &c.textureCacheKB,
         &c.textureCacheWays, &c.textureCacheLine,
         &c.textureCacheMshr},
        {"rop.zCacheGeometry", &c.zCacheKB, &c.zCacheWays,
         &c.zCacheLine, &c.zCacheMshr},
        {"rop.colorCacheGeometry", &c.colorCacheKB, &c.colorCacheWays,
         &c.colorCacheLine, &c.colorCacheMshr},
    };
    for (const GeomKey& g : geoms) {
        const sim::ConfigFile::Entry* e = cfg.find(g.key);
        if (!e)
            continue;
        const CacheGeometry geom = CacheGeometry::parse(e->value);
        *g.kb = geom.sizeKB();
        *g.ways = geom.ways;
        *g.line = geom.lineBytes;
        *g.mshr = geom.mshr;
    }
    // Validation only; the string itself is the stored form.
    (void)DramTiming::parse(c.dramTiming);
}

/**
 * Reject 0 for the queue and window sizes that the model divides by
 * or can never make progress without: a zero-slot Streamer ring, an
 * empty fetch, shader or texture window stalls the pipeline forever.
 */
void
checkNonZeroKeys(const GpuConfig& c, const sim::ConfigFile& cfg)
{
    const std::pair<const char*, u32> keys[] = {
        {"geometry.streamerQueue", c.streamerQueue},
        {"geometry.vertexRequestQueue", c.vertexRequestQueue},
        {"shader.inputsInFlight", c.shaderInputsInFlight},
        {"shader.registers", c.shaderRegisters},
        {"texture.requestQueue", c.textureRequestQueue},
    };
    for (const auto& [key, value] : keys) {
        const sim::ConfigFile::Entry* e = cfg.find(key);
        if (e && value == 0) {
            throw sim::ConfigError("config: " + e->origin + ": key '" +
                                   key + "': must be at least 1");
        }
    }
}

void
applyConfig(GpuConfig& c, const sim::ConfigFile& cfg)
{
    visitConfigFields(c, Loader{cfg});
    checkNonZeroKeys(c, cfg);
    applyCompositeKeys(c, cfg);
    cfg.failOnUnconsumed("GpuConfig");
}

} // anonymous namespace

CacheGeometry
CacheGeometry::parse(const std::string& spec)
{
    const auto bad = [&spec](const std::string& msg) -> void {
        throw sim::ConfigError("config: cache geometry '" + spec +
                               "': " + msg);
    };
    CacheGeometry g;
    const std::size_t comma = spec.find(',');
    const std::string geom = spec.substr(0, comma);

    u32 parts[3] = {0, 0, 0};
    std::istringstream in(geom);
    std::string token;
    int n = 0;
    while (std::getline(in, token, ':')) {
        if (n >= 3)
            bad("expected <sets>:<bsize>:<assoc>");
        std::size_t pos = 0;
        u64 v = 0;
        bool ok = !token.empty();
        if (ok) {
            try {
                v = std::stoull(token, &pos, 10);
            } catch (const std::exception&) {
                ok = false;
            }
        }
        if (!ok || pos != token.size() || v == 0 || v > ~u32{0})
            bad("bad value '" + token + "'");
        parts[n++] = static_cast<u32>(v);
    }
    if (n != 3)
        bad("expected <sets>:<bsize>:<assoc>");
    g.sets = parts[0];
    g.lineBytes = parts[1];
    g.ways = parts[2];
    if (!std::has_single_bit(g.sets))
        bad("sets must be a power of two, got " +
            std::to_string(g.sets));
    if (!std::has_single_bit(g.lineBytes))
        bad("bsize must be a power of two, got " +
            std::to_string(g.lineBytes));

    if (comma != std::string::npos) {
        const std::string mshr = spec.substr(comma + 1);
        const std::size_t colon = mshr.find(':');
        if (colon == std::string::npos)
            bad("expected ,<mshr type>:<N> after geometry");
        const std::string type = mshr.substr(0, colon);
        const std::string count = mshr.substr(colon + 1);
        if (type.size() != 1 ||
            !std::isalpha(static_cast<unsigned char>(type[0])))
            bad("bad MSHR type '" + type + "'");
        std::size_t pos = 0;
        u64 v = 0;
        bool ok = !count.empty();
        if (ok) {
            try {
                v = std::stoull(count, &pos, 10);
            } catch (const std::exception&) {
                ok = false;
            }
        }
        if (!ok || pos != count.size() || v == 0 || v > 32)
            bad("bad MSHR count '" + count +
                "' (expected 1..32 — the fill table free mask is "
                "32 bits)");
        g.mshr = static_cast<u32>(v);
    }
    return g;
}

std::string
CacheGeometry::format() const
{
    std::ostringstream out;
    out << sets << ":" << lineBytes << ":" << ways << ",A:" << mshr;
    return out.str();
}

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
GpuConfig::applySet(const std::string& assignment,
                    const std::string& origin)
{
    sim::ConfigFile cfg;
    cfg.setOverride(assignment, origin);
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
    if (const char* env = std::getenv("ATTILA_CONFIG_SET")) {
        for (const std::string& one :
             sim::ConfigFile::splitAssignments(env))
            applySet(one, "ATTILA_CONFIG_SET");
    }
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
