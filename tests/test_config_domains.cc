/**
 * @file
 * The declared config schema.  Every key of GpuConfig's field table
 * is set, one at a time, to 0, 1, a non-power of two and its
 * declared maximum.  Each value must either be rejected with a
 * ConfigError naming the key, or run the quickstart scene (spinning
 * textured cubes, at a smaller size) to idle within a cycle cap and
 * match the reference renderer.  A panic, any other exception or
 * hitting the cap fails; a signal ends the process and fails the
 * ctest.
 */

#include <bit>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "gpu/ref_renderer.hh"
#include "sim/config_file.hh"
#include "workloads/cubes.hh"

using namespace attila;
using namespace attila::gpu;

namespace
{

/** Run @p f and return the ConfigError message it throws. */
template <typename F>
std::string
errorOf(F&& f)
{
    try {
        f();
    } catch (const sim::ConfigError& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a ConfigError";
    return "";
}

/** The smallest non-power of two inside @p d, or 3 when none is. */
u64
nonPowerOfTwo(const ConfigDomain& d)
{
    u64 v = std::max<u64>(3, d.min);
    v += (d.multipleOf - v % d.multipleOf) % d.multipleOf;
    while (std::has_single_bit(v))
        v += d.multipleOf;
    return v <= d.max ? v : 3;
}

/** The values the sweep sets @p key to. */
std::vector<std::string>
sweepValues(const ConfigKey& key)
{
    std::vector<std::string> values = {"0", "1"};
    if (!key.integer) {
        values.push_back("3");
        return values;
    }
    values.push_back(std::to_string(nonPowerOfTwo(key.domain)));
    values.push_back(std::to_string(key.domain.max));
    return values;
}

/** A frame far longer than the slowest admitted configuration. */
constexpr u64 cycleCap = 20'000'000;

/**
 * Load "key=value" over the baseline; if it loads, render the scene
 * on a Gpu built from it and compare with the reference renderer.
 */
void
checkValue(const std::string& key, const std::string& value)
{
    SCOPED_TRACE(key + "=" + value);
    GpuConfig config = GpuConfig::baseline();
    // The sweep is hermetic: no environment layer on top.
    config.envApplied = true;
    try {
        config.applySet(key + "=" + value, "sweep");
    } catch (const sim::ConfigError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("key '" + key + "'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("sweep"), std::string::npos) << msg;
        return;
    }

    try {
        Gpu gpu(config);
        workloads::WorkloadParams params;
        params.width = 64;
        params.height = 64;
        params.frames = 1;
        params.textureSize = 16;
        params.detail = 2;
        gl::Context ctx(params.width, params.height,
                        gpu.config().memorySize);
        workloads::CubesWorkload scene(params);
        scene.setup(ctx);
        scene.renderFrame(ctx, 0);
        const CommandList list = ctx.takeCommands();

        gpu.submit(list);
        ASSERT_TRUE(gpu.runUntilIdle(cycleCap))
            << "no drain within " << cycleCap << " cycles";
        RefRenderer ref(gpu.config().memorySize);
        ref.execute(list);
        ASSERT_EQ(gpu.frames().size(), 1u);
        ASSERT_EQ(ref.frames().size(), 1u);
        EXPECT_EQ(gpu.frames().back().diffCount(ref.frames().back()),
                  0u);
    } catch (const sim::ConfigError& e) {
        // A run-time rejection (a shader pool too small for the
        // program) must name the key as well.
        const std::string msg = e.what();
        EXPECT_NE(msg.find(key), std::string::npos) << msg;
    } catch (const std::exception& e) {
        ADD_FAILURE() << e.what();
    }
}

} // anonymous namespace

TEST(ConfigDomains, EveryKeyRejectsOrRunsEachSweepValue)
{
    const std::vector<ConfigKey> keys = GpuConfig::schema();
    ASSERT_FALSE(keys.empty());
    for (const ConfigKey& key : keys) {
        for (const std::string& value : sweepValues(key))
            checkValue(key.name, value);
    }
}

TEST(ConfigDomains, BaselineAndPresetsAreInsideEveryDomain)
{
    EXPECT_NO_THROW(GpuConfig::baseline().validate());
    EXPECT_NO_THROW(GpuConfig::embedded().validate());
    for (u32 tus : {1u, 3u}) {
        EXPECT_NO_THROW(
            GpuConfig::caseStudy(ShaderScheduling::InOrderQueue, tus)
                .validate());
    }
}

TEST(ConfigDomains, CodeConfigsAreCheckedAtConstruction)
{
    GpuConfig config = GpuConfig::baseline();
    config.envApplied = true;
    config.genTileSize = 3;
    const std::string msg = errorOf([&] { Gpu gpu(config); });
    EXPECT_NE(msg.find("config: set in code: key "
                       "'geometry.genTileSize': must be a multiple of 2"),
              std::string::npos)
        << msg;
}

TEST(ConfigDomains, RelationNamesTheKeyAndWhereItWasSet)
{
    // 16 KB does not split into 3-way sets of 256-byte lines.
    GpuConfig c = GpuConfig::baseline();
    const std::string msg = errorOf([&] {
        c.applyText("[rop]\n\nzCacheWays = 3\n", "geom.cfg");
    });
    EXPECT_NE(msg.find("config: geom.cfg:3: key 'rop.zCacheWays': 16 "
                       "KB does not split into 3-way sets of "
                       "256-byte lines"),
              std::string::npos)
        << msg;

    // A line that no memory transaction can carry.
    EXPECT_NE(errorOf([] {
                  GpuConfig g;
                  g.applySet("texture.cacheLine=512");
              }).find("key 'texture.cacheLine': must be at most 256"),
              std::string::npos);

    // The DRAM timing string parses at load.
    EXPECT_NE(errorOf([] {
                  GpuConfig g;
                  g.applySet("memory.dramTiming=nbk=6");
              }).find("key 'memory.dramTiming': dram timing 'nbk=6'"),
              std::string::npos);
}

TEST(ConfigDomains, OneLayerChecksRelationsOnItsFinalValues)
{
    // 12 KB splits into 3-way sets of 256-byte lines but 16 KB does
    // not: the pair loads as one layer, while the ways alone are
    // rejected.
    GpuConfig alone = GpuConfig::baseline();
    EXPECT_THROW(alone.applySet("texture.cacheWays=3"),
                 sim::ConfigError);

    GpuConfig file = GpuConfig::baseline();
    file.applyText("[texture]\ncacheWays = 3\ncacheKB = 12\n");
    EXPECT_EQ(file.textureCacheWays, 3u);
    EXPECT_NO_THROW(file.validate());

    GpuConfig set = GpuConfig::baseline();
    set.applySet("texture.cacheWays=3;texture.cacheKB=12");
    EXPECT_EQ(set, file);

    unsetenv("ATTILA_CONFIG");
    ASSERT_EQ(setenv("ATTILA_CONFIG_SET",
                     "texture.cacheWays=3;texture.cacheKB=12", 1),
              0);
    GpuConfig env = GpuConfig::baseline();
    env.applyEnvOverrides();
    unsetenv("ATTILA_CONFIG_SET");
    env.envApplied = false;
    EXPECT_EQ(env, file);
}
