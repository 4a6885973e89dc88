/**
 * @file
 * Tests for the text-configuration layer: the ConfigFile parser, the
 * GpuConfig round-trip, layered overrides and the shipped example
 * configs.  tests/test_config_domains.cc covers the key domains.
 */

#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <vector>

#include "gpu/gpu.hh"
#include "gpu/gpu_config.hh"
#include "sim/config_file.hh"

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

} // anonymous namespace

// ===== ConfigFile =================================================

TEST(ConfigFile, ParsesSectionsCommentsAndTypes)
{
    sim::ConfigFile cfg;
    cfg.parseString("# leading comment\n"
                    "[alpha]\n"
                    "count = 42   ; trailing comment\n"
                    "flag = true\n"
                    "name = hello\n"
                    "\n"
                    "[beta]\n"
                    "big = 0x10\n",
                    "test.cfg");
    EXPECT_EQ(cfg.getU32("alpha.count", 0), 42u);
    EXPECT_TRUE(cfg.getBool("alpha.flag", false));
    EXPECT_EQ(cfg.getString("alpha.name"), "hello");
    EXPECT_EQ(cfg.getU64("beta.big", 0), 16u); // Base-0 parsing.
    EXPECT_FALSE(cfg.has("beta.absent"));
    EXPECT_EQ(cfg.getU32("beta.absent", 7), 7u); // Default flows.
}

TEST(ConfigFile, DiagnosticsCarryFileAndLine)
{
    sim::ConfigFile cfg;
    const std::string msg = errorOf([&] {
        cfg.parseString("[memory]\nchannels == 4\n", "bad.cfg");
        cfg.getU32("memory.channels", 0);
    });
    EXPECT_NE(msg.find("bad.cfg:2"), std::string::npos) << msg;
}

TEST(ConfigFile, BadValueNamesKeyAndOrigin)
{
    sim::ConfigFile cfg;
    cfg.parseString("[memory]\nchannels = lots\n", "sweep.cfg");
    const std::string msg =
        errorOf([&] { cfg.getU32("memory.channels", 0); });
    EXPECT_NE(msg.find("sweep.cfg:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("memory.channels"), std::string::npos) << msg;
}

TEST(ConfigFile, UnknownKeysAreFatalWithOrigin)
{
    sim::ConfigFile cfg;
    cfg.parseString("[memory]\nchannels = 4\nchanels = 8\n",
                    "typo.cfg");
    cfg.getU32("memory.channels", 0);
    const std::string msg =
        errorOf([&] { cfg.failOnUnconsumed("GpuConfig"); });
    EXPECT_NE(msg.find("typo.cfg:3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("memory.chanels"), std::string::npos) << msg;
    // The consumed key is not reported.
    EXPECT_EQ(msg.find("'memory.channels'"), std::string::npos)
        << msg;
}

TEST(ConfigFile, LayeringLaterWins)
{
    sim::ConfigFile cfg;
    cfg.parseString("[engine]\nthreads = 2\n", "base.cfg");
    cfg.setOverride("engine.threads=8", "--set");
    EXPECT_EQ(cfg.getU32("engine.threads", 0), 8u);
}

TEST(ConfigFile, DumpRoundTrips)
{
    sim::ConfigFile cfg;
    cfg.parseString("[b]\ny = 2\n[a]\nx = 1\nz = hello\n", "in.cfg");
    const std::string text = cfg.dump();
    sim::ConfigFile again;
    again.parseString(text, "again.cfg");
    EXPECT_EQ(again.dump(), text);
    EXPECT_EQ(again.getU32("a.x", 0), 1u);
    EXPECT_EQ(again.getU32("b.y", 0), 2u);
}

// ===== GpuConfig round-trip =======================================

TEST(GpuConfigText, RoundTripReproducesBaseline)
{
    const GpuConfig base = GpuConfig::baseline();
    const GpuConfig again =
        GpuConfig::fromConfigText(base.toConfigText());
    EXPECT_EQ(again, base);
    EXPECT_EQ(again.configHash(), base.configHash());
}

TEST(GpuConfigText, RoundTripReproducesModifiedConfigs)
{
    GpuConfig c =
        GpuConfig::caseStudy(ShaderScheduling::InOrderQueue, 3);
    c.memModel = MemModel::Banked;
    c.dramScheduler = DramSchedPolicy::FrFcfs;
    c.dramTiming = "nbk=4:RCD=9:CL=7";
    c.fragmentGen = FragmentGenKind::Scanline;
    c.scheduler = SchedulerKind::Parallel;
    c.statsWindow = 1234567;
    const GpuConfig again =
        GpuConfig::fromConfigText(c.toConfigText());
    EXPECT_EQ(again, c);
    EXPECT_NE(c.configHash(), GpuConfig::baseline().configHash());
}

TEST(GpuConfigText, FileRoundTrip)
{
    GpuConfig c = GpuConfig::embedded();
    const std::string path =
        ::testing::TempDir() + "attila_roundtrip.cfg";
    c.toFile(path);
    EXPECT_EQ(GpuConfig::fromFile(path), c);
    std::remove(path.c_str());
}

TEST(GpuConfigText, PartialOverlayKeepsOtherFields)
{
    GpuConfig c = GpuConfig::baseline();
    c.applyText("[memory]\nmemModel = banked\n"
                "dramScheduler = frfcfs\n");
    EXPECT_EQ(c.memModel, MemModel::Banked);
    EXPECT_EQ(c.dramScheduler, DramSchedPolicy::FrFcfs);
    // Everything else still at baseline.
    GpuConfig expect = GpuConfig::baseline();
    expect.memModel = MemModel::Banked;
    expect.dramScheduler = DramSchedPolicy::FrFcfs;
    EXPECT_EQ(c, expect);
}

TEST(GpuConfigText, ClockSectionLoadsAndRoundTrips)
{
    // The GPU clock rate is a real config key: loadable from the
    // [clock] section, preserved by the canonical dump, and
    // distinguishing in the config hash.
    GpuConfig c = GpuConfig::baseline();
    c.applyText("[clock]\ngpuMHz = 500\n");
    EXPECT_EQ(c.clockMHz, 500u);

    const std::string dump = c.toConfigText();
    EXPECT_NE(dump.find("gpuMHz = 500"), std::string::npos) << dump;
    const GpuConfig again = GpuConfig::fromConfigText(dump);
    EXPECT_EQ(again, c);
    EXPECT_NE(c.configHash(), GpuConfig::baseline().configHash());

    // Scheduler knobs ride the same [engine] section.
    c.applySet("engine.workSteal=false");
    c.applySet("engine.partitionSlack=150");
    EXPECT_FALSE(c.schedWorkSteal);
    EXPECT_EQ(c.schedPartitionSlack, 150u);
    EXPECT_EQ(GpuConfig::fromConfigText(c.toConfigText()), c);
}

TEST(GpuConfigText, UnknownKeyIsFatal)
{
    GpuConfig c = GpuConfig::baseline();
    const std::string msg = errorOf([&] {
        c.applyText("[memory]\nchanels = 8\n", "typo.cfg");
    });
    EXPECT_NE(msg.find("typo.cfg:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown GpuConfig key"), std::string::npos)
        << msg;
}

TEST(GpuConfigText, BadEnumListsChoices)
{
    GpuConfig c = GpuConfig::baseline();
    const std::string msg = errorOf([&] {
        c.applyText("[memory]\ndramScheduler = lifo\n", "bad.cfg");
    });
    EXPECT_NE(msg.find("fifo|frfcfs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bad.cfg:2"), std::string::npos) << msg;
}

TEST(GpuConfigText, BadDramTimingFailsAtLoad)
{
    GpuConfig c = GpuConfig::baseline();
    EXPECT_THROW(
        c.applyText("[memory]\ndramTiming = nbk=8:BOGUS=3\n"),
        sim::ConfigError);
    // nbk must be a nonzero power of two.
    EXPECT_THROW(c.applyText("[memory]\ndramTiming = nbk=6\n"),
                 sim::ConfigError);
}

TEST(GpuConfigText, ZeroQueueSizesAreRejectedWithKeyAndOrigin)
{
    // A zero-slot queue or window would stall the pipeline forever
    // (or divide by zero indexing the Streamer's ring).
    // Zero unit counts, rates and sizes crash with SIGFPE or hang.
    // A zero signal bandwidth, latency or queue size must name the
    // key, not the wire the signal layer would reject.
    const char* keys[] = {
        "geometry.streamerQueue", "geometry.vertexRequestQueue",
        "shader.inputsInFlight",  "shader.registers",
        "texture.requestQueue",
        "shader.units", "shader.vertexUnits", "shader.vertexThreads",
        "shader.fetchRate", "texture.units", "texture.cacheLine",
        "texture.cachePorts", "rop.units", "geometry.genTileSize",
        "hz.tilesPerCycle", "memory.channels", "memory.bytesPerCycle",
        "memory.burstBytes", "memory.interleave", "memory.pageBytes",
        "memory.systemBusBytesPerCycle",
        "geometry.primitiveAssemblyQueue",
        "geometry.trianglesPerCycle", "geometry.clipperQueue",
        "geometry.clipperLatency", "geometry.setupQueue",
        "geometry.setupLatency", "geometry.fragmentGenQueue",
        "geometry.tilesPerCycle", "hz.queue",
        "interpolator.quadsPerCycle", "ffifo.queue", "rop.latency",
        "memory.requestQueue",
    };
    // The smallest value each key admits is 1, except for these.
    const std::map<std::string, u32> least = {
        // Even, so no quad straddles two framebuffer tiles.
        {"geometry.genTileSize", 2},
        // One credit per stream the Streamer fetches in a cycle.
        {"memory.requestQueue", 8},
    };
    for (const char* key : keys) {
        const std::string k(key);
        const auto it = least.find(k);
        const u32 lo = it == least.end() ? 1 : it->second;
        const std::string atLeast =
            k == "memory.requestQueue" ? "at least 8" : "at least 1";
        GpuConfig c = GpuConfig::baseline();
        std::string msg = errorOf(
            [&] { c.applySet(k + "=0", "--set"); });
        EXPECT_NE(msg.find("'" + k + "'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("--set"), std::string::npos) << msg;
        EXPECT_NE(msg.find(atLeast), std::string::npos) << msg;

        const std::size_t dot = k.find('.');
        const std::string text = "[" + k.substr(0, dot) + "]\n" +
                                 k.substr(dot + 1) + " = 0\n";
        msg = errorOf([&] { c.applyText(text, "zero.cfg"); });
        EXPECT_NE(msg.find("zero.cfg:2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'" + k + "'"), std::string::npos) << msg;

        // The smallest admitted value loads; a larger minimum is
        // exact: the value below it fails, naming the key.
        EXPECT_NO_THROW(c.applySet(k + "=" + std::to_string(lo))) << k;
        if (lo > 1) {
            msg = errorOf(
                [&] { c.applySet(k + "=" + std::to_string(lo - 1)); });
            EXPECT_NE(msg.find("'" + k + "'"), std::string::npos) << msg;
        }
    }
}

TEST(GpuConfigText, ApplySetOverridesSingleKey)
{
    GpuConfig c = GpuConfig::baseline();
    c.applySet("engine.scheduler=parallel");
    c.applySet("memory.frfcfsCap=7");
    EXPECT_EQ(c.scheduler, SchedulerKind::Parallel);
    EXPECT_EQ(c.frfcfsCap, 7u);
    EXPECT_THROW(c.applySet("memory.noSuchKey=1"),
                 sim::ConfigError);
    EXPECT_THROW(c.applySet("missingEquals"), sim::ConfigError);
}

TEST(GpuConfigText, EnvLayerSitsBetweenFileAndSet)
{
    // file sets 2 threads, env overrides to 3, --set wins with 4.
    // Clear the environment a CI job may have exported for the whole
    // suite so it can't skew this test.
    unsetenv("ATTILA_CONFIG");
    unsetenv("ATTILA_CONFIG_SET");
    GpuConfig c = GpuConfig::baseline();
    c.applyText("[engine]\nthreads = 2\n");
    ASSERT_EQ(setenv("ATTILA_CONFIG_SET", "engine.threads=3", 1), 0);
    c.applyEnvOverrides();
    EXPECT_EQ(c.schedulerThreads, 3u);
    EXPECT_TRUE(c.envApplied);
    c.applySet("engine.threads=4");
    EXPECT_EQ(c.schedulerThreads, 4u);

    // A Gpu built in code picks the environment up, and every model
    // part reads the resolved value: the statistics windows too.
    ASSERT_EQ(setenv("ATTILA_CONFIG_SET", "stats.window=777", 1), 0);
    GpuConfig code = GpuConfig::baseline();
    code.memorySize = 4u << 20;
    Gpu gpu(code);
    unsetenv("ATTILA_CONFIG_SET");
    EXPECT_EQ(gpu.config().statsWindow, 777u);
    EXPECT_EQ(gpu.stats().window(), 777u);
}

TEST(GpuConfigText, ConfigSetEnvSplitsCommasOnlyBeforeKeys)
{
    // ';' always separates; a comma only where another section.key=
    // begins, so a value's own comma stays in it.
    const std::vector<std::string> split =
        sim::ConfigFile::splitAssignments("a.x=1,2;b.y=3, c.z = 4,");
    ASSERT_EQ(split.size(), 3u);
    EXPECT_EQ(split[0], "a.x=1,2");
    EXPECT_EQ(split[1], "b.y=3");

    unsetenv("ATTILA_CONFIG");
    const char* list = "engine.threads=3,memory.dramTiming=nbk=4:CL=7;"
                       "rop.zCacheMshr=2, memory.frfcfsCap = 9,";
    ASSERT_EQ(setenv("ATTILA_CONFIG_SET", list, 1), 0);
    GpuConfig fromEnv = GpuConfig::baseline();
    fromEnv.applyEnvOverrides();
    unsetenv("ATTILA_CONFIG_SET");

    GpuConfig fromSet = GpuConfig::baseline();
    fromSet.applySet("engine.threads=3");
    fromSet.applySet("memory.dramTiming=nbk=4:CL=7");
    fromSet.applySet("rop.zCacheMshr=2");
    fromSet.applySet("memory.frfcfsCap=9");
    fromSet.envApplied = true;
    EXPECT_EQ(fromEnv, fromSet);
    EXPECT_EQ(fromEnv.zCacheMshr, 2u);
    EXPECT_NE(fromEnv.configHash(), GpuConfig::baseline().configHash());
}

TEST(GpuConfigText, RetiredEnvVarsFailLoudly)
{
    unsetenv("ATTILA_CONFIG");
    unsetenv("ATTILA_CONFIG_SET");
    for (const char* name :
         {"ATTILA_SCHEDULER", "ATTILA_SCHED_THREADS", "ATTILA_WORK_STEAL",
          "ATTILA_IDLE_SKIP", "ATTILA_EVENT_TRACE", "ATTILA_EMU_FASTPATH",
          "ATTILA_MEM_FASTPATH"}) {
        ASSERT_EQ(setenv(name, "1", 1), 0);
        GpuConfig c = GpuConfig::baseline();
        const std::string msg = errorOf([&] { c.applyEnvOverrides(); });
        unsetenv(name);
        EXPECT_NE(msg.find(name), std::string::npos) << msg;
        EXPECT_NE(msg.find("ATTILA_CONFIG_SET"), std::string::npos)
            << msg;
    }
    // With only the supported variables set, nothing is rejected.
    GpuConfig c = GpuConfig::baseline();
    EXPECT_NO_THROW(c.applyEnvOverrides());
}

TEST(GpuConfigText, RetiredKeysAreUnknownWithLocation)
{
    // Keys the model no longer has (or never acted on) fail like any
    // unknown key, with their file:line, instead of being ignored.
    const std::string retired[] = {
        "engine.emuFastPath", "engine.memFastPath",
        "stats.signalTracePath", "clock.memoryMHz",
        "clock.displayMHz",      "shader.inputsPerCycle",
        "rop.fragmentsPerCycle", "texture.cacheGeometry",
        "rop.zCacheGeometry",    "rop.colorCacheGeometry",
        "rop.zCacheLine",        "rop.colorCacheLine",
    };
    for (const std::string& key : retired) {
        const std::size_t dot = key.find('.');
        const std::string msg = errorOf([&] {
            GpuConfig::fromConfigText("[" + key.substr(0, dot) +
                                          "]\n# retired\n" +
                                          key.substr(dot + 1) + " = 4\n",
                                      "old.cfg");
        });
        EXPECT_NE(msg.find("old.cfg:3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("unknown GpuConfig key '" + key + "'"),
                  std::string::npos)
            << msg;

        const std::string setMsg = errorOf([&] {
            GpuConfig c;
            c.applySet(key + "=4");
        });
        EXPECT_NE(setMsg.find("unknown GpuConfig key '" + key + "'"),
                  std::string::npos)
            << setMsg;
    }
}

TEST(GpuConfigText, ShippedBaselineConfigMatchesCompiledDefaults)
{
    const std::string path = std::string(ATTILA_SOURCE_DIR) +
                             "/examples/configs/baseline_table1.cfg";
    const GpuConfig fromCfg = GpuConfig::fromFile(path);
    EXPECT_EQ(fromCfg, GpuConfig::baseline());
    EXPECT_EQ(fromCfg.configHash(),
              GpuConfig::baseline().configHash());
}

TEST(GpuConfigText, ShippedSweepConfigsAreDistinct)
{
    const std::string dir =
        std::string(ATTILA_SOURCE_DIR) + "/examples/configs/";
    GpuConfig fifo = GpuConfig::baseline();
    fifo.applyFile(dir + "dram_banked_fifo.cfg");
    GpuConfig frfcfs = GpuConfig::baseline();
    frfcfs.applyFile(dir + "dram_banked_frfcfs.cfg");
    EXPECT_EQ(fifo.memModel, MemModel::Banked);
    EXPECT_EQ(frfcfs.memModel, MemModel::Banked);
    EXPECT_EQ(fifo.dramScheduler, DramSchedPolicy::Fifo);
    EXPECT_EQ(frfcfs.dramScheduler, DramSchedPolicy::FrFcfs);
    EXPECT_NE(fifo.configHash(), frfcfs.configHash());
    EXPECT_NE(fifo.configHash(), GpuConfig::baseline().configHash());
}
