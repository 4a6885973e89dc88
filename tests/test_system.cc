/**
 * @file
 * System-level tests: the statistics CSV output and the event trace
 * of a whole-GPU run, hot start on the timing simulator, and failure
 * injection (the model's verification checks must fire loudly).
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <gtest/gtest.h>
#include <sstream>

#include "gl/context.hh"
#include "gl/trace.hh"
#include "gpu/gpu.hh"
#include "sim/event_trace.hh"
#include "workloads/cubes.hh"
#include "workloads/shadows.hh"

using namespace attila;

namespace
{

workloads::WorkloadParams
tinyParams(u32 frames = 1)
{
    workloads::WorkloadParams params;
    params.width = 64;
    params.height = 64;
    params.frames = frames;
    params.textureSize = 16;
    params.detail = 2;
    return params;
}

gpu::CommandList
record(workloads::Workload& workload, gl::TraceRecorder* recorder,
       const workloads::WorkloadParams& params)
{
    gl::Context ctx(params.width, params.height, 16u << 20);
    if (recorder)
        ctx.setRecorder(recorder);
    workload.setup(ctx);
    for (u32 f = 0; f < params.frames; ++f)
        workload.renderFrame(ctx, f);
    return ctx.takeCommands();
}

} // anonymous namespace

TEST(System, StatisticsCsvFromFullRun)
{
    auto params = tinyParams();
    workloads::CubesWorkload scene(params);
    const auto commands = record(scene, nullptr, params);

    gpu::GpuConfig config;
    config.memorySize = 16u << 20;
    config.statsWindow = 500; // Several windows per run.
    gpu::Gpu gpu(config);
    gpu.submit(commands);
    ASSERT_TRUE(gpu.runUntilIdle(50'000'000));

    // The paper reports ~300 statistics; this baseline registers a
    // comparable population (box stats + per-signal traffic, grows
    // with unit counts).
    const auto names = gpu.stats().names();
    EXPECT_GT(names.size(), 200u);

    std::ostringstream csv;
    gpu.stats().writeCsv(csv);
    const std::string text = csv.str();
    // Header + one line per closed window.
    const u64 lines =
        static_cast<u64>(std::count(text.begin(), text.end(), '\n'));
    EXPECT_EQ(lines, gpu.stats().sampleCount() + 1);
    EXPECT_GT(gpu.stats().sampleCount(), 1u);
    // Every row has the same number of columns.
    std::istringstream is(text);
    std::string line;
    std::getline(is, line);
    const u64 columns =
        static_cast<u64>(std::count(line.begin(), line.end(), ','));
    while (std::getline(is, line)) {
        EXPECT_EQ(static_cast<u64>(std::count(line.begin(),
                                              line.end(), ',')),
                  columns);
    }
}

TEST(System, EventTraceFromFullRun)
{
    auto params = tinyParams();
    workloads::CubesWorkload scene(params);
    const auto commands = record(scene, nullptr, params);

    gpu::GpuConfig config;
    config.memorySize = 16u << 20;
    config.eventTrace = true;
    gpu::Gpu gpu(config);
    gpu.submit(commands);
    ASSERT_TRUE(gpu.runUntilIdle(50'000'000));
    const sim::EventTraceData trace =
        gpu.simulator().finishEventTrace();

    // Per-signal SignalWrite counts, plus whether any fragment tile
    // still points back at its triangle through the parent cookie.
    std::map<std::string, u64> writes;
    bool foundLineage = false;
    u64 records = 0;
    for (const sim::TraceEvent& e : trace.events) {
        if (e.kind != static_cast<u16>(sim::EventKind::SignalWrite))
            continue;
        ++records;
        const std::string& name = trace.signals[e.unit];
        ++writes[name];
        if (name == "fgen.hz" && e.parent != sim::kNoTraceId)
            foundLineage = true;
    }
    EXPECT_GT(records, 100u);
    // The vertex path must show activity.
    EXPECT_GT(writes["streamer.assembly"], 0u);
    EXPECT_TRUE(foundLineage);
}

TEST(System, HotStartMatchesFullRunOnSimulator)
{
    // Frames are independent (every frame clears its buffers), so a
    // hot start at frame N must render frame N identically to the
    // full run — the paper's cluster-distribution use case.
    const std::string path = "test_system_hotstart.tmp";
    auto params = tinyParams(/*frames=*/3);
    workloads::ShadowsWorkload scene(params);
    {
        gl::TraceRecorder recorder(path);
        record(scene, &recorder, params);
    }

    gl::TracePlayer player(path);
    ASSERT_EQ(player.frameCount(), 3u);

    gpu::GpuConfig config;
    config.memorySize = 16u << 20;

    // Full run.
    gpu::FrameImage fullLast;
    {
        gl::Context ctx(params.width, params.height, 16u << 20);
        player.play(ctx);
        gpu::Gpu gpu(config);
        gpu.submit(ctx.takeCommands());
        ASSERT_TRUE(gpu.runUntilIdle(200'000'000));
        ASSERT_EQ(gpu.frames().size(), 3u);
        fullLast = gpu.frames().back();
    }

    // Hot start at the last frame.
    {
        gl::Context ctx(params.width, params.height, 16u << 20);
        player.play(ctx, /*first_frame=*/2);
        gpu::Gpu gpu(config);
        gpu.submit(ctx.takeCommands());
        ASSERT_TRUE(gpu.runUntilIdle(200'000'000));
        ASSERT_EQ(gpu.frames().size(), 1u);
        EXPECT_EQ(gpu.frames()[0].diffCount(fullLast), 0u);
    }
    std::remove(path.c_str());
}

TEST(System, GpuMemoryOutOfRangePanics)
{
    emu::GpuMemory memory(1024);
    u8 buf[16];
    EXPECT_THROW(memory.read(1020, 16, buf), SimError);
    EXPECT_THROW(memory.write(2048, 4, buf), SimError);
    EXPECT_NO_THROW(memory.read(1008, 16, buf));
}

TEST(System, CacheGeometryValidation)
{
    sim::StatisticManager stats;
    // 16KB with 256B lines = 64 lines; 5 ways does not divide.
    EXPECT_THROW(
        gpu::FbCache("bad", gpu::FbCache::Config{16, 5, 256, 4, 4},
                     stats.get("c", "h"), stats.get("c", "m")),
        FatalError);
    EXPECT_THROW(
        gpu::FbCache("bad", gpu::FbCache::Config{0, 4, 256, 4, 4},
                     stats.get("c", "h"), stats.get("c", "m")),
        FatalError);
}

TEST(System, ClockDomainFrequencyValidation)
{
    // The GPU clock rate must be positive (reports divide by it);
    // zero fails at construction.
    gpu::GpuConfig config;
    config.memorySize = 32u << 20;
    config.clockMHz = 600;
    EXPECT_NO_THROW(gpu::Gpu{config});
    config.clockMHz = 0;
    EXPECT_THROW(gpu::Gpu{config}, FatalError);
}

TEST(System, ContextErrorsAreFatal)
{
    gl::Context ctx(32, 32, 4u << 20);
    EXPECT_THROW(ctx.bufferData(999, std::vector<u8>(16)),
                 FatalError);
    EXPECT_THROW(ctx.texImage2D(0, emu::TexFormat::RGBA8, 4, 4,
                                std::vector<u8>(64)),
                 FatalError); // No bound texture.
    EXPECT_THROW(ctx.attribPointer(99, 0,
                                   gpu::StreamFormat::Float4, 0, 0),
                 FatalError);
    EXPECT_THROW(ctx.programString(42, "!!ARBfp1.0\nEND\n"),
                 FatalError);
    // Draw with an attribute bound to a missing buffer.
    ctx.attribPointer(0, 12345, gpu::StreamFormat::Float4, 16, 0);
    EXPECT_THROW(ctx.drawArrays(gpu::Primitive::Triangles, 0, 3),
                 FatalError);
}

TEST(System, DrainReportsFalseOnStarvedPipeline)
{
    // A GPU with work that cannot finish within the budget reports
    // failure instead of hanging forever.
    auto params = tinyParams();
    workloads::CubesWorkload scene(params);
    const auto commands = record(scene, nullptr, params);
    gpu::GpuConfig config;
    config.memorySize = 16u << 20;
    gpu::Gpu gpu(config);
    gpu.submit(commands);
    EXPECT_FALSE(gpu.runUntilIdle(100)); // Absurdly small budget.
    EXPECT_TRUE(gpu.runUntilIdle(50'000'000)); // Then it finishes.
}
