/**
 * @file
 * Pinned Figure 10 fingerprints.  Shadows, terrain and cubes run at
 * bench_fig10_image_verify's parameters (192x192, 64-texel
 * textures, 8x anisotropy, detail 8, one frame) on the Table 1
 * baseline, and the exact cycle count, the framebuffer's FNV-1a hash
 * and the FNV-1a hash of the statistics totals CSV must equal the
 * constants below.  Any change to modelled timing, rendered pixels or
 * collected statistics shows up here; a host-side change (a faster
 * interpreter, a different allocator, another scheduler) must leave
 * all three untouched.  The reference renderer must reproduce the
 * simulated frame pixel for pixel (the paper's Figure 10 oracle).
 * The event trace of terrain and cubes is pinned too, so object ids,
 * their order and their parent lineage cannot drift unnoticed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "fig10_scenes.hh"
#include "gpu/ref_renderer.hh"

using namespace attila;

namespace
{

u64
fnv1a(const void* data, std::size_t size)
{
    u64 h = 14695981039346656037ull;
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

u64
frameHash(const gpu::FrameImage& frame)
{
    return fnv1a(frame.pixels.data(),
                 frame.pixels.size() * sizeof(frame.pixels[0]));
}

struct Run
{
    u64 cycles = 0;
    u64 frameHash = 0;
    u64 totalsHash = 0;
    gpu::FrameImage frame;
};

Run
simulate(const gpu::CommandList& commands, gpu::GpuConfig config,
         gpu::SchedulerKind kind, u32 threads)
{
    // The fingerprint is the given config's: no environment layering.
    config.scheduler = kind;
    config.schedulerThreads = threads;

    const std::unique_ptr<gpu::Gpu> owned = fig10::makeGpu(config);
    gpu::Gpu& gpu = *owned;
    gpu.submit(commands);
    EXPECT_TRUE(gpu.runUntilIdle(2'000'000'000ull))
        << "pipeline did not drain";

    Run run;
    run.cycles = gpu.cycle();
    if (!gpu.frames().empty()) {
        run.frame = gpu.frames().back();
        run.frameHash = frameHash(run.frame);
    }
    std::ostringstream totals;
    gpu.stats().writeTotalsCsv(totals);
    const std::string csv = totals.str();
    run.totalsHash = fnv1a(csv.data(), csv.size());
    return run;
}

void
expectFingerprint(const Run& run, const fig10::Fingerprint& expected,
                  const char* label)
{
    EXPECT_EQ(run.cycles, expected.cycles) << label;
    EXPECT_EQ(run.frameHash, expected.frameHash)
        << label << " framebuffer hash 0x" << std::hex
        << run.frameHash;
    EXPECT_EQ(run.totalsHash, expected.totalsHash)
        << label << " statistics totals hash 0x" << std::hex
        << run.totalsHash;
}

void
checkScene(const fig10::Config& scene, bool parallel)
{
    const fig10::Fingerprint& expected = scene.expected;
    const gpu::CommandList commands = fig10::commands(scene.scene);

    const Run serial = simulate(commands, scene.gpu,
                                gpu::SchedulerKind::Serial, 0);
    expectFingerprint(serial, expected, scene.label);

    gpu::RefRenderer reference(64u << 20);
    reference.execute(commands);
    ASSERT_FALSE(reference.frames().empty()) << scene.label;
    EXPECT_EQ(serial.frame.diffCount(reference.frames().back()), 0u)
        << scene.label << " simulated frame differs from the reference";

    if (parallel) {
        const Run par = simulate(commands, scene.gpu,
                                 gpu::SchedulerKind::Parallel, 2);
        expectFingerprint(par, expected, scene.label);
    }
}

/** True for the event kinds whose id and parent are object ids. */
bool
carriesObjectIds(u16 kind)
{
    return kind == static_cast<u16>(sim::EventKind::SignalWrite) ||
           kind == static_cast<u16>(sim::EventKind::ThreadBegin) ||
           kind == static_cast<u16>(sim::EventKind::ThreadEnd);
}

/**
 * FNV-1a over every event of a serial, event-traced run of @p scene
 * on the baseline.  Object ids and parents are rebased by the
 * smallest object id in the trace: the id counter is process-global,
 * so absolute ids depend on what ran earlier in the process.
 */
u64
eventTraceHash(fig10::Scene scene)
{
    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    config.eventTrace = true;
    const std::unique_ptr<gpu::Gpu> gpu = fig10::makeGpu(config);
    gpu->submit(fig10::commands(scene));
    EXPECT_TRUE(gpu->runUntilIdle(2'000'000'000ull))
        << "pipeline did not drain";
    const sim::EventTraceData trace =
        gpu->simulator().finishEventTrace();
    EXPECT_EQ(trace.dropped, 0u);

    u64 base = sim::kNoTraceId;
    for (const sim::TraceEvent& e : trace.events) {
        if (carriesObjectIds(e.kind))
            base = std::min(base, e.id);
    }
    const auto rebase = [base](u64 id) {
        return id == sim::kNoTraceId ? id : id - base;
    };
    u64 h = 14695981039346656037ull;
    const auto mix = [&h](u64 value, std::size_t bytes) {
        for (std::size_t i = 0; i < bytes; ++i) {
            h ^= (value >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (const sim::TraceEvent& e : trace.events) {
        const bool ids = carriesObjectIds(e.kind);
        mix(e.cycle, 8);
        mix(ids ? rebase(e.id) : e.id, 8);
        mix(ids ? rebase(e.parent) : e.parent, 8);
        mix(e.arg, 4);
        mix(e.unit, 2);
        mix(e.kind, 2);
    }
    return h;
}

TEST(Fingerprints, Shadows)
{
    checkScene(fig10::configs()[0], false);
}

TEST(Fingerprints, Terrain)
{
    checkScene(fig10::configs()[1], true);
}

TEST(Fingerprints, Cubes)
{
    checkScene(fig10::configs()[2], true);
}

TEST(Fingerprints, TerrainInOrderQueue)
{
    checkScene(fig10::configs()[3], false);
}

TEST(Fingerprints, TerrainNonUnified)
{
    checkScene(fig10::configs()[4], false);
}

TEST(Fingerprints, ShadowsRopAblations)
{
    checkScene(fig10::configs()[5], false);
}

TEST(Fingerprints, TerrainEventTrace)
{
    const u64 hash = eventTraceHash(fig10::Scene::Terrain);
    EXPECT_EQ(hash, 0xc14306420aab88d0ull) << "0x" << std::hex << hash;
}

TEST(Fingerprints, CubesEventTrace)
{
    const u64 hash = eventTraceHash(fig10::Scene::Cubes);
    EXPECT_EQ(hash, 0xb06abb6fa76fc018ull) << "0x" << std::hex << hash;
}

} // anonymous namespace
