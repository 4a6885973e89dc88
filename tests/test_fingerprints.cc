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
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "gpu/ref_renderer.hh"
#include "workloads/cubes.hh"
#include "workloads/shadows.hh"
#include "workloads/terrain.hh"

using namespace attila;

namespace
{

struct Fingerprint
{
    u64 cycles;
    u64 frameHash;
    u64 totalsHash;
};

// Captured with every combination of the former emulator and memory
// host paths; all of them agreed.
constexpr Fingerprint kShadows{669568, 0x5ed1ae5e3cb6e2cdull,
                                0x27c6a891b23644d6ull};
constexpr Fingerprint kTerrain{143808, 0x90bd38867d348647ull,
                                0x9452986be481f749ull};
constexpr Fingerprint kCubes{31872, 0xaba8555c324658ffull,
                              0xbdbb2c34da1e7e05ull};

// Two configs the baseline never runs: the shader units' in-order
// (shader input queue) scheduling of the Fig 7 case study, and the
// non-unified model, whose Fragment FIFO issues vertex and fragment
// threads to separate unit pools.  The non-unified run narrows the
// vertex pool to one single-thread unit so vertex threads block
// while fragment threads wait behind them: only then does the
// Fragment FIFO's "let the other class pass" issue rule change
// cycles (with four vertex units it never does on this scene).
constexpr Fingerprint kTerrainInOrder{211200, 0x90bd38867d348647ull,
                                       0x4035b3f526de7ddbull};
constexpr Fingerprint kTerrainNonUnified{172352, 0x90bd38867d348647ull,
                                          0x84dffede8cc01b1eull};

// The ROP paths the baseline never takes: slow (written-out) Z and
// colour clears, uncompressed Z writeback, uniform-tile colour
// compression and double-rate depth-only Z, all at once on the
// stencil-heavy scene.
constexpr Fingerprint kShadowsRopAblations{
    705536, 0x5ed1ae5e3cb6e2cdull, 0x52f7340ac8b32652ull};

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

workloads::WorkloadParams
fig10Params()
{
    workloads::WorkloadParams params;
    params.width = 192;
    params.height = 192;
    params.frames = 1;
    params.textureSize = 64;
    params.anisotropy = 8;
    params.detail = 8;
    return params;
}

gpu::CommandList
buildCommands(workloads::Workload& workload)
{
    const workloads::WorkloadParams& params = workload.params();
    gl::Context ctx(params.width, params.height, 64u << 20);
    workload.setup(ctx);
    for (u32 f = 0; f < params.frames; ++f)
        workload.renderFrame(ctx, f);
    return ctx.takeCommands();
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
    unsetenv("ATTILA_CONFIG");
    unsetenv("ATTILA_CONFIG_SET");
    config.memorySize = 64u << 20;
    config.scheduler = kind;
    config.schedulerThreads = threads;

    gpu::Gpu gpu(config);
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
expectFingerprint(const Run& run, const Fingerprint& expected,
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
checkScene(workloads::Workload& workload, const Fingerprint& expected,
           const char* label, bool parallel,
           const gpu::GpuConfig& config = gpu::GpuConfig::baseline())
{
    const gpu::CommandList commands = buildCommands(workload);

    const Run serial =
        simulate(commands, config, gpu::SchedulerKind::Serial, 0);
    expectFingerprint(serial, expected, label);

    gpu::RefRenderer reference(64u << 20);
    reference.execute(commands);
    ASSERT_FALSE(reference.frames().empty()) << label;
    EXPECT_EQ(serial.frame.diffCount(reference.frames().back()), 0u)
        << label << " simulated frame differs from the reference";

    if (parallel) {
        const Run par =
            simulate(commands, config, gpu::SchedulerKind::Parallel, 2);
        expectFingerprint(par, expected, label);
    }
}

TEST(Fingerprints, Shadows)
{
    workloads::ShadowsWorkload workload(fig10Params());
    checkScene(workload, kShadows, "shadows", false);
}

TEST(Fingerprints, Terrain)
{
    workloads::TerrainWorkload workload(fig10Params());
    checkScene(workload, kTerrain, "terrain", true);
}

TEST(Fingerprints, Cubes)
{
    workloads::CubesWorkload workload(fig10Params());
    checkScene(workload, kCubes, "cubes", true);
}

TEST(Fingerprints, TerrainInOrderQueue)
{
    workloads::TerrainWorkload workload(fig10Params());
    checkScene(workload, kTerrainInOrder, "terrain in-order", false,
               gpu::GpuConfig::caseStudy(
                   gpu::ShaderScheduling::InOrderQueue, 3));
}

TEST(Fingerprints, TerrainNonUnified)
{
    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    config.unifiedShaders = false;
    config.numVertexShaders = 1;
    config.vertexShaderThreads = 1;
    workloads::TerrainWorkload workload(fig10Params());
    checkScene(workload, kTerrainNonUnified, "terrain non-unified",
               false, config);
}

TEST(Fingerprints, ShadowsRopAblations)
{
    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    config.fastClear = false;
    config.zCompression = false;
    config.colorCompression = true;
    config.doubleRateZ = true;
    workloads::ShadowsWorkload workload(fig10Params());
    checkScene(workload, kShadowsRopAblations, "shadows ROP ablations",
               false, config);
}

} // anonymous namespace
