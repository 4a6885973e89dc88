/**
 * @file
 * The six fingerprinted Figure 10 configurations, shared by the
 * fingerprint pins, the idle-skip determinism check and the sleep
 * oracle run: shadows, terrain and cubes on the Table 1 baseline,
 * terrain under the in-order queue of the Fig 7 case study, terrain
 * on a narrowed non-unified model, and shadows with the ROP
 * ablations.  Every scene runs at bench_fig10_image_verify's
 * parameters (192x192, 64-texel textures, 8x anisotropy, detail 8,
 * one frame).
 */

#ifndef ATTILA_TESTS_FIG10_SCENES_HH
#define ATTILA_TESTS_FIG10_SCENES_HH

#include <cstdlib>
#include <memory>
#include <vector>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "workloads/cubes.hh"
#include "workloads/shadows.hh"
#include "workloads/terrain.hh"

namespace attila::fig10
{

enum class Scene { Shadows, Terrain, Cubes };

/** A configuration's pinned observables: the cycle count, the FNV-1a
 * hash of the last frame's pixels and the FNV-1a hash of the
 * statistics totals CSV. */
struct Fingerprint
{
    u64 cycles;
    u64 frameHash;
    u64 totalsHash;
};

/** One fingerprinted configuration. */
struct Config
{
    const char* label;
    Scene scene;
    gpu::GpuConfig gpu;
    Fingerprint expected;
};

inline workloads::WorkloadParams
params()
{
    workloads::WorkloadParams p;
    p.width = 192;
    p.height = 192;
    p.frames = 1;
    p.textureSize = 64;
    p.anisotropy = 8;
    p.detail = 8;
    return p;
}

inline std::unique_ptr<workloads::Workload>
makeWorkload(Scene scene)
{
    switch (scene) {
      case Scene::Shadows:
        return std::make_unique<workloads::ShadowsWorkload>(params());
      case Scene::Terrain:
        return std::make_unique<workloads::TerrainWorkload>(params());
      case Scene::Cubes:
        break;
    }
    return std::make_unique<workloads::CubesWorkload>(params());
}

/** The command stream of @p scene's one frame. */
inline gpu::CommandList
commands(Scene scene)
{
    const std::unique_ptr<workloads::Workload> workload =
        makeWorkload(scene);
    const workloads::WorkloadParams& p = workload->params();
    gl::Context ctx(p.width, p.height, 64u << 20);
    workload->setup(ctx);
    for (u32 f = 0; f < p.frames; ++f)
        workload->renderFrame(ctx, f);
    return ctx.takeCommands();
}

/** The six configurations with their pins (a change to modelled
 * timing, pixels or statistics must re-pin them). */
inline std::vector<Config>
configs()
{
    const gpu::GpuConfig baseline = gpu::GpuConfig::baseline();

    // The shader units' in-order (shader input queue) scheduling of
    // the Fig 7 case study.
    const gpu::GpuConfig inOrder = gpu::GpuConfig::caseStudy(
        gpu::ShaderScheduling::InOrderQueue, 3);

    // The non-unified model, narrowed to one single-thread vertex
    // unit so vertex threads block while fragment threads wait
    // behind them: only then does the Fragment FIFO's "let the other
    // class pass" issue rule change cycles.
    gpu::GpuConfig nonUnified = baseline;
    nonUnified.unifiedShaders = false;
    nonUnified.numVertexShaders = 1;
    nonUnified.vertexShaderThreads = 1;

    // The ROP paths the baseline never takes: slow (written-out) Z
    // and colour clears, uncompressed Z writeback, uniform-tile
    // colour compression and double-rate depth-only Z, all at once
    // on the stencil-heavy scene.
    gpu::GpuConfig ropAblations = baseline;
    ropAblations.fastClear = false;
    ropAblations.zCompression = false;
    ropAblations.colorCompression = true;
    ropAblations.doubleRateZ = true;

    // The baseline pins were captured with every combination of the
    // former emulator and memory host paths; all of them agreed.
    return {
        {"shadows", Scene::Shadows, baseline,
         {669568, 0x5ed1ae5e3cb6e2cdull, 0x27c6a891b23644d6ull}},
        {"terrain", Scene::Terrain, baseline,
         {143808, 0x90bd38867d348647ull, 0x9452986be481f749ull}},
        {"cubes", Scene::Cubes, baseline,
         {31872, 0xaba8555c324658ffull, 0xbdbb2c34da1e7e05ull}},
        {"terrain in-order", Scene::Terrain, inOrder,
         {211200, 0x90bd38867d348647ull, 0x4035b3f526de7ddbull}},
        {"terrain non-unified", Scene::Terrain, nonUnified,
         {172352, 0x90bd38867d348647ull, 0x84dffede8cc01b1eull}},
        {"shadows ROP ablations", Scene::Shadows, ropAblations,
         {705536, 0x5ed1ae5e3cb6e2cdull, 0x52f7340ac8b32652ull}},
    };
}

/** A Gpu for @p config with nothing but @p config's own settings
 * (no environment layering) and room for the scenes' memory. */
inline std::unique_ptr<gpu::Gpu>
makeGpu(gpu::GpuConfig config)
{
    unsetenv("ATTILA_CONFIG");
    unsetenv("ATTILA_CONFIG_SET");
    config.memorySize = 64u << 20;
    return std::make_unique<gpu::Gpu>(config);
}

} // namespace attila::fig10

#endif // ATTILA_TESTS_FIG10_SCENES_HH
