/**
 * @file
 * Shadow volumes example: the Doom3-style multi-pass stencil
 * workload (depth prepass, per-light stencil volumes, additive
 * lighting, alpha-tested grate) rendered on the timing simulator AND
 * on the independent reference renderer, with the per-pixel
 * difference reported — the paper's Figure 10 methodology.
 */

#include <iostream>

#include "gpu/gpu.hh"
#include "gpu/ref_renderer.hh"
#include "sim/out_dir.hh"
#include "workloads/shadows.hh"

using namespace attila;

int
run(int argc, char** argv)
{
    workloads::WorkloadParams params;
    params.width = 256;
    params.height = 256;
    params.frames = argc > 1
                        ? static_cast<u32>(std::atoi(argv[1]))
                        : 2;
    params.textureSize = 64;
    params.detail = 6;

    // Record the scene once; feed the identical stream to both
    // consumers.
    gl::Context ctx(params.width, params.height, 32u << 20);
    workloads::ShadowsWorkload scene(params);
    scene.setup(ctx);
    for (u32 f = 0; f < params.frames; ++f)
        scene.renderFrame(ctx, f);
    const gpu::CommandList commands = ctx.takeCommands();

    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    config.memorySize = 32u << 20;
    gpu::Gpu gpu(config);
    gpu.submit(commands);
    if (!gpu.runUntilIdle()) {
        std::cerr << "pipeline did not drain!\n";
        return 1;
    }

    gpu::RefRenderer reference(32u << 20);
    reference.execute(commands);

    std::cout << "frame  cycles(cum)  diff-pixels\n";
    for (u32 f = 0; f < params.frames; ++f) {
        const u64 diff =
            gpu.frames()[f].diffCount(reference.frames()[f]);
        std::cout << "  " << f << "    " << gpu.cycle() << "   "
                  << diff << " / "
                  << gpu.frames()[f].pixels.size() << "\n";
        gpu.frames()[f].writePpm(sim::outPath(
            "shadow_sim_frame" + std::to_string(f) + ".ppm"));
        reference.frames()[f].writePpm(sim::outPath(
            "shadow_ref_frame" + std::to_string(f) + ".ppm"));
    }

    auto total = [&](const std::string& name) -> u64 {
        const sim::Statistic* stat = gpu.stats().find(name);
        return stat ? stat->total() : 0;
    };
    std::cout << "stencil-tested fragments: ";
    u64 tested = 0;
    for (u32 r = 0; r < config.numRops; ++r) {
        tested += total("ZStencilTest" + std::to_string(r) +
                        ".fragmentsTested");
    }
    std::cout << tested << "\n";
    std::cout << "HZ tiles culled: "
              << total("HierarchicalZ.tilesCulled") << " of "
              << total("HierarchicalZ.tiles") << "\n";
    std::cout << "Wrote out/shadow_sim_frame*.ppm /"
                 " out/shadow_ref_frame*.ppm\n";
    return 0;
}

/** Report configuration and simulator errors instead of aborting. */
int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const SimError& e) {
        std::cerr << "error: " << e.what() << "\n";
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
    }
    return 2;
}
