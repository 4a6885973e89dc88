/**
 * @file
 * Embedded GPU example (paper §2.2, ref [2]): the architecture
 * scaled down to the most basic embedded configuration — a single
 * unified shader doing all the vertex, fragment and triangle
 * shading work, one memory channel, small caches — rendering the
 * same scene as the high-end baseline for comparison.
 */

#include <iostream>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "workloads/cubes.hh"

using namespace attila;

namespace
{

u64
renderOn(const gpu::GpuConfig& base, const gpu::CommandList& list)
{
    gpu::GpuConfig config = base;
    config.memorySize = 32u << 20;
    gpu::Gpu gpu(config);
    gpu.submit(list);
    if (!gpu.runUntilIdle()) {
        std::cerr << "pipeline did not drain!\n";
        return 0;
    }
    return gpu.cycle();
}

} // anonymous namespace

int
run()
{
    workloads::WorkloadParams params;
    params.width = 160;
    params.height = 120; // QQVGA-ish: an embedded resolution.
    params.frames = 2;
    params.textureSize = 32;
    params.detail = 4;

    gl::Context ctx(params.width, params.height, 32u << 20);
    workloads::CubesWorkload scene(params);
    scene.setup(ctx);
    for (u32 f = 0; f < params.frames; ++f)
        scene.renderFrame(ctx, f);
    const gpu::CommandList commands = ctx.takeCommands();

    const u64 embedded =
        renderOn(gpu::GpuConfig::embedded(), commands);
    const u64 highEnd =
        renderOn(gpu::GpuConfig::baseline(), commands);

    std::cout << "Embedded GPU (1 unified shader, 1 channel):  "
              << embedded << " cycles\n";
    std::cout << "Baseline GPU (2 shaders, 2 ROPs, 4 channels): "
              << highEnd << " cycles\n";
    if (highEnd) {
        std::cout << "Area/performance trade: embedded is "
                  << static_cast<f64>(embedded) /
                         static_cast<f64>(highEnd)
                  << "x slower on the same scene.\n";
    }
    std::cout << "Same microarchitecture, same simulator — only the"
                 " configuration file changed (paper ref [2]).\n";
    return 0;
}

/** Report configuration and simulator errors instead of aborting. */
int
main()
{
    try {
        return run();
    } catch (const SimError& e) {
        std::cerr << "error: " << e.what() << "\n";
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
    }
    return 2;
}
