/**
 * @file
 * Quickstart: render one frame of spinning, lit, textured cubes on
 * the cycle-level ATTILA GPU and dump it as a PPM image.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * Produces out/quickstart.ppm plus a statistics dump, and prints a
 * summary of what the pipeline did.
 */

#include <fstream>
#include <iostream>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "sim/out_dir.hh"
#include "workloads/cubes.hh"

using namespace attila;

int
run()
{
    // 1. Configure a baseline ATTILA GPU (Tables 1 and 2 of the
    //    paper): 2 unified shader units, 2 ROPs, 4 memory channels.
    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    config.memorySize = 32u << 20;
    gpu::Gpu gpu(config);

    // 2. Create an AGL context and record a little scene through
    //    the OpenGL-flavoured API.
    workloads::WorkloadParams params;
    params.width = 256;
    params.height = 256;
    params.frames = 1;
    params.textureSize = 64;
    params.detail = 6;
    gl::Context ctx(params.width, params.height, config.memorySize);

    workloads::CubesWorkload scene(params);
    scene.setup(ctx);
    scene.renderFrame(ctx, 0);

    // 3. Submit the translated command stream and run the clock.
    gpu.submit(ctx.takeCommands());
    if (!gpu.runUntilIdle()) {
        std::cerr << "pipeline did not drain!\n";
        return 1;
    }

    // 4. The DAC dumped the frame at SwapBuffers.
    gpu.frames().back().writePpm(sim::outPath("quickstart.ppm"));

    std::cout << "Rendered " << params.width << "x" << params.height
              << " frame in " << gpu.cycle() << " cycles ("
              << static_cast<f64>(config.clockMHz) * 1e6 /
                     static_cast<f64>(gpu.cycle())
              << " fps at " << config.clockMHz << " MHz)\n";

    auto total = [&](const std::string& name) -> u64 {
        const sim::Statistic* stat = gpu.stats().find(name);
        return stat ? stat->total() : 0;
    };
    std::cout << "  vertices shaded:     "
              << total("Streamer.vertices") << "\n";
    std::cout << "  triangles assembled: "
              << total("PrimitiveAssembly.triangles") << "\n";
    std::cout << "  fragments generated: "
              << total("FragmentGenerator.fragments") << "\n";
    std::cout << "  memory traffic:      "
              << total("MemoryController.readBytes") +
                     total("MemoryController.writeBytes")
              << " bytes\n";

    // 5. Dump the full statistics file (the paper's CSV output).
    std::ofstream csv(sim::outPath("quickstart_stats.csv"));
    gpu.stats().writeTotalsCsv(csv);
    std::cout << "Wrote out/quickstart.ppm and"
                 " out/quickstart_stats.csv\n";
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
