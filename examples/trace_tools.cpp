/**
 * @file
 * Trace tools example: the GLInterceptor / GLPlayer workflow of the
 * paper's OpenGL framework (§4).
 *
 *   1. Record the terrain workload into an AGL trace file (the
 *      GLInterceptor role).
 *   2. Validate the trace by replaying it and comparing frames
 *      against the original (the GLPlayer role).
 *   3. Hot-start the trace at its last frame — state changes and
 *      buffer uploads are applied, earlier draws skipped — and show
 *      that the hot-started frame matches the full replay.
 */

#include <iostream>

#include "gl/trace.hh"
#include "gpu/ref_renderer.hh"
#include "sim/out_dir.hh"
#include "workloads/terrain.hh"

using namespace attila;

int
run()
{
    const std::string tracePath = sim::outPath("terrain.agltrace");
    workloads::WorkloadParams params;
    params.width = 192;
    params.height = 192;
    params.frames = 3;
    params.textureSize = 64;
    params.detail = 6;

    // --- 1. Capture ------------------------------------------------
    gpu::CommandList original;
    {
        gl::Context ctx(params.width, params.height, 32u << 20);
        gl::TraceRecorder recorder(tracePath);
        ctx.setRecorder(&recorder);
        workloads::TerrainWorkload scene(params);
        scene.setup(ctx);
        for (u32 f = 0; f < params.frames; ++f)
            scene.renderFrame(ctx, f);
        original = ctx.takeCommands();
        std::cout << "captured " << recorder.recordCount()
                  << " API calls, " << recorder.frameCount()
                  << " frames -> " << tracePath << "\n";
    }

    // --- 2. Validate -----------------------------------------------
    gl::TracePlayer player(tracePath);
    gpu::RefRenderer referenceOriginal(32u << 20);
    referenceOriginal.execute(original);

    {
        gl::Context ctx(params.width, params.height, 32u << 20);
        player.play(ctx);
        gpu::RefRenderer replayed(32u << 20);
        replayed.execute(ctx.takeCommands());
        u64 diff = 0;
        for (u32 f = 0; f < params.frames; ++f) {
            diff += replayed.frames()[f].diffCount(
                referenceOriginal.frames()[f]);
        }
        std::cout << "replay validation: " << diff
                  << " differing pixels across " << params.frames
                  << " frames\n";
    }

    // --- 3. Hot start ------------------------------------------------
    {
        gl::Context ctx(params.width, params.height, 32u << 20);
        player.play(ctx, params.frames - 1); // Last frame only.
        gpu::RefRenderer hot(32u << 20);
        hot.execute(ctx.takeCommands());
        const u64 diff = hot.frames().back().diffCount(
            referenceOriginal.frames().back());
        std::cout << "hot start at frame " << params.frames - 1
                  << ": " << diff << " differing pixels\n";
        hot.frames().back().writePpm(
            sim::outPath("terrain_hotstart.ppm"));
    }
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
