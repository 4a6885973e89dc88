/**
 * @file
 * Scheduler determinism tests: the parallel engine must be
 * bit-identical to the serial reference on real workloads — same
 * final cycle count, same statistics CSV (windows and totals), same
 * framebuffer output.  This is the executable form of the latency
 * >= 1 argument: clocking order within a cycle cannot matter.
 */

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "sim/scheduler.hh"
#include "workloads/shadows.hh"
#include "workloads/terrain.hh"

using namespace attila;
using namespace attila::workloads;

namespace
{

gpu::CommandList
buildCommands(Workload& workload, const WorkloadParams& params)
{
    gl::Context ctx(params.width, params.height, 32u << 20);
    workload.setup(ctx);
    for (u32 f = 0; f < params.frames; ++f)
        workload.renderFrame(ctx, f);
    return ctx.takeCommands();
}

WorkloadParams
smallParams()
{
    WorkloadParams params;
    params.width = 96;
    params.height = 96;
    params.frames = 1;
    params.textureSize = 32;
    params.detail = 4;
    return params;
}

/** FNV-1a over every frame's pixels. */
u64
framebufferHash(const gpu::Gpu& gpu)
{
    u64 h = 1469598103934665603ull;
    for (const gpu::FrameImage& frame : gpu.frames()) {
        for (u32 px : frame.pixels) {
            h ^= px;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** The observables that must match bit for bit across schedulers. */
struct RunFingerprint
{
    u64 cycles = 0;
    u64 fbHash = 0;
    std::size_t frames = 0;
    std::string windowsCsv;
    std::string totalsCsv;
};

RunFingerprint
runWith(const gpu::CommandList& list, gpu::SchedulerKind kind,
        u32 threads, bool idle_skip = true,
        gpu::MemModel mem_model = gpu::MemModel::Flat,
        bool work_steal = true)
{
    // The test pins its own engines; neutralize the environment
    // overrides a CI job may have exported.
    unsetenv("ATTILA_CONFIG");
    unsetenv("ATTILA_CONFIG_SET");

    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    config.memorySize = 32u << 20;
    config.scheduler = kind;
    config.schedulerThreads = threads;
    config.idleSkip = idle_skip;
    config.memModel = mem_model;
    config.schedWorkSteal = work_steal;
    // A small window so several windows close during the run and the
    // CSV actually exercises the sampling path.
    config.statsWindow = 1000;

    gpu::Gpu gpu(config);
    gpu.submit(list);
    EXPECT_TRUE(gpu.runUntilIdle(200'000'000))
        << "pipeline did not drain";

    RunFingerprint fp;
    fp.cycles = gpu.cycle();
    fp.fbHash = framebufferHash(gpu);
    fp.frames = gpu.frames().size();
    std::ostringstream windows, totals;
    gpu.stats().writeCsv(windows);
    gpu.stats().writeTotalsCsv(totals);
    fp.windowsCsv = windows.str();
    fp.totalsCsv = totals.str();
    return fp;
}

void
expectIdentical(const RunFingerprint& serial,
                const RunFingerprint& parallel, const char* label)
{
    EXPECT_EQ(serial.cycles, parallel.cycles) << label;
    EXPECT_EQ(serial.frames, parallel.frames) << label;
    EXPECT_EQ(serial.fbHash, parallel.fbHash) << label;
    EXPECT_EQ(serial.totalsCsv, parallel.totalsCsv) << label;
    EXPECT_EQ(serial.windowsCsv, parallel.windowsCsv) << label;
}

void
checkWorkload(Workload& workload, const WorkloadParams& params)
{
    const gpu::CommandList list = buildCommands(workload, params);
    const RunFingerprint serial =
        runWith(list, gpu::SchedulerKind::Serial, 0);
    ASSERT_GT(serial.cycles, 0u);
    ASSERT_EQ(serial.frames, params.frames);

    const RunFingerprint par2 =
        runWith(list, gpu::SchedulerKind::Parallel, 2);
    expectIdentical(serial, par2, "parallel x2");

    const RunFingerprint par4 =
        runWith(list, gpu::SchedulerKind::Parallel, 4);
    expectIdentical(serial, par4, "parallel x4");
}

} // anonymous namespace

TEST(SchedulerDeterminism, TerrainSerialVsParallel)
{
    WorkloadParams params = smallParams();
    TerrainWorkload workload(params);
    checkWorkload(workload, params);
}

TEST(SchedulerDeterminism, ShadowsSerialVsParallel)
{
    WorkloadParams params = smallParams();
    ShadowsWorkload workload(params);
    checkWorkload(workload, params);
}

TEST(SchedulerDeterminism, IdleSkipBitIdentical)
{
    // Idle skipping is a pure wall-clock optimization: every
    // observable (cycle count, stats windows and totals, pixels)
    // must match the always-clocked run under both schedulers.
    WorkloadParams params = smallParams();
    TerrainWorkload workload(params);
    const gpu::CommandList list = buildCommands(workload, params);

    const RunFingerprint serialOn =
        runWith(list, gpu::SchedulerKind::Serial, 0, true);
    const RunFingerprint serialOff =
        runWith(list, gpu::SchedulerKind::Serial, 0, false);
    expectIdentical(serialOff, serialOn, "serial idle-skip");

    const RunFingerprint parOn =
        runWith(list, gpu::SchedulerKind::Parallel, 2, true);
    const RunFingerprint parOff =
        runWith(list, gpu::SchedulerKind::Parallel, 2, false);
    expectIdentical(parOff, parOn, "parallel idle-skip");
    expectIdentical(serialOff, parOn, "cross idle-skip");
}

TEST(SchedulerDeterminism, PartitionedBitIdentical)
{
    // The partitioned engine (connectivity partitions, serial skip
    // pass, work stealing, owner-ordered commits) must stay
    // bit-identical to the serial reference under both DRAM timing
    // models — the banked model drives very different traffic
    // through the memory controller partition.
    WorkloadParams params = smallParams();
    ShadowsWorkload workload(params);
    const gpu::CommandList list = buildCommands(workload, params);

    for (const gpu::MemModel mm :
         {gpu::MemModel::Flat, gpu::MemModel::Banked}) {
        const char* name =
            mm == gpu::MemModel::Flat ? "flat" : "banked";
        const RunFingerprint serial =
            runWith(list, gpu::SchedulerKind::Serial, 0, true, mm);
        ASSERT_GT(serial.cycles, 0u) << name;
        const RunFingerprint par2 =
            runWith(list, gpu::SchedulerKind::Parallel, 2, true, mm);
        expectIdentical(serial, par2, name);
        const RunFingerprint par4 =
            runWith(list, gpu::SchedulerKind::Parallel, 4, true, mm);
        expectIdentical(serial, par4, name);
    }
}

TEST(SchedulerDeterminism, WorkStealOnOffBitIdentical)
{
    // Stealing moves updates between workers but never changes the
    // commit order, so it must be invisible in every observable.
    WorkloadParams params = smallParams();
    TerrainWorkload workload(params);
    const gpu::CommandList list = buildCommands(workload, params);
    const RunFingerprint stealOn =
        runWith(list, gpu::SchedulerKind::Parallel, 4, true,
                gpu::MemModel::Flat, true);
    const RunFingerprint stealOff =
        runWith(list, gpu::SchedulerKind::Parallel, 4, true,
                gpu::MemModel::Flat, false);
    expectIdentical(stealOff, stealOn, "work-steal on/off");
}

TEST(SchedulerDeterminism, ParallelRunToRunStable)
{
    // Two parallel runs of the same stream must agree with each
    // other too (catches nondeterministic partitioning or commit
    // ordering inside one engine).
    WorkloadParams params = smallParams();
    TerrainWorkload workload(params);
    const gpu::CommandList list = buildCommands(workload, params);
    const RunFingerprint a =
        runWith(list, gpu::SchedulerKind::Parallel, 4);
    const RunFingerprint b =
        runWith(list, gpu::SchedulerKind::Parallel, 4);
    expectIdentical(a, b, "run-to-run");
}
