/**
 * @file
 * Tests for the structured binary event trace: the lock-free
 * per-thread recording core, binary round-tripping with corrupt-input
 * diagnostics, box activity spans on a toy model, and whole-GPU runs
 * where the trace aggregates must agree with the StatisticManager
 * and the simulation must be bit-identical with tracing on or off.
 */

#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "sim/event_trace.hh"
#include "sim/simulator.hh"
#include "sim/trace_export.hh"
#include "workloads/cubes.hh"

using namespace attila;
using namespace attila::sim;

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
recordCubes(const workloads::WorkloadParams& params)
{
    workloads::CubesWorkload scene(params);
    gl::Context ctx(params.width, params.height, 16u << 20);
    scene.setup(ctx);
    for (u32 f = 0; f < params.frames; ++f)
        scene.renderFrame(ctx, f);
    return ctx.takeCommands();
}

gpu::GpuConfig
tracedConfig()
{
    gpu::GpuConfig config;
    config.memorySize = 16u << 20;
    config.statsWindow = 500;
    config.eventTrace = true;
    return config;
}

/** Fires every @p period cycles, asleep in between. */
class PeriodicBox : public Box
{
  public:
    PeriodicBox(SignalBinder& binder, StatisticManager& stats,
                std::string name, Cycle period)
        : Box(binder, stats, std::move(name)), _period(period)
    {
        wake();
    }

    Next
    update(Cycle cycle) override
    {
        ++updates;
        return Next::until(cycle + _period);
    }

    u64 updates = 0;

  private:
    Cycle _period;
};

u64
countKind(const EventTraceData& data, EventKind kind)
{
    u64 n = 0;
    for (const TraceEvent& ev : data.events) {
        if (ev.kind == static_cast<u16>(kind))
            ++n;
    }
    return n;
}

} // anonymous namespace

TEST(EventTrace, ConcurrentEmitMerge)
{
    // Four threads hammer one trace; the per-thread chunks must
    // merge into a complete, cycle-sorted stream.  Run under TSan
    // this is the proof that the hot path needs no lock.
    EventTrace trace;
    const u16 unit = trace.registerBox("box");
    constexpr u64 kPerThread = 50'000;
    constexpr u32 kThreads = 4;
    std::vector<std::thread> pool;
    for (u32 t = 0; t < kThreads; ++t) {
        pool.emplace_back([&trace, unit, t] {
            for (u64 i = 0; i < kPerThread; ++i) {
                trace.emit(EventKind::SignalWrite, i, unit,
                           /*arg=*/t, /*id=*/t * kPerThread + i);
            }
        });
    }
    for (auto& thread : pool)
        thread.join();

    EXPECT_EQ(trace.eventCount(), kPerThread * kThreads);
    const EventTraceData data = trace.collect();
    ASSERT_EQ(data.events.size(), kPerThread * kThreads);
    EXPECT_EQ(data.dropped, 0u);
    u64 perThread[kThreads] = {};
    for (std::size_t i = 0; i < data.events.size(); ++i) {
        if (i > 0) {
            EXPECT_LE(data.events[i - 1].cycle,
                      data.events[i].cycle);
        }
        ASSERT_LT(data.events[i].arg, kThreads);
        ++perThread[data.events[i].arg];
    }
    for (u32 t = 0; t < kThreads; ++t)
        EXPECT_EQ(perThread[t], kPerThread);
    // collect() drained the chunks.
    EXPECT_EQ(trace.eventCount(), 0u);
}

TEST(EventTrace, EventLimitCountsDrops)
{
    EventTrace trace;
    const u16 unit = trace.registerBox("box");
    trace.setEventLimit(EventTrace::kChunkEvents);
    const u64 total = 3 * EventTrace::kChunkEvents;
    for (u64 i = 0; i < total; ++i)
        trace.emit(EventKind::Span, i, unit, 0, i + 1);
    const EventTraceData data = trace.collect();
    EXPECT_EQ(data.events.size(), EventTrace::kChunkEvents);
    EXPECT_EQ(data.dropped, total - EventTrace::kChunkEvents);
}

TEST(EventTrace, BoxSpansFollowActivity)
{
    // A periodic box under idle skipping is clocked one cycle per
    // period: every firing must record one activity span.
    Simulator sim;
    PeriodicBox box(sim.binder(), sim.stats(), "periodic", 10);
    sim.addBox(&box);
    sim.enableEventTrace();
    sim.run(100);
    EventTraceData data = sim.finishEventTrace();

    ASSERT_EQ(data.boxes.size(), 1u);
    EXPECT_EQ(data.boxes[0], "periodic");
    EXPECT_EQ(countKind(data, EventKind::Span), box.updates);

    // The aggregated utilization equals the cycles actually clocked.
    const TraceSeries series = aggregateTrace(data, 10);
    const auto it = series.counts.find("periodic.activeCycles");
    ASSERT_NE(it, series.counts.end());
    u64 active = 0;
    for (u64 v : it->second)
        active += v;
    EXPECT_EQ(active, box.updates);
}

TEST(EventTrace, BinaryRoundTrip)
{
    const std::string path = "test_event_trace_rt.tmp";
    EventTrace trace;
    const u16 box = trace.registerBox("b0");
    const u16 sig = trace.registerSignal("a.b");
    trace.registerCache("cache0");
    trace.registerShader("sh0");
    trace.emit(EventKind::Span, 5, box, 0, 9);
    trace.emit(EventKind::SignalWrite, 7, sig, 42, 1001, 77);
    const EventTraceData data = trace.collect();
    writeEventTraceBinary(data, path);

    const EventTraceData back = readEventTraceBinary(path);
    EXPECT_EQ(back.boxes, data.boxes);
    EXPECT_EQ(back.signals, data.signals);
    EXPECT_EQ(back.caches, data.caches);
    EXPECT_EQ(back.shaders, data.shaders);
    EXPECT_EQ(back.dropped, data.dropped);
    ASSERT_EQ(back.events.size(), data.events.size());
    for (std::size_t i = 0; i < back.events.size(); ++i) {
        EXPECT_EQ(back.events[i].cycle, data.events[i].cycle);
        EXPECT_EQ(back.events[i].id, data.events[i].id);
        EXPECT_EQ(back.events[i].parent, data.events[i].parent);
        EXPECT_EQ(back.events[i].arg, data.events[i].arg);
        EXPECT_EQ(back.events[i].unit, data.events[i].unit);
        EXPECT_EQ(back.events[i].kind, data.events[i].kind);
    }
    std::remove(path.c_str());
}

TEST(EventTrace, CorruptBinaryIsDiagnosticFatal)
{
    const std::string path = "test_event_trace_corrupt.tmp";

    // Not a trace at all.
    {
        std::ofstream out(path, std::ios::binary);
        out << "definitely not an event trace";
    }
    EXPECT_THROW(readEventTraceBinary(path), FatalError);

    // A valid trace, truncated mid-events.
    EventTrace trace;
    const u16 box = trace.registerBox("b");
    for (u64 i = 0; i < 100; ++i)
        trace.emit(EventKind::Span, i, box, 0, i + 1);
    writeEventTraceBinary(trace.collect(), path);
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_THROW(readEventTraceBinary(path), FatalError);

    // Full length but a flipped payload byte: checksum must catch.
    bytes[bytes.size() - 100] ^= 0x5a;
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(readEventTraceBinary(path), FatalError);

    EXPECT_THROW(readEventTraceBinary("no_such_file.evtrace"),
                 FatalError);
    std::remove(path.c_str());
}

TEST(EventTrace, GpuAggregatesMatchStats)
{
    // The acceptance check: per-window aggregates computed from the
    // trace alone must reproduce the StatisticManager's series for
    // every signal/cache/shader counter — under whatever scheduler
    // the environment selects (CI reruns this under parallel(4)).
    const auto params = tinyParams();
    const auto commands = recordCubes(params);
    gpu::Gpu gpu(tracedConfig());
    gpu.submit(commands);
    ASSERT_TRUE(gpu.runUntilIdle(50'000'000));

    EventTraceData data = gpu.simulator().finishEventTrace();
    EXPECT_EQ(data.dropped, 0u);
    EXPECT_GT(data.events.size(), 1000u);

    const TraceSeries series =
        aggregateTrace(data, gpu.config().statsWindow);
    const auto mismatches = crossCheckStats(series, gpu.stats());
    for (const std::string& m : mismatches)
        ADD_FAILURE() << m;
    EXPECT_GT(series.counts.size(), 100u);

    // Credits are counted tokens, not objects, yet every token is one
    // SignalWrite: each credit wire's trace count must equal its write
    // statistic.  crossCheckStats only visits series the trace
    // produced, so this also catches a wire that emitted nothing.
    u64 allCredits = 0;
    for (const std::string& name :
         gpu.simulator().binder().signalNames()) {
        if (!name.ends_with(".credit"))
            continue;
        const std::string key = "signal." + name + ".writes";
        const Statistic* writes = gpu.stats().find(key);
        ASSERT_NE(writes, nullptr) << key;
        const auto it = series.counts.find(key);
        const u64 traced =
            it == series.counts.end()
                ? 0
                : std::accumulate(it->second.begin(),
                                  it->second.end(), u64{0});
        EXPECT_EQ(traced, writes->total()) << key;
        allCredits += writes->total();
    }
    EXPECT_GT(allCredits, 0u);
}

TEST(EventTrace, SerialAndParallelAggregateIdentically)
{
    // Object ids differ between schedulers (the id counter is
    // global), but the aggregated per-window counts are observables
    // and must come out identical.
    const auto params = tinyParams();
    const auto commands = recordCubes(params);

    auto runWith = [&](gpu::SchedulerKind kind, u32 threads) {
        gpu::GpuConfig config = tracedConfig();
        config.applyEnvOverrides(); // Pin: env must not flip kind.
        config.scheduler = kind;
        config.schedulerThreads = threads;
        gpu::Gpu gpu(config);
        gpu.submit(commands);
        EXPECT_TRUE(gpu.runUntilIdle(50'000'000));
        const u64 cycles = gpu.cycle();
        const TraceSeries series =
            aggregateTrace(gpu.simulator().finishEventTrace(),
                           config.statsWindow);
        return std::make_pair(cycles, series.counts);
    };

    const auto serial = runWith(gpu::SchedulerKind::Serial, 1);
    const auto parallel = runWith(gpu::SchedulerKind::Parallel, 2);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
}

TEST(EventTrace, TraceOnOffBitIdentical)
{
    // Recording must be a pure observer: cycles, frame contents and
    // signal traffic totals may not move when tracing is enabled.
    const auto params = tinyParams();
    const auto commands = recordCubes(params);

    auto runWith = [&](bool traced) {
        gpu::GpuConfig config = tracedConfig();
        config.eventTrace = traced;
        auto gpu = std::make_unique<gpu::Gpu>(config);
        gpu->submit(commands);
        EXPECT_TRUE(gpu->runUntilIdle(50'000'000));
        return gpu;
    };

    const auto off = runWith(false);
    const auto on = runWith(true);
    EXPECT_EQ(off->cycle(), on->cycle());
    EXPECT_EQ(off->simulator().binder().totalWrites(),
              on->simulator().binder().totalWrites());
    ASSERT_EQ(off->frames().size(), on->frames().size());
    ASSERT_FALSE(off->frames().empty());
    EXPECT_EQ(off->frames().back().diffCount(on->frames().back()),
              0u);
}

TEST(EventTrace, ThreadAndCacheEventsCarryLineage)
{
    const auto params = tinyParams();
    const auto commands = recordCubes(params);
    gpu::Gpu gpu(tracedConfig());
    gpu.submit(commands);
    ASSERT_TRUE(gpu.runUntilIdle(50'000'000));
    EventTraceData data = gpu.simulator().finishEventTrace();

    EXPECT_GT(countKind(data, EventKind::CacheHit), 0u);
    EXPECT_GT(countKind(data, EventKind::SignalWrite), 0u);
    const u64 begins = countKind(data, EventKind::ThreadBegin);
    const u64 ends = countKind(data, EventKind::ThreadEnd);
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends); // The run drained; every slot retired.

    // Shader work descends from batches: thread events must carry a
    // parent id, and the signal stream must contain objects with
    // ancestry (the id/parent hierarchy survived into the trace).
    bool threadWithParent = false;
    bool writeWithParent = false;
    for (const TraceEvent& ev : data.events) {
        if (ev.kind == static_cast<u16>(EventKind::ThreadBegin) &&
            ev.parent != kNoTraceId) {
            threadWithParent = true;
        }
        if (ev.kind == static_cast<u16>(EventKind::SignalWrite) &&
            ev.parent != kNoTraceId && ev.id != kNoTraceId) {
            writeWithParent = true;
        }
    }
    EXPECT_TRUE(threadWithParent);
    EXPECT_TRUE(writeWithParent);
}

TEST(EventTrace, ChromeJsonWellFormed)
{
    EventTrace trace;
    const u16 box = trace.registerBox("MyBox \"quoted\"");
    const u16 sig = trace.registerSignal("a.b");
    trace.emit(EventKind::Span, 0, box, 0, 6);
    trace.emit(EventKind::SignalWrite, 3, sig, 1, 10, 2);
    const std::string json = chromeTraceJson(trace.collect(), 5);

    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("MyBox \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("signal.a.b.writes"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":6"), std::string::npos);
    EXPECT_EQ(json.find(",]"), std::string::npos);
    EXPECT_EQ(json.find(",}"), std::string::npos);
    EXPECT_EQ(json.substr(json.size() - 3), "}}\n");
}
