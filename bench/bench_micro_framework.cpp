/**
 * @file
 * google-benchmark micro-benchmarks of the simulation framework
 * primitives (paper §3 claims the box/signal model is cheap enough
 * for cycle-level full-GPU simulation): signal throughput, object
 * pool recycling, shader emulator instruction rate, cache access
 * rate, rasterizer setup and Z-tile compression.
 */

#include <chrono>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "emu/fragment_op_emulator.hh"
#include "emu/rasterizer_emulator.hh"
#include "emu/shader_emulator.hh"
#include "emu/z_compressor.hh"
#include "sim/object_pool.hh"
#include "sim/signal.hh"
#include "sim/simulator.hh"

using namespace attila;

namespace
{

/** A producer->sink chain exercising the two-phase clock loop. */
struct ClockLoopModel
{
    class Stage : public sim::Box
    {
      public:
        Stage(sim::SignalBinder& binder,
              sim::StatisticManager& stats, const std::string& name,
              const std::string& in, const std::string& out,
              bool stateless = false)
            : Box(binder, stats, name), _stateless(stateless)
        {
            if (!in.empty())
                _in = input(in, 1, 1);
            if (!out.empty())
                _out = output(out, 1, 1);
        }

        void
        update(Cycle cycle) override
        {
            sim::DynamicObjectPtr obj;
            if (_in)
                obj = _in->read(cycle);
            else
                obj = std::make_shared<sim::DynamicObject>();
            if (obj) {
                ++_received;
                if (_out && _out->canWrite(cycle))
                    _out->write(cycle, std::move(obj));
            }
        }

        /** Stateless relays carry no work between cycles: with quiet
         * inputs their update() is a no-op, so they may be skipped. */
        bool
        busy() const override
        {
            return !_stateless;
        }

        u64
        received() const
        {
            return _received;
        }

      private:
        sim::Signal* _in = nullptr;
        sim::Signal* _out = nullptr;
        bool _stateless = false;
        u64 _received = 0;
    };

    explicit ClockLoopModel(u32 stages)
    {
        for (u32 i = 0; i < stages; ++i) {
            const std::string in =
                i == 0 ? "" : "wire" + std::to_string(i - 1);
            const std::string out =
                i + 1 == stages ? "" : "wire" + std::to_string(i);
            boxes.push_back(std::make_unique<Stage>(
                sim.binder(), sim.stats(),
                "stage" + std::to_string(i), in, out));
            sim.addBox(boxes.back().get());
        }
    }

    sim::Simulator sim;
    std::vector<std::unique_ptr<Stage>> boxes;
};

/**
 * A bursty producer feeding a chain of stateless relays: emits
 * @p burstLen objects back to back, then sleeps for the rest of a
 * @p period-cycle window via wakeAt().  Between bursts the whole
 * model is provably idle, so an idle-skipping scheduler fast-forwards
 * straight to the next burst.  Used for the idle-skip A/B wall-clock
 * comparison.
 */
struct IdlePhaseModel
{
    class BurstSource : public sim::Box
    {
      public:
        BurstSource(sim::SignalBinder& binder,
                    sim::StatisticManager& stats,
                    const std::string& out, u32 bursts, u32 burstLen,
                    u32 period)
            : Box(binder, stats, "burst_source"), _bursts(bursts),
              _burstLen(burstLen), _period(period)
        {
            _out = output(out, 1, 1);
            wakeAt(0); // First burst fires at cycle 0.
        }

        void
        update(Cycle cycle) override
        {
            if (_remaining == 0 && _bursts > 0 &&
                cycle >= _nextBurst) {
                _remaining = _burstLen;
                --_bursts;
                _nextBurst = cycle + _period;
            }
            if (_remaining > 0 && _out->canWrite(cycle)) {
                _out->write(cycle,
                            std::make_shared<sim::DynamicObject>());
                if (--_remaining == 0 && _bursts > 0)
                    wakeAt(_nextBurst);
            }
        }

        bool
        busy() const override
        {
            return _remaining > 0;
        }

        bool
        empty() const override
        {
            return _bursts == 0 && _remaining == 0;
        }

      private:
        sim::Signal* _out = nullptr;
        u32 _bursts;
        u32 _burstLen;
        u32 _period;
        u32 _remaining = 0;
        Cycle _nextBurst = 0;
    };

    IdlePhaseModel(u32 stages, u32 bursts, u32 burstLen, u32 period)
    {
        source = std::make_unique<BurstSource>(
            sim.binder(), sim.stats(), "wire0", bursts, burstLen,
            period);
        sim.addBox(source.get());
        for (u32 i = 1; i <= stages; ++i) {
            const std::string in = "wire" + std::to_string(i - 1);
            const std::string out =
                i == stages ? "" : "wire" + std::to_string(i);
            relays.push_back(std::make_unique<ClockLoopModel::Stage>(
                sim.binder(), sim.stats(),
                "relay" + std::to_string(i), in, out,
                /*stateless=*/true));
            sim.addBox(relays.back().get());
        }
    }

    u64
    sinkCount() const
    {
        return relays.back()->received();
    }

    sim::Simulator sim;
    std::unique_ptr<BurstSource> source;
    std::vector<std::unique_ptr<ClockLoopModel::Stage>> relays;
};

} // anonymous namespace

static void
BM_TwoPhaseClockLoop(benchmark::State& state)
{
    ClockLoopModel model(16);
    for (auto _ : state)
        model.sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoPhaseClockLoop);

static void
BM_SignalWriteRead(benchmark::State& state)
{
    sim::Signal signal("bench", 4, 2);
    auto obj = std::make_shared<sim::DynamicObject>();
    Cycle cycle = 0;
    for (auto _ : state) {
        signal.write(cycle, obj);
        benchmark::DoNotOptimize(signal.read(cycle + 2));
        ++cycle;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignalWriteRead);

static void
BM_ObjectPoolAcquire(benchmark::State& state)
{
    sim::ObjectPool<sim::DynamicObject> pool;
    for (auto _ : state) {
        auto obj = pool.acquire();
        benchmark::DoNotOptimize(obj.get());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectPoolAcquire);

static void
BM_SharedPtrBaseline(benchmark::State& state)
{
    for (auto _ : state) {
        auto obj = std::make_shared<sim::DynamicObject>();
        benchmark::DoNotOptimize(obj.get());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedPtrBaseline);

static void
BM_ShaderEmulatorInstructions(benchmark::State& state)
{
    emu::ShaderAssembler assembler;
    auto prog = assembler.assemble(R"(!!ARBvp1.0
TEMP r0, r1;
DP4 r0.x, program.env[0], vertex.position;
DP4 r0.y, program.env[1], vertex.position;
DP4 r0.z, program.env[2], vertex.position;
DP4 r0.w, program.env[3], vertex.position;
MAD r1, r0, program.env[4], program.env[5];
MOV result.position, r1;
MOV result.color, vertex.color;
END
)");
    emu::ShaderEmulator emulator;
    emu::ConstantBank constants{};
    emu::ShaderThreadState thread;
    for (auto _ : state) {
        thread.pc = 0;
        thread.killed = false;
        emulator.run(*prog, constants, thread);
    }
    state.SetItemsProcessed(state.iterations() *
                            (prog->length() - 1));
}
BENCHMARK(BM_ShaderEmulatorInstructions);

static void
BM_TriangleSetup(benchmark::State& state)
{
    const emu::Viewport vp{0, 0, 1024, 768};
    u64 seed = 1;
    for (auto _ : state) {
        seed = seed * 6364136223846793005ull + 1;
        const f32 jitter =
            static_cast<f32>((seed >> 40) & 0xff) / 256.0f;
        auto setup = emu::RasterizerEmulator::setup(
            {-0.5f + jitter, -0.5f, 0.1f, 1.0f},
            {0.5f, -0.25f, 0.2f, 1.2f},
            {0.0f, 0.6f, 0.3f, 0.9f}, vp);
        benchmark::DoNotOptimize(setup);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TriangleSetup);

static void
BM_FragmentCoverage(benchmark::State& state)
{
    const emu::Viewport vp{0, 0, 256, 256};
    const auto tri = emu::RasterizerEmulator::setup(
        {-1, -1, 0, 1}, {3, -1, 0, 1}, {-1, 3, 0, 1}, vp);
    s32 x = 0, y = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            emu::RasterizerEmulator::evalFragment(tri, x, y));
        x = (x + 7) & 255;
        y = (y + 3) & 255;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FragmentCoverage);

static void
BM_ZTileCompress(benchmark::State& state)
{
    std::array<u32, emu::zTileWords> tile;
    for (u32 y = 0; y < 8; ++y) {
        for (u32 x = 0; x < 8; ++x) {
            tile[y * 8 + x] = emu::packDepthStencil(
                1000000 + x * 977 + y * 311, 0);
        }
    }
    for (auto _ : state) {
        auto result = emu::ZCompressor::compress(tile);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZTileCompress);

namespace
{

/** Run the bursty model for @p cycles with idle skipping on or off;
 * emits one BENCH_JSON line and returns {sink count, wall time}. */
std::pair<u64, f64>
runIdlePhase(u64 cycles, bool idle_skip)
{
    IdlePhaseModel model(/*stages=*/16, /*bursts=*/64,
                         /*burstLen=*/64, /*period=*/4096);
    model.sim.setIdleSkip(idle_skip);
    const auto start = std::chrono::steady_clock::now();
    model.sim.run(cycles);
    const auto stop = std::chrono::steady_clock::now();
    const f64 wall =
        std::chrono::duration<f64>(stop - start).count();
    std::cout << "BENCH_JSON {\"bench\":\"micro_framework\","
              << "\"label\":\"idle_phase_model\",\"cycles\":"
              << cycles << ",\"objects\":" << model.sinkCount()
              << ",\"wall_s\":" << wall << ",\"khz\":"
              << (wall > 0.0 ? static_cast<f64>(cycles) / wall / 1e3
                             : 0.0)
              << ",\"scheduler\":\"serial\",\"threads\":1"
              << ",\"idle_skip\":" << (idle_skip ? "true" : "false")
              << "}\n";
    return {model.sinkCount(), wall};
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    attila::bench::parseArgs(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    attila::gpu::GpuConfig config;
    attila::bench::applyOptions(config);
    const bool idle_skip = config.idleSkip;

    // Machine-readable wall-clock line matching the other bench
    // binaries: the raw two-phase clock-loop rate.  Every stage of
    // this model is busy every cycle, so idle skipping has nothing
    // to skip here.
    constexpr u64 cycles = 200'000;
    ClockLoopModel model(16);
    model.sim.setIdleSkip(idle_skip);
    const auto start = std::chrono::steady_clock::now();
    model.sim.run(cycles);
    const auto stop = std::chrono::steady_clock::now();
    const f64 wall =
        std::chrono::duration<f64>(stop - start).count();
    std::cout << "BENCH_JSON {\"bench\":\"micro_framework\","
              << "\"label\":\"two_phase_clock_loop\",\"cycles\":"
              << cycles << ",\"wall_s\":" << wall << ",\"khz\":"
              << (wall > 0.0 ? static_cast<f64>(cycles) / wall / 1e3
                             : 0.0)
              << ",\"scheduler\":\"serial\",\"threads\":1"
              << ",\"idle_skip\":" << (idle_skip ? "true" : "false")
              << "}\n";

    // Idle-skip A/B: a workload that is mostly idle between bursts.
    // The two runs must agree exactly on delivered object counts;
    // the wall-clock ratio is the idle-skip speedup.
    constexpr u64 idleCycles = 64 * 4096;
    const auto [onCount, onWall] = runIdlePhase(idleCycles, true);
    const auto [offCount, offWall] = runIdlePhase(idleCycles, false);
    if (onCount != offCount) {
        std::cerr << "FAIL: idle-skip changed delivered objects ("
                  << onCount << " vs " << offCount << ")\n";
        return 1;
    }
    std::cout << "BENCH_JSON {\"bench\":\"micro_framework\","
              << "\"label\":\"idle_phase_speedup\",\"speedup\":"
              << (onWall > 0.0 ? offWall / onWall : 0.0) << "}\n";
    return 0;
}
