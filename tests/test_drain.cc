/**
 * @file
 * Drain-detection regression tests.
 *
 * runUntilIdle() polls full quiescence (every box empty, no object
 * inside any signal) only every drainPollInterval cycles once the
 * command stream is exhausted.  The sparse poll must terminate, and
 * must land within one poll interval of the dense (interval 1)
 * answer.
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
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

u64
drainCycle(const gpu::CommandList& list, u32 poll_interval,
           bool idle_skip = true)
{
    unsetenv("ATTILA_CONFIG");
    unsetenv("ATTILA_CONFIG_SET");
    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    config.memorySize = 32u << 20;
    config.drainPollInterval = poll_interval;
    config.idleSkip = idle_skip;
    gpu::Gpu gpu(config);
    gpu.submit(list);
    EXPECT_TRUE(gpu.runUntilIdle(200'000'000))
        << "pipeline did not drain (poll interval " << poll_interval
        << ")";
    EXPECT_EQ(gpu.frames().size(), 1u);
    return gpu.cycle();
}

} // anonymous namespace

TEST(DrainDetection, SparsePollMatchesDensePoll)
{
    WorkloadParams params;
    params.width = 96;
    params.height = 96;
    params.frames = 1;
    params.textureSize = 32;
    params.detail = 4;
    TerrainWorkload workload(params);
    const gpu::CommandList list = buildCommands(workload, params);

    const u64 dense = drainCycle(list, 1);
    const u64 sparse = drainCycle(list, 64);

    // The dense poll stops at the first quiescent cycle; the sparse
    // poll may overshoot by at most one interval.
    EXPECT_GE(sparse, dense);
    EXPECT_LE(sparse - dense, 64u);
}

TEST(DrainDetection, IdleSkipReachesSameDrainCycle)
{
    // Fast-forward between drain polls is capped to the next poll
    // boundary, so the quiescence check runs at exactly the same
    // cycles and the reported drain cycle cannot move.
    WorkloadParams params;
    params.width = 96;
    params.height = 96;
    params.frames = 1;
    params.textureSize = 32;
    params.detail = 4;
    TerrainWorkload workload(params);
    const gpu::CommandList list = buildCommands(workload, params);

    for (const u32 poll : {1u, 64u}) {
        const u64 skipOn = drainCycle(list, poll, true);
        const u64 skipOff = drainCycle(list, poll, false);
        EXPECT_EQ(skipOn, skipOff) << "poll interval " << poll;
    }
}

TEST(DrainDetection, QuiescenceSeesInFlightSignalData)
{
    // allEmpty() alone cannot see objects inside the wires; the
    // quiescence check must.  A long-latency signal keeps the model
    // non-quiescent while both boxes report empty.
    sim::Simulator sim;

    class Producer : public sim::Box
    {
      public:
        Producer(sim::SignalBinder& binder,
                 sim::StatisticManager& stats)
            : Box(binder, stats, "producer")
        {
            _out = output("wire", 1, 20);
        }
        void
        update(Cycle cycle) override
        {
            if (!sent) {
                _out->write(cycle, std::make_shared<sim::DynamicObject>());
                sent = true;
            }
        }
        bool empty() const override { return sent; }
        sim::Signal* _out = nullptr;
        bool sent = false;
    };

    class Consumer : public sim::Box
    {
      public:
        Consumer(sim::SignalBinder& binder,
                 sim::StatisticManager& stats)
            : Box(binder, stats, "consumer")
        {
            _in = input("wire", 1, 20);
        }
        void
        update(Cycle cycle) override
        {
            if (_in->read(cycle))
                ++received;
        }
        sim::Signal* _in = nullptr;
        u32 received = 0;
    };

    Producer producer(sim.binder(), sim.stats());
    Consumer consumer(sim.binder(), sim.stats());
    sim.addBox(&producer);
    sim.addBox(&consumer);

    sim.step();
    // Both boxes idle, but the object still travels the wire.
    EXPECT_TRUE(sim.allEmpty());
    EXPECT_FALSE(sim.quiescent());

    sim.run(25);
    EXPECT_EQ(consumer.received, 1u);
    EXPECT_TRUE(sim.quiescent());
}

TEST(DrainDetection, ShaderPoolThatCanNeverAdmitIsRejected)
{
    // A thread that needs more inputs or registers than its whole
    // shader pool holds would be retried forever; the Fragment FIFO
    // names the key instead of hanging.
    WorkloadParams params;
    params.width = 32;
    params.height = 32;
    params.frames = 1;
    params.textureSize = 16;
    params.detail = 2;
    TerrainWorkload workload(params);
    const gpu::CommandList list = buildCommands(workload, params);

    struct Case
    {
        const char* key;
        void (*apply)(gpu::GpuConfig&);
    };
    const Case cases[] = {
        {"shader.registers",
         [](gpu::GpuConfig& c) { c.shaderRegisters = 1; }},
        {"shader.inputsInFlight",
         [](gpu::GpuConfig& c) { c.shaderInputsInFlight = 2; }},
        {"shader.vertexRegisters",
         [](gpu::GpuConfig& c) {
             c.unifiedShaders = false;
             c.vertexShaderRegisters = 0;
         }},
    };
    for (const Case& tc : cases) {
        unsetenv("ATTILA_CONFIG");
        unsetenv("ATTILA_CONFIG_SET");
        gpu::GpuConfig config = gpu::GpuConfig::baseline();
        config.memorySize = 32u << 20;
        tc.apply(config);
        gpu::Gpu gpu(config);
        gpu.submit(list);
        std::string msg;
        try {
            gpu.runUntilIdle(1'000'000);
        } catch (const SimError& e) {
            msg = e.what();
        }
        EXPECT_NE(msg.find(std::string(tc.key) + " is "),
                  std::string::npos)
            << tc.key << ": " << msg;
        EXPECT_NE(msg.find("can never admit"), std::string::npos) << msg;
    }
}
