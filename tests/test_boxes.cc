/**
 * @file
 * Unit tests for individual pipeline pieces: flow-controlled links,
 * batch-marker forwarding in primitive assembly, the interpolator
 * math, Hierarchical Z quantization, register decode and the GPU
 * configuration presets.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_config.hh"
#include "gpu/hierarchical_z.hh"
#include "gpu/interpolator.hh"
#include "gpu/link.hh"
#include "gpu/primitive_assembly.hh"
#include "gpu/regs.hh"
#include "gpu/z_stencil_test.hh"
#include "sim/simulator.hh"

using namespace attila;
using namespace attila::gpu;

namespace
{

class HostBox : public sim::Box
{
  public:
    HostBox(sim::SignalBinder& binder, sim::StatisticManager& stats,
            std::string name)
        : Box(binder, stats, std::move(name))
    {
        wake();
    }

    sim::Next
    update(Cycle cycle) override
    {
        if (tick)
            tick(cycle);
        return sim::Next::runs();
    }

    std::function<void(Cycle)> tick;
};

} // anonymous namespace

TEST(Link, CreditFlowControl)
{
    sim::Simulator sim;
    HostBox producer(sim.binder(), sim.stats(), "producer");
    HostBox consumer(sim.binder(), sim.stats(), "consumer");

    LinkTx tx;
    tx.init(producer, sim.binder(), "link", 2, 3, 4);
    LinkRx<WorkObject> rx;
    rx.init(consumer, sim.binder(), "link", 2, 3, 4);

    u32 sent = 0, received = 0;
    bool produce = true;
    producer.tick = [&](Cycle cycle) {
        tx.clock(cycle);
        while (produce && tx.canSend(cycle)) {
            auto obj = std::make_shared<WorkObject>();
            tx.send(cycle, obj);
            ++sent;
        }
    };
    bool consume = false;
    consumer.tick = [&](Cycle cycle) {
        rx.clock(cycle);
        while (consume && !rx.empty()) {
            rx.pop(cycle);
            ++received;
        }
    };
    sim.addBox(&producer);
    sim.addBox(&consumer);

    // Without consumption, at most `capacity` objects can be sent.
    sim.run(20);
    EXPECT_EQ(sent, 4u);
    EXPECT_EQ(rx.size(), 4u);

    // Start consuming: credits return and throughput resumes.
    consume = true;
    sim.run(50);
    EXPECT_GT(sent, 20u); // Sustained flow.

    // Stop producing; everything in flight drains and all credits
    // come home.
    produce = false;
    sim.run(20);
    EXPECT_EQ(received, sent);
    EXPECT_TRUE(tx.idle());
}

TEST(Link, QueueNeverOverflows)
{
    sim::Simulator sim;
    HostBox producer(sim.binder(), sim.stats(), "producer");
    HostBox consumer(sim.binder(), sim.stats(), "consumer");
    LinkTx tx;
    tx.init(producer, sim.binder(), "link", 4, 1, 3);
    LinkRx<WorkObject> rx;
    rx.init(consumer, sim.binder(), "link", 4, 1, 3);

    producer.tick = [&](Cycle cycle) {
        tx.clock(cycle);
        // Aggressive: send as much as credits allow every cycle.
        while (tx.canSend(cycle))
            tx.send(cycle, std::make_shared<WorkObject>());
    };
    u64 seen = 0;
    consumer.tick = [&](Cycle cycle) {
        rx.clock(cycle);
        EXPECT_LE(rx.size(), 3u);
        // Slow consumer: one every three cycles.
        if (cycle % 3 == 0 && !rx.empty()) {
            rx.pop(cycle);
            ++seen;
        }
    };
    sim.addBox(&producer);
    sim.addBox(&consumer);
    EXPECT_NO_THROW(sim.run(200));
    EXPECT_GT(seen, 50u);
}

TEST(PrimitiveAssembly, ForwardsBatchMarkersAsTriangleObjects)
{
    // The clipper link carries TriangleObj only: batch markers from
    // the vertex stream must be re-typed, keeping their identity.
    sim::Simulator sim;
    const GpuConfig config;
    HostBox streamer(sim.binder(), sim.stats(), "streamer");
    PrimitiveAssembly assembly(sim.binder(), sim.stats(), config);
    HostBox clipper(sim.binder(), sim.stats(), "clipper");
    LinkTx tx;
    tx.init(streamer, sim.binder(), "streamer.assembly", 1, 1,
            config.primitiveAssemblyQueue);
    LinkRx<WorkObject> rx;
    rx.init(clipper, sim.binder(), "assembly.clipper",
            config.trianglesPerCycle, 1, config.clipperQueue);

    auto marker = [](MarkerKind kind) {
        auto v = std::make_shared<VertexObj>();
        v->marker = kind;
        v->batchId = 7;
        v->state = std::make_shared<RenderState>();
        v->setParent(WorkObject()); // Not a root.
        return v;
    };
    std::vector<VertexObjPtr> input{marker(MarkerKind::BatchStart)};
    for (int i = 0; i < 3; ++i) {
        input.push_back(std::make_shared<VertexObj>());
        input.back()->batchId = 7;
    }
    input.push_back(marker(MarkerKind::BatchEnd));

    std::size_t next = 0;
    streamer.tick = [&](Cycle cycle) {
        tx.clock(cycle);
        if (next < input.size() && tx.canSend(cycle))
            tx.send(cycle, input[next++]);
    };
    std::vector<WorkObjectPtr> output;
    clipper.tick = [&](Cycle cycle) {
        rx.clock(cycle);
        while (!rx.empty())
            output.push_back(rx.pop(cycle));
    };
    sim.addBox(&streamer);
    sim.addBox(&assembly);
    sim.addBox(&clipper);
    sim.run(50);

    ASSERT_EQ(output.size(), 3u); // start, one triangle, end
    const std::pair<VertexObjPtr, WorkObjectPtr> markers[] = {
        {input.front(), output.front()}, {input.back(), output.back()}};
    for (const auto& [in, out] : markers) {
        ASSERT_NE(std::dynamic_pointer_cast<TriangleObj>(out), nullptr);
        EXPECT_EQ(out->marker, in->marker);
        EXPECT_EQ(out->id(), in->id());
        EXPECT_EQ(out->parent(), in->parent());
        EXPECT_EQ(out->batchId, in->batchId);
        EXPECT_EQ(out->state, in->state);
    }
    auto tri = std::dynamic_pointer_cast<TriangleObj>(output[1]);
    ASSERT_NE(tri, nullptr);
    EXPECT_FALSE(tri->isMarker());
}

TEST(ZStencilTest, EarlyBatchWaitsForLateBatchBehindFullPipeline)
{
    // An early-Z batch E follows a late-Z batch L.  E's BatchStart
    // reaches ROPz while the early delay pipeline is full, so it
    // waits there for many cycles.  E's quads must still wait for
    // L's late Z accesses (L's BatchEnd on the late input) before
    // they test: waiting must not drop the gate on L.
    sim::Simulator sim;
    GpuConfig config;
    config.ropLatency = 40;
    emu::GpuMemory memory(1 << 20);
    HostBox hz(sim.binder(), sim.stats(), "hz");
    HostBox ffifo(sim.binder(), sim.stats(), "ffifo");
    HostBox sinks(sim.binder(), sim.stats(), "sinks");
    ZStencilTest ropz(sim.binder(), sim.stats(), config, 0, memory);
    LinkTx early;
    early.init(hz, sim.binder(), "hz.ropz0", 16, 1, 16);
    LinkTx late;
    late.init(ffifo, sim.binder(), "ffifo.ropz0.late", 2, 1, 8);
    LinkRx<QuadObj> toInterp;
    toInterp.init(sinks, sim.binder(), "ropz0.interp", 1,
                  config.ropLatency, 16);
    LinkRx<QuadObj> toRopc;
    toRopc.init(sinks, sim.binder(), "ropz0.ropc", 1,
                config.ropLatency, 8);

    // No depth or stencil test: quads need no Z cache, so only the
    // batch gate can hold them.
    auto earlyState = std::make_shared<RenderState>();
    auto lateState = std::make_shared<RenderState>();
    lateState->earlyZAllowed = false;
    auto marker = [](MarkerKind kind, u32 batch, RenderStatePtr state) {
        auto q = std::make_shared<QuadObj>();
        q->marker = kind;
        q->batchId = batch;
        q->state = std::move(state);
        return q;
    };
    auto quad = [](u32 batch, RenderStatePtr state) {
        auto q = std::make_shared<QuadObj>();
        q->batchId = batch;
        q->state = std::move(state);
        q->coverage = {true, true, true, true};
        return q;
    };
    // Batch 0 (early) and L's markers fill the 8-entry pipeline
    // before E's BatchStart arrives.
    std::vector<QuadObjPtr> earlyInput{
        marker(MarkerKind::BatchStart, 0, earlyState)};
    for (int i = 0; i < 4; ++i)
        earlyInput.push_back(quad(0, earlyState));
    earlyInput.push_back(marker(MarkerKind::BatchEnd, 0, earlyState));
    earlyInput.push_back(marker(MarkerKind::BatchStart, 1, lateState));
    earlyInput.push_back(marker(MarkerKind::BatchEnd, 1, lateState));
    earlyInput.push_back(marker(MarkerKind::BatchStart, 2, earlyState));
    for (int i = 0; i < 3; ++i)
        earlyInput.push_back(quad(2, earlyState));

    std::size_t next = 0;
    hz.tick = [&](Cycle cycle) {
        early.clock(cycle);
        while (next < earlyInput.size() && early.canSend(cycle))
            early.send(cycle, earlyInput[next++]);
    };
    bool lateDone = false;
    bool lateSent = false;
    ffifo.tick = [&](Cycle cycle) {
        late.clock(cycle);
        if (lateDone && !lateSent && late.canSend(cycle)) {
            late.send(cycle, marker(MarkerKind::BatchStart, 1, lateState));
            late.send(cycle, marker(MarkerKind::BatchEnd, 1, lateState));
            lateSent = true;
        }
    };
    u32 batch2Quads = 0;
    sinks.tick = [&](Cycle cycle) {
        toInterp.clock(cycle);
        toRopc.clock(cycle);
        while (!toInterp.empty()) {
            const QuadObjPtr q = toInterp.pop(cycle);
            batch2Quads += q->batchId == 2 && !q->isMarker();
        }
        while (!toRopc.empty())
            toRopc.pop(cycle);
    };
    sim.addBox(&hz);
    sim.addBox(&ffifo);
    sim.addBox(&ropz);
    sim.addBox(&sinks);

    sim.run(400);
    ASSERT_EQ(next, earlyInput.size());
    EXPECT_EQ(batch2Quads, 0u)
        << "batch 2 tested its quads before batch 1's late Z accesses";

    lateDone = true;
    sim.run(400);
    EXPECT_EQ(batch2Quads, 3u);
}

TEST(Interpolator, QuadAttributesPerspectiveCorrect)
{
    // Build a quad referencing a triangle with a perspective ramp
    // and check interpolateQuad reproduces the rasterizer's math.
    auto tri = std::make_shared<TriangleObj>();
    const emu::Vec4 v0{-1, -1, 0, 1};
    const emu::Vec4 v1{4, -4, 0, 4};
    const emu::Vec4 v2{-1, 3, 0, 1};
    tri->vertex[0][emu::regix::vposPosition] = v0;
    tri->vertex[1][emu::regix::vposPosition] = v1;
    tri->vertex[2][emu::regix::vposPosition] = v2;
    tri->vertex[0][emu::regix::ioColor] = {0, 0, 0, 0};
    tri->vertex[1][emu::regix::ioColor] = {1, 1, 1, 1};
    tri->vertex[2][emu::regix::ioColor] = {0, 0, 0, 0};

    emu::Viewport vp{0, 0, 64, 64};
    tri->setup = emu::RasterizerEmulator::setup(v0, v1, v2, vp);
    ASSERT_TRUE(tri->setup.valid);

    auto state = std::make_shared<RenderState>();
    // No fragment program: all inputs interpolated.
    auto quad = std::make_shared<QuadObj>();
    quad->triangle = tri;
    quad->state = state;
    quad->x0 = 32;
    quad->y0 = 0;
    quad->coverage = {true, true, true, true};

    Interpolator::interpolateQuad(*quad);

    // Perspective-correct: u ~ 0.2 at the screen midpoint (see the
    // rasterizer test for the derivation).
    EXPECT_NEAR(quad->in[0][emu::regix::ioColor].x, 0.2f, 0.03f);
    // fragment.position carries window x, y.
    EXPECT_FLOAT_EQ(quad->in[0][emu::regix::finPosition].x, 32.5f);
    EXPECT_FLOAT_EQ(quad->in[3][emu::regix::finPosition].y, 1.5f);
}

TEST(HierarchicalZ, QuantizationConservative)
{
    for (f32 z : {0.0f, 0.1f, 0.25f, 0.5f, 0.999f, 1.0f}) {
        EXPECT_LE(HierarchicalZ::quantizeDown(z),
                  HierarchicalZ::quantizeUp(z));
    }
    EXPECT_EQ(HierarchicalZ::quantizeUp(1.0f), 255);
    EXPECT_EQ(HierarchicalZ::quantizeDown(0.0f), 0);
    // A fragment at the same depth as the stored max must never be
    // culled: floor(z) > ceil(z) is impossible.
    for (u32 i = 0; i <= 100; ++i) {
        const f32 z = static_cast<f32>(i) / 100.0f;
        EXPECT_FALSE(HierarchicalZ::quantizeDown(z) >
                     HierarchicalZ::quantizeUp(z));
    }
}

TEST(Regs, ApplyRegisterDecodes)
{
    RenderState state;
    applyRegister(state, Reg::FbWidth, 0, RegValue(640u));
    applyRegister(state, Reg::DepthFunc, 0,
                  RegValue(static_cast<u32>(
                      emu::CompareFunc::GreaterEqual)));
    applyRegister(state, Reg::StreamAddress, 5, RegValue(0x1234u));
    applyRegister(state, Reg::BlendConstantColor, 0,
                  RegValue(emu::Vec4(1, 2, 3, 4)));
    applyRegister(state, Reg::VertexConstant, 17,
                  RegValue(emu::Vec4(5, 6, 7, 8)));
    const u32 mipIndex =
        (2u * maxTextureUnits + 3u) * emu::maxMipLevels + 4u;
    applyRegister(state, Reg::TexMipAddress, mipIndex,
                  RegValue(0x8000u));

    EXPECT_EQ(state.width, 640u);
    EXPECT_EQ(state.zStencil.depthFunc,
              emu::CompareFunc::GreaterEqual);
    EXPECT_EQ(state.streams[5].address, 0x1234u);
    EXPECT_EQ(state.blend.constantColor, emu::Vec4(1, 2, 3, 4));
    EXPECT_EQ(state.vertexConstants[17], emu::Vec4(5, 6, 7, 8));
    EXPECT_EQ(state.textures[3].mips[2][4].address, 0x8000u);
}

TEST(Regs, EarlyZDecision)
{
    RenderState state;
    emu::ShaderAssembler assembler;

    state.fragmentProgram = assembler.assemble(
        "!!ARBfp1.0\nMOV result.color, fragment.color;\nEND\n");
    EXPECT_TRUE(state.earlyZ());

    // KIL forces the late-Z path.
    state.fragmentProgram = assembler.assemble(
        "!!ARBfp1.0\nKIL fragment.color;\nMOV result.color,"
        " fragment.color;\nEND\n");
    EXPECT_FALSE(state.earlyZ());

    // Depth output forces the late-Z path.
    state.fragmentProgram = assembler.assemble(
        "!!ARBfp1.0\nMOV result.color, fragment.color;\n"
        "MOV result.depth.x, fragment.color;\nEND\n");
    EXPECT_FALSE(state.earlyZ());

    // The driver can veto early Z entirely.
    state.fragmentProgram = assembler.assemble(
        "!!ARBfp1.0\nMOV result.color, fragment.color;\nEND\n");
    state.earlyZAllowed = false;
    EXPECT_FALSE(state.earlyZ());
}

TEST(Regs, HzUsableRules)
{
    RenderState state;
    state.zStencil.depthTest = true;
    state.zStencil.depthFunc = emu::CompareFunc::Less;
    EXPECT_TRUE(state.hzUsable());

    state.zStencil.depthFunc = emu::CompareFunc::Greater;
    EXPECT_FALSE(state.hzUsable());

    state.zStencil.depthFunc = emu::CompareFunc::LessEqual;
    state.zStencil.stencilTest = true;
    state.zStencil.depthFail = emu::StencilOp::IncrWrap;
    EXPECT_FALSE(state.hzUsable()); // Z-fail stencil side effect.

    state.zStencil.depthFail = emu::StencilOp::Keep;
    state.zStencil.stencilFail = emu::StencilOp::Keep;
    EXPECT_TRUE(state.hzUsable());

    state.hzEnabled = false;
    EXPECT_FALSE(state.hzUsable());
}

TEST(Regs, RaisesDepthDetection)
{
    RenderState state;
    state.zStencil.depthTest = true;
    state.zStencil.depthWrite = true;
    state.zStencil.depthFunc = emu::CompareFunc::Less;
    EXPECT_FALSE(state.raisesDepth());
    state.zStencil.depthFunc = emu::CompareFunc::Always;
    EXPECT_TRUE(state.raisesDepth());
    state.zStencil.depthWrite = false;
    EXPECT_FALSE(state.raisesDepth());
}

TEST(GpuConfig, Presets)
{
    const GpuConfig base = GpuConfig::baseline();
    EXPECT_TRUE(base.unifiedShaders);
    EXPECT_EQ(base.numShaders, 2u);
    EXPECT_EQ(base.numRops, 2u);
    EXPECT_EQ(base.memoryChannels, 4u);
    EXPECT_EQ(base.channelBytesPerCycle, 16u);
    EXPECT_EQ(base.zCacheKB, 16u);

    const GpuConfig cs = GpuConfig::caseStudy(
        ShaderScheduling::InOrderQueue, 2);
    EXPECT_EQ(cs.numShaders, 3u);
    EXPECT_EQ(cs.numRops, 1u);
    EXPECT_EQ(cs.memoryChannels, 2u);
    EXPECT_EQ(cs.numTextureUnits, 2u);
    EXPECT_EQ(cs.shaderInputsInFlight, 384u);
    EXPECT_EQ(cs.shaderRegisters, 1536u);
    EXPECT_EQ(cs.scheduling, ShaderScheduling::InOrderQueue);

    const GpuConfig embedded = GpuConfig::embedded();
    EXPECT_EQ(embedded.numShaders, 1u);
    EXPECT_EQ(embedded.memoryChannels, 1u);
}

TEST(Framebuffer, TiledAddressing)
{
    // 8x8 tiles of 4-byte pixels: 256 bytes per tile.
    EXPECT_EQ(fbPixelAddress(0, 64, 0, 0), 0u);
    EXPECT_EQ(fbPixelAddress(0, 64, 7, 0), 28u);
    EXPECT_EQ(fbPixelAddress(0, 64, 0, 1), 32u);
    EXPECT_EQ(fbPixelAddress(0, 64, 8, 0), 256u); // Next tile.
    EXPECT_EQ(fbPixelAddress(0, 64, 0, 8), 8 * 256u); // Next row.
    EXPECT_EQ(fbTileIndex(64, 9, 9), 9u);
    EXPECT_EQ(fbSurfaceBytes(64, 64), 64u * 64 * 4);
    // Non-multiple sizes round up to whole tiles.
    EXPECT_EQ(fbSurfaceBytes(60, 60), 8u * 8 * 256);
}
