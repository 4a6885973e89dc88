/**
 * @file
 * Timing-property tests: the cycle-level model must reflect the
 * architectural behaviours the paper describes — batch pipelining,
 * memory page/turnaround penalties, texture filter throughput and
 * the thread window's latency-hiding advantage.
 */

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>

#include "gl/context.hh"
#include "gpu/gpu.hh"
#include "gpu/memory_controller.hh"
#include "sim/simulator.hh"
#include "workloads/cubes.hh"
#include "workloads/terrain.hh"
#include "workloads/workload.hh"

using namespace attila;
using namespace attila::gpu;

namespace
{

constexpr u32 fbW = 64;
constexpr u32 fbH = 64;

/** Command stream drawing @p draws consecutive small triangles. */
CommandList
smallDraws(u32 draws)
{
    using C = Command;
    CommandList list;
    list.push_back(C::writeReg(Reg::FbWidth, RegValue(fbW)));
    list.push_back(C::writeReg(Reg::FbHeight, RegValue(fbH)));
    list.push_back(C::writeReg(Reg::ColorBufferAddr, RegValue(0u)));
    list.push_back(C::writeReg(Reg::ZStencilBufferAddr,
                               RegValue(fbSurfaceBytes(fbW, fbH))));
    list.push_back(C::writeReg(Reg::ViewportWidth, RegValue(fbW)));
    list.push_back(C::writeReg(Reg::ViewportHeight, RegValue(fbH)));

    emu::ShaderAssembler assembler;
    list.push_back(C::loadVertexProgram(assembler.assemble(
        "!!ARBvp1.0\nMOV result.position, vertex.attrib[0];\n"
        "MOV result.color, vertex.attrib[3];\nEND\n")));
    list.push_back(C::loadFragmentProgram(assembler.assemble(
        "!!ARBfp1.0\nMOV result.color, fragment.color;\nEND\n")));

    std::vector<emu::Vec4> positions = {
        {-0.5f, -0.5f, 0, 1}, {0.5f, -0.5f, 0, 1}, {0, 0.5f, 0, 1}};
    std::vector<emu::Vec4> colors(3, {0.5f, 0.5f, 0.5f, 1});
    std::vector<u8> pos(48);
    std::memcpy(pos.data(), positions.data(), 48);
    list.push_back(C::writeBuffer(0x100000, std::move(pos)));
    std::vector<u8> col(48);
    std::memcpy(col.data(), colors.data(), 48);
    list.push_back(C::writeBuffer(0x110000, std::move(col)));
    for (u32 attr : {0u, 3u}) {
        list.push_back(C::writeReg(Reg::StreamEnable, RegValue(1u),
                                   attr));
        list.push_back(C::writeReg(
            Reg::StreamAddress,
            RegValue(attr == 0 ? 0x100000u : 0x110000u), attr));
        list.push_back(C::writeReg(Reg::StreamStride,
                                   RegValue(16u), attr));
        list.push_back(C::writeReg(
            Reg::StreamFormat_,
            RegValue(static_cast<u32>(StreamFormat::Float4)),
            attr));
    }
    list.push_back(C::clearColor());
    list.push_back(C::clearZStencil());
    for (u32 d = 0; d < draws; ++d)
        list.push_back(C::drawBatch(Primitive::Triangles, 3));
    list.push_back(C::swap());
    return list;
}

u64
cyclesFor(const CommandList& list,
          GpuConfig config = GpuConfig::baseline())
{
    config.memorySize = 8u << 20;
    Gpu gpu(config);
    gpu.submit(list);
    EXPECT_TRUE(gpu.runUntilIdle(100'000'000));
    return gpu.cycle();
}

} // anonymous namespace

TEST(TimingProperties, BatchPipeliningOverlapsDraws)
{
    // With two batches in flight (geometry + fragment phase), N
    // consecutive draws must cost far less than N serialized
    // pipeline traversals.
    const u64 one = cyclesFor(smallDraws(1));
    const u64 sixteen = cyclesFor(smallDraws(16));
    // Serial execution would approach 16x; pipelining should stay
    // well under half of that.
    EXPECT_LT(sixteen, one * 8);
    // And more draws must still cost something.
    EXPECT_GT(sixteen, one);
}

TEST(TimingProperties, MemoryPagePenaltyVisible)
{
    // Sequential same-page bursts vs page-hopping bursts through
    // the memory controller harness: the page-open penalty must
    // show in the cycle count.
    struct Client : sim::Box
    {
        Client(sim::SignalBinder& binder,
               sim::StatisticManager& stats, const GpuConfig& config)
            : Box(binder, stats, "client")
        {
            mem.init(*this, binder, "mc.t",
                     config.memoryRequestQueue);
            wake();
        }
        sim::Next
        update(Cycle cycle) override
        {
            mem.clock(cycle);
            while (mem.hasResponse()) {
                mem.popResponse(cycle);
                ++received;
            }
            while (sent < addrs.size() && mem.canRequest(cycle)) {
                auto txn = std::make_shared<MemTransaction>();
                txn->isRead = true;
                txn->address = addrs[sent];
                txn->size = 64;
                mem.request(cycle, txn);
                ++sent;
            }
            return sim::Next::runs();
        }
        MemPort mem;
        std::vector<u32> addrs;
        std::size_t sent = 0;
        u32 received = 0;
    };

    auto measure = [](bool hop) {
        GpuConfig config;
        config.memoryChannels = 1; // One channel isolates paging.
        emu::GpuMemory memory(1 << 22);
        sim::Simulator sim;
        Client client(sim.binder(), sim.stats(), config);
        MemoryController mc(sim.binder(), sim.stats(), config,
                            memory, {"mc.t"});
        sim.addBox(&client);
        sim.addBox(&mc);
        for (u32 i = 0; i < 32; ++i) {
            client.addrs.push_back(
                hop ? i * config.memoryPageBytes : i * 64);
        }
        u64 cycles = 0;
        while (client.received < 32 && cycles < 20000) {
            sim.step();
            ++cycles;
        }
        EXPECT_EQ(client.received, 32u);
        return cycles;
    };

    const u64 samePage = measure(false);
    const u64 hopping = measure(true);
    GpuConfig config;
    // Each page hop costs pageOpenPenalty extra cycles.
    EXPECT_GE(hopping, samePage + 31 * config.pageOpenPenalty / 2);
}

TEST(TimingProperties, ReadWriteTurnaroundVisible)
{
    struct Client : sim::Box
    {
        Client(sim::SignalBinder& binder,
               sim::StatisticManager& stats, const GpuConfig& config)
            : Box(binder, stats, "client")
        {
            mem.init(*this, binder, "mc.t",
                     config.memoryRequestQueue);
            wake();
        }
        sim::Next
        update(Cycle cycle) override
        {
            mem.clock(cycle);
            while (mem.hasResponse()) {
                mem.popResponse(cycle);
                ++received;
            }
            while (sent < 32 && mem.canRequest(cycle)) {
                auto txn = std::make_shared<MemTransaction>();
                txn->isRead = alternate ? (sent % 2 == 0) : true;
                txn->address = 0x1000; // Same page throughout.
                txn->size = 64;
                if (!txn->isRead)
                    std::fill_n(txn->data.begin(), 64, u8{0xab});
                mem.request(cycle, txn);
                ++sent;
            }
            return sim::Next::runs();
        }
        MemPort mem;
        bool alternate = false;
        u32 sent = 0;
        u32 received = 0;
    };

    auto measure = [](bool alternate) {
        GpuConfig config;
        config.memoryChannels = 1;
        emu::GpuMemory memory(1 << 20);
        sim::Simulator sim;
        Client client(sim.binder(), sim.stats(), config);
        client.alternate = alternate;
        MemoryController mc(sim.binder(), sim.stats(), config,
                            memory, {"mc.t"});
        sim.addBox(&client);
        sim.addBox(&mc);
        u64 cycles = 0;
        while (client.received < 32 && cycles < 20000) {
            sim.step();
            ++cycles;
        }
        EXPECT_EQ(client.received, 32u);
        return cycles;
    };

    const u64 readsOnly = measure(false);
    const u64 alternating = measure(true);
    GpuConfig config;
    EXPECT_GE(alternating,
              readsOnly + 28 * config.readWriteTurnaround);
}

TEST(TimingProperties, TrilinearCostsTwiceBilinear)
{
    // The paper's texture unit throughput: one bilinear sample per
    // cycle, one trilinear every two cycles.  Render the same
    // magnified... rather, minified scene with mip-nearest
    // (bilinear) vs mip-linear (trilinear) filtering and compare
    // texture unit busy cycles.
    auto build = [](emu::MinFilter filter) {
        workloads::Rng rng(3);
        gl::Context ctx(fbW, fbH, 16u << 20);
        const u32 tex = ctx.genTexture();
        ctx.activeTexture(0);
        ctx.bindTexture(tex);
        ctx.texImage2D(0, emu::TexFormat::RGBA8, 64, 64,
                       workloads::makeDiffuseTexture(64, rng));
        ctx.generateMipmaps();
        ctx.texFilter(filter, true);
        ctx.texWrap(emu::WrapMode::Repeat, emu::WrapMode::Repeat);
        ctx.enable(gl::Cap::Texture2D);

        // Fullscreen quad with many texture repeats: minified
        // between mip levels.
        struct V { f32 p[3]; f32 uv[2]; };
        const V verts[4] = {{{-1, -1, 0}, {0, 0}},
                            {{1, -1, 0}, {5.3f, 0}},
                            {{1, 1, 0}, {5.3f, 5.3f}},
                            {{-1, 1, 0}, {0, 5.3f}}};
        std::vector<u8> bytes(sizeof(verts));
        std::memcpy(bytes.data(), verts, sizeof(verts));
        const u32 buf = ctx.genBuffer();
        ctx.bufferData(buf, std::move(bytes));
        ctx.vertexPointer(buf, StreamFormat::Float3, sizeof(V), 0);
        ctx.texCoordPointer(0, buf, StreamFormat::Float2,
                            sizeof(V), 12);
        ctx.clear(gl::clearColorBit | gl::clearDepthBit);
        ctx.drawArrays(Primitive::Quads, 0, 4);
        ctx.swapBuffers();
        return ctx.takeCommands();
    };

    auto tuOps = [](const CommandList& list) {
        GpuConfig config;
        config.memorySize = 16u << 20;
        Gpu gpu(config);
        gpu.submit(list);
        EXPECT_TRUE(gpu.runUntilIdle(100'000'000));
        u64 ops = 0;
        for (u32 t = 0; t < config.numTextureUnits; ++t) {
            ops += gpu.stats()
                       .find("TextureUnit" + std::to_string(t) +
                             ".bilinearOps")
                       ->total();
        }
        return ops;
    };

    const u64 bilinear =
        tuOps(build(emu::MinFilter::LinearMipNearest));
    const u64 trilinear =
        tuOps(build(emu::MinFilter::LinearMipLinear));
    // Trilinear between levels charges two bilinear operations per
    // sample; exactly 2x when every fragment lands between levels.
    EXPECT_GT(trilinear, bilinear * 3 / 2);
    EXPECT_LE(trilinear, bilinear * 2);
}

TEST(TimingProperties, WindowNeverSlowerThanQueue)
{
    // The thread window hides texture latency; the in-order queue
    // cannot.  On a textured workload the window configuration must
    // not lose.
    workloads::WorkloadParams params;
    params.width = 96;
    params.height = 96;
    params.frames = 1;
    params.textureSize = 32;
    params.detail = 4;
    params.anisotropy = 4;
    workloads::TerrainWorkload terrain(params);
    gl::Context ctx(params.width, params.height, 32u << 20);
    terrain.setup(ctx);
    terrain.renderFrame(ctx, 0);
    const CommandList list = ctx.takeCommands();

    GpuConfig window =
        GpuConfig::caseStudy(ShaderScheduling::ThreadWindow, 2);
    window.memorySize = 32u << 20;
    GpuConfig queue =
        GpuConfig::caseStudy(ShaderScheduling::InOrderQueue, 2);
    queue.memorySize = 32u << 20;

    Gpu gpuWindow(window);
    gpuWindow.submit(list);
    ASSERT_TRUE(gpuWindow.runUntilIdle(400'000'000));
    Gpu gpuQueue(queue);
    gpuQueue.submit(list);
    ASSERT_TRUE(gpuQueue.runUntilIdle(400'000'000));

    EXPECT_LT(gpuWindow.cycle(), gpuQueue.cycle());
}

TEST(TimingProperties, MoreShadersNotSlower)
{
    workloads::WorkloadParams params;
    params.width = 96;
    params.height = 96;
    params.frames = 1;
    params.textureSize = 32;
    params.detail = 4;
    workloads::CubesWorkload cubes(params);
    gl::Context ctx(params.width, params.height, 32u << 20);
    cubes.setup(ctx);
    cubes.renderFrame(ctx, 0);
    const CommandList list = ctx.takeCommands();

    GpuConfig one;
    one.numShaders = 1;
    one.numTextureUnits = 1;
    GpuConfig four;
    four.numShaders = 4;
    four.numTextureUnits = 4;
    const u64 cyclesOne = cyclesFor(list, one);
    const u64 cyclesFour = cyclesFor(list, four);
    EXPECT_LE(cyclesFour, cyclesOne);
}
