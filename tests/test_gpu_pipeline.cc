/**
 * @file
 * End-to-end integration tests: complete command streams rendered
 * through the cycle-level pipeline, verified against expected pixels
 * and against the functional reference renderer (the execution-
 * driven verification loop of the paper).
 */

#include <cstring>
#include <gtest/gtest.h>

#include "emu/shader_isa.hh"
#include "gpu/framebuffer.hh"
#include "gpu/gpu.hh"
#include "gpu/ref_renderer.hh"

using namespace attila;
using namespace attila::gpu;

namespace
{

constexpr u32 fbW = 64;
constexpr u32 fbH = 64;

/** Common register setup: 64x64 target, buffers at 0 / 16K. */
void
emitSurfaceSetup(CommandList& list)
{
    using C = Command;
    list.push_back(C::writeReg(Reg::FbWidth, RegValue(fbW)));
    list.push_back(C::writeReg(Reg::FbHeight, RegValue(fbH)));
    list.push_back(C::writeReg(Reg::ColorBufferAddr, RegValue(0u)));
    list.push_back(C::writeReg(
        Reg::ZStencilBufferAddr,
        RegValue(fbSurfaceBytes(fbW, fbH))));
    list.push_back(C::writeReg(Reg::ViewportX, RegValue(0u)));
    list.push_back(C::writeReg(Reg::ViewportY, RegValue(0u)));
    list.push_back(C::writeReg(Reg::ViewportWidth, RegValue(fbW)));
    list.push_back(C::writeReg(Reg::ViewportHeight, RegValue(fbH)));
    list.push_back(C::writeReg(Reg::ClearColor,
                               RegValue(emu::Vec4(0, 0, 0, 1))));
    list.push_back(C::writeReg(Reg::ClearDepth, RegValue(1.0f)));
    list.push_back(C::writeReg(Reg::ClearStencil, RegValue(0u)));
}

/** Passthrough position+color programs. */
void
emitPassthroughPrograms(CommandList& list)
{
    emu::ShaderAssembler assembler;
    list.push_back(Command::loadVertexProgram(assembler.assemble(
        R"(!!ARBvp1.0
MOV result.position, vertex.attrib[0];
MOV result.color, vertex.attrib[3];
END
)")));
    list.push_back(Command::loadFragmentProgram(assembler.assemble(
        R"(!!ARBfp1.0
MOV result.color, fragment.color;
END
)")));
}

/** Upload clip-space float4 positions + float4 colors. */
void
emitVertexData(CommandList& list, u32 posAddr, u32 colAddr,
               const std::vector<emu::Vec4>& positions,
               const std::vector<emu::Vec4>& colors)
{
    std::vector<u8> pos(positions.size() * 16);
    std::memcpy(pos.data(), positions.data(), pos.size());
    list.push_back(Command::writeBuffer(posAddr, std::move(pos)));
    std::vector<u8> col(colors.size() * 16);
    std::memcpy(col.data(), colors.data(), col.size());
    list.push_back(Command::writeBuffer(colAddr, std::move(col)));

    list.push_back(Command::writeReg(Reg::StreamEnable,
                                     RegValue(1u), 0));
    list.push_back(Command::writeReg(Reg::StreamAddress,
                                     RegValue(posAddr), 0));
    list.push_back(Command::writeReg(Reg::StreamStride,
                                     RegValue(16u), 0));
    list.push_back(Command::writeReg(
        Reg::StreamFormat_,
        RegValue(static_cast<u32>(StreamFormat::Float4)), 0));
    list.push_back(Command::writeReg(Reg::StreamEnable,
                                     RegValue(1u), 3));
    list.push_back(Command::writeReg(Reg::StreamAddress,
                                     RegValue(colAddr), 3));
    list.push_back(Command::writeReg(Reg::StreamStride,
                                     RegValue(16u), 3));
    list.push_back(Command::writeReg(
        Reg::StreamFormat_,
        RegValue(static_cast<u32>(StreamFormat::Float4)), 3));
    list.push_back(Command::writeReg(Reg::IndexEnable,
                                     RegValue(0u)));
}

/** Run a command list on a freshly built GPU; return the last
 * frame. */
FrameImage
runOnGpu(const CommandList& list,
         GpuConfig config = GpuConfig::baseline(), Gpu** out = nullptr)
{
    static std::unique_ptr<Gpu> gpu; // Kept alive for 'out'.
    config.memorySize = 8u << 20;
    gpu = std::make_unique<Gpu>(config);
    gpu->submit(list);
    const bool drained = gpu->runUntilIdle(20'000'000);
    EXPECT_TRUE(drained) << "pipeline failed to drain";
    EXPECT_FALSE(gpu->frames().empty());
    if (out)
        *out = gpu.get();
    return gpu->frames().empty() ? FrameImage{}
                                 : gpu->frames().back();
}

/** A depth-tested frame of @p triangles overlapping, partially
 * offscreen triangles with random positions, depths and colours. */
CommandList
randomTrianglesFrame(u64 seed, u32 triangles)
{
    CommandList list;
    emitSurfaceSetup(list);
    emitPassthroughPrograms(list);
    list.push_back(Command::writeReg(Reg::DepthTestEnable,
                                     RegValue(1u)));
    list.push_back(Command::writeReg(
        Reg::DepthFunc,
        RegValue(static_cast<u32>(emu::CompareFunc::Less))));
    list.push_back(Command::writeReg(Reg::DepthWriteMask,
                                     RegValue(1u)));
    list.push_back(Command::clearColor());
    list.push_back(Command::clearZStencil());

    std::vector<emu::Vec4> positions;
    std::vector<emu::Vec4> colors;
    u64 state = seed;
    auto rnd = [&]() {
        state = state * 6364136223846793005ull + 1;
        return static_cast<f32>((state >> 33) & 0xffff) / 65536.0f;
    };
    for (u32 t = 0; t < triangles; ++t) {
        for (u32 v = 0; v < 3; ++v) {
            positions.push_back({rnd() * 3 - 1.5f, rnd() * 3 - 1.5f,
                                 rnd() * 1.6f - 0.8f, 1.0f});
            colors.push_back({rnd(), rnd(), rnd(), 1.0f});
        }
    }
    emitVertexData(list, 0x100000, 0x110000, positions, colors);
    list.push_back(Command::drawBatch(Primitive::Triangles,
                                      static_cast<u32>(
                                          positions.size())));
    list.push_back(Command::swap());
    return list;
}

u32
rgba(u8 r, u8 g, u8 b, u8 a = 255)
{
    return u32(r) | (u32(g) << 8) | (u32(b) << 16) | (u32(a) << 24);
}

} // anonymous namespace

TEST(GpuPipeline, ClearOnly)
{
    CommandList list;
    emitSurfaceSetup(list);
    list.push_back(Command::writeReg(
        Reg::ClearColor, RegValue(emu::Vec4(1, 0, 0, 1))));
    list.push_back(Command::clearColor());
    list.push_back(Command::clearZStencil());
    list.push_back(Command::swap());

    const FrameImage frame = runOnGpu(list);
    ASSERT_EQ(frame.width, fbW);
    for (u32 i = 0; i < frame.pixels.size(); ++i)
        ASSERT_EQ(frame.pixels[i], rgba(255, 0, 0)) << "pixel " << i;
}

TEST(GpuPipeline, SolidTriangle)
{
    CommandList list;
    emitSurfaceSetup(list);
    emitPassthroughPrograms(list);
    emitVertexData(list, 0x100000, 0x110000,
                   {{-1, -1, 0, 1}, {3, -1, 0, 1}, {-1, 3, 0, 1}},
                   {{0, 1, 0, 1}, {0, 1, 0, 1}, {0, 1, 0, 1}});
    list.push_back(Command::clearColor());
    list.push_back(Command::clearZStencil());
    list.push_back(Command::drawBatch(Primitive::Triangles, 3));
    list.push_back(Command::swap());

    // The huge triangle covers the whole viewport: every pixel
    // green.
    const FrameImage frame = runOnGpu(list);
    for (u32 y = 0; y < fbH; ++y) {
        for (u32 x = 0; x < fbW; ++x) {
            ASSERT_EQ(frame.pixel(x, y), rgba(0, 255, 0))
                << "at " << x << "," << y;
        }
    }
}

TEST(GpuPipeline, EmptyBufferWriteDrains)
{
    // glBufferData of size 0 reaches the Command Processor as a
    // WriteBuffer with no bytes: its bus transfer ends, and the next
    // update must retire it although no memory write or ack follows.
    CommandList list;
    emitSurfaceSetup(list);
    emitPassthroughPrograms(list);
    emitVertexData(list, 0x100000, 0x110000,
                   {{-1, -1, 0, 1}, {3, -1, 0, 1}, {-1, 3, 0, 1}},
                   {{0, 1, 0, 1}, {0, 1, 0, 1}, {0, 1, 0, 1}});
    list.push_back(Command::clearColor());
    list.push_back(Command::writeBuffer(0x120000, {}));
    list.push_back(Command::drawBatch(Primitive::Triangles, 3));
    list.push_back(Command::swap());

    struct Mode
    {
        const char* name;
        bool idleSkip;
        bool oracle;
    };
    Cycle reference = 0;
    for (const Mode mode : {Mode{"always clocked", false, false},
                            Mode{"idle skip", true, false},
                            Mode{"sleep oracle", true, true}}) {
        GpuConfig config = GpuConfig::baseline();
        config.memorySize = 8u << 20;
        Gpu gpu(config);
        gpu.simulator().setIdleSkip(mode.idleSkip);
        gpu.simulator().setSleepOracle(mode.oracle);
        gpu.submit(list);
        ASSERT_TRUE(gpu.runUntilIdle(2'000'000))
            << mode.name << ": pipeline did not drain";
        ASSERT_EQ(gpu.frames().size(), 1u) << mode.name;
        EXPECT_EQ(gpu.frames().back().pixel(5, 5), rgba(0, 255, 0))
            << mode.name;
        if (reference == 0)
            reference = gpu.cycle();
        EXPECT_EQ(gpu.cycle(), reference) << mode.name;
    }
}

TEST(GpuPipeline, DepthTestOrdersSurfaces)
{
    CommandList list;
    emitSurfaceSetup(list);
    emitPassthroughPrograms(list);
    list.push_back(Command::writeReg(Reg::DepthTestEnable,
                                     RegValue(1u)));
    list.push_back(Command::writeReg(
        Reg::DepthFunc,
        RegValue(static_cast<u32>(emu::CompareFunc::Less))));
    list.push_back(Command::writeReg(Reg::DepthWriteMask,
                                     RegValue(1u)));
    list.push_back(Command::clearColor());
    list.push_back(Command::clearZStencil());

    // Near full-screen green at z = -0.5 (window 0.25).
    emitVertexData(list, 0x100000, 0x110000,
                   {{-1, -1, -0.5f, 1},
                    {3, -1, -0.5f, 1},
                    {-1, 3, -0.5f, 1}},
                   {{0, 1, 0, 1}, {0, 1, 0, 1}, {0, 1, 0, 1}});
    list.push_back(Command::drawBatch(Primitive::Triangles, 3));

    // Far full-screen red at z = 0.5: must lose everywhere.
    emitVertexData(list, 0x120000, 0x130000,
                   {{-1, -1, 0.5f, 1},
                    {3, -1, 0.5f, 1},
                    {-1, 3, 0.5f, 1}},
                   {{1, 0, 0, 1}, {1, 0, 0, 1}, {1, 0, 0, 1}});
    list.push_back(Command::drawBatch(Primitive::Triangles, 3));
    list.push_back(Command::swap());

    const FrameImage frame = runOnGpu(list);
    for (u32 y = 0; y < fbH; y += 7) {
        for (u32 x = 0; x < fbW; x += 7) {
            ASSERT_EQ(frame.pixel(x, y), rgba(0, 255, 0))
                << "at " << x << "," << y;
        }
    }
}

TEST(GpuPipeline, MatchesReferenceRenderer)
{
    // The Fig 10 methodology in miniature: the timing simulator and
    // the independent functional renderer must produce identical
    // images for a scene with overlapping, depth-tested, partially
    // offscreen triangles.
    const CommandList list = randomTrianglesFrame(7, 12);

    const FrameImage gpuFrame = runOnGpu(list);

    RefRenderer ref(8u << 20);
    ref.execute(list);
    ASSERT_EQ(ref.frames().size(), 1u);
    const FrameImage& refFrame = ref.frames()[0];

    EXPECT_EQ(gpuFrame.diffCount(refFrame), 0u);
}

// Work submitted to a drained GPU starts again: the Command
// Processor sleeps once the first frame drains, and the second
// submit must wake it.  Both frames match the reference renderer,
// and the cycle counts agree with idle skipping off, on, and under
// the sleep oracle.
TEST(GpuPipeline, SubmitAfterDrainRenders)
{
    const CommandList first = randomTrianglesFrame(7, 12);
    const CommandList second = randomTrianglesFrame(11, 16);
    RefRenderer ref(8u << 20);
    ref.execute(first);
    ref.execute(second);
    ASSERT_EQ(ref.frames().size(), 2u);

    struct Mode
    {
        const char* name;
        bool idleSkip;
        bool oracle;
    };
    std::vector<Cycle> reference;
    for (const Mode mode : {Mode{"always clocked", false, false},
                            Mode{"idle skip", true, false},
                            Mode{"sleep oracle", true, true}}) {
        GpuConfig config = GpuConfig::baseline();
        config.memorySize = 8u << 20;
        Gpu gpu(config);
        gpu.simulator().setIdleSkip(mode.idleSkip);
        gpu.simulator().setSleepOracle(mode.oracle);
        std::vector<Cycle> cycles;
        for (const CommandList* frame : {&first, &second}) {
            gpu.submit(*frame);
            ASSERT_TRUE(gpu.runUntilIdle(2'000'000))
                << mode.name << ": frame " << cycles.size()
                << " did not drain";
            cycles.push_back(gpu.cycle());
        }
        ASSERT_EQ(gpu.frames().size(), 2u) << mode.name;
        for (u32 f = 0; f < 2; ++f) {
            EXPECT_EQ(gpu.frames()[f].diffCount(ref.frames()[f]), 0u)
                << mode.name << ": frame " << f;
        }
        if (reference.empty())
            reference = cycles;
        EXPECT_EQ(cycles, reference) << mode.name;
    }
}

struct VertexCacheCounts
{
    u64 hits = 0;
    u64 misses = 0;
};

/**
 * Draw a blue 16-bit indexed triangle strip over @p numVertices
 * zig-zag vertices with a @p cacheEntries post-shading vertex cache;
 * check the image against the reference renderer and return the
 * Streamer's vertex cache counters.
 */
VertexCacheCounts
runIndexedStrip(const std::vector<u16>& indices, u32 numVertices,
                u32 cacheEntries, FrameImage* frameOut = nullptr)
{
    CommandList list;
    emitSurfaceSetup(list);
    emitPassthroughPrograms(list);
    list.push_back(Command::clearColor());
    list.push_back(Command::clearZStencil());

    std::vector<emu::Vec4> positions;
    std::vector<emu::Vec4> colors;
    for (u32 i = 0; i < numVertices; ++i) {
        const f32 x = -0.9f + 1.75f * i / (numVertices - 1);
        positions.push_back({x, i % 2 ? 0.6f : -0.6f, 0, 1});
        colors.push_back({0, 0, 1, 1});
    }
    emitVertexData(list, 0x100000, 0x110000, positions, colors);

    std::vector<u8> ib(indices.size() * 2);
    std::memcpy(ib.data(), indices.data(), ib.size());
    list.push_back(Command::writeBuffer(0x140000, std::move(ib)));
    list.push_back(Command::writeReg(Reg::IndexEnable,
                                     RegValue(1u)));
    list.push_back(Command::writeReg(Reg::IndexAddress,
                                     RegValue(0x140000u)));
    list.push_back(Command::writeReg(Reg::IndexWide, RegValue(0u)));
    list.push_back(Command::drawBatch(Primitive::TriangleStrip,
                                      static_cast<u32>(
                                          indices.size())));
    list.push_back(Command::swap());

    GpuConfig config = GpuConfig::baseline();
    config.vertexCacheEntries = cacheEntries;
    Gpu* gpu = nullptr;
    const FrameImage frame = runOnGpu(list, config, &gpu);

    RefRenderer ref(8u << 20);
    ref.execute(list);
    EXPECT_EQ(frame.diffCount(ref.frames()[0]), 0u)
        << cacheEntries << "-entry vertex cache";
    if (frameOut)
        *frameOut = frame;

    VertexCacheCounts counts;
    const auto* hits = gpu->stats().find("Streamer.vertexCacheHits");
    const auto* misses =
        gpu->stats().find("Streamer.vertexCacheMisses");
    EXPECT_NE(hits, nullptr);
    EXPECT_NE(misses, nullptr);
    if (hits && misses) {
        counts.hits = hits->total();
        counts.misses = misses->total();
    }
    return counts;
}

TEST(GpuPipeline, IndexedStripWithVertexCache)
{
    // Four passes over the same eight strip vertices: later passes
    // find the shaded results in the post-shading vertex cache (the
    // first pass may still be in flight when its immediate repeats
    // dispatch).  The exact counts pin the cache's timing: a
    // disabled cache never hits, and neither does a one-entry cache,
    // which only holds the latest shaded vertex.
    std::vector<u16> indices;
    for (u32 pass = 0; pass < 4; ++pass) {
        for (u16 i = 0; i < 8; ++i)
            indices.push_back(i);
    }
    struct Expected
    {
        u32 entries;
        VertexCacheCounts counts;
    };
    const Expected expected[] = {
        {0, {0, 32}},
        {1, {0, 32}},
        {16, {7, 25}},
    };
    for (const Expected& e : expected) {
        FrameImage frame;
        const VertexCacheCounts counts =
            runIndexedStrip(indices, 8, e.entries, &frame);
        EXPECT_EQ(counts.hits, e.counts.hits) << e.entries;
        EXPECT_EQ(counts.misses, e.counts.misses) << e.entries;
        EXPECT_EQ(counts.hits + counts.misses, indices.size());
        // Center of the strip band is blue.
        EXPECT_EQ(frame.pixel(fbW / 2, fbH / 2), rgba(0, 0, 255));
    }
}

TEST(GpuPipeline, VertexCacheEvictsInFifoOrder)
{
    // 24 distinct vertices through a 16-entry cache, revisited in a
    // scrambled order: which repeats hit depends on which entries
    // the first-in-first-out replacement has already evicted.
    std::vector<u16> indices;
    for (u32 pass = 0; pass < 6; ++pass) {
        for (u32 i = 0; i < 24; ++i)
            indices.push_back(static_cast<u16>((i * 7 + pass * 5) % 24));
    }
    const VertexCacheCounts counts = runIndexedStrip(indices, 24, 16);
    EXPECT_EQ(counts.hits, 69u);
    EXPECT_EQ(counts.misses, 75u);
}

TEST(GpuPipeline, NonUnifiedPipelineRenders)
{
    GpuConfig config;
    config.unifiedShaders = false;

    CommandList list;
    emitSurfaceSetup(list);
    emitPassthroughPrograms(list);
    emitVertexData(list, 0x100000, 0x110000,
                   {{-1, -1, 0, 1}, {3, -1, 0, 1}, {-1, 3, 0, 1}},
                   {{1, 1, 0, 1}, {1, 1, 0, 1}, {1, 1, 0, 1}});
    list.push_back(Command::clearColor());
    list.push_back(Command::clearZStencil());
    list.push_back(Command::drawBatch(Primitive::Triangles, 3));
    list.push_back(Command::swap());

    const FrameImage frame = runOnGpu(list, config);
    EXPECT_EQ(frame.pixel(5, 5), rgba(255, 255, 0));
}

TEST(GpuPipeline, NonUnifiedVertexTextureFetchPanicsNamingUnit)
{
    // The assembler rejects TEX in a vertex program, but a program
    // built in code can carry one.  Vertex-only units have no Texture
    // Unit links, so it is an explicit panic, not an out-of-range
    // link.
    GpuConfig config;
    config.unifiedShaders = false;
    config.memorySize = 8u << 20;

    emu::ShaderAssembler assembler;
    const emu::ShaderProgramPtr tex = assembler.assemble(R"(!!ARBfp1.0
TEX result.color, fragment.texcoord[0], texture[0], 2D;
END
)");
    auto vp = std::make_shared<emu::ShaderProgram>(*assembler.assemble(
        R"(!!ARBvp1.0
MOV result.position, vertex.attrib[0];
MOV result.color, vertex.attrib[3];
END
)"));
    vp->code.insert(vp->code.begin(), tex->code.front());

    CommandList list;
    emitSurfaceSetup(list);
    list.push_back(Command::loadVertexProgram(vp));
    list.push_back(Command::loadFragmentProgram(assembler.assemble(
        R"(!!ARBfp1.0
MOV result.color, fragment.color;
END
)")));
    emitVertexData(list, 0x100000, 0x110000,
                   {{-1, -1, 0, 1}, {3, -1, 0, 1}, {-1, 3, 0, 1}},
                   {{1, 1, 0, 1}, {1, 1, 0, 1}, {1, 1, 0, 1}});
    list.push_back(Command::drawBatch(Primitive::Triangles, 3));
    list.push_back(Command::swap());

    Gpu gpu(config);
    gpu.submit(list);
    try {
        gpu.runUntilIdle(1'000'000);
        ADD_FAILURE() << "TEX on a vertex-only unit did not panic";
    } catch (const SimError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "texture fetch in a vertex program"),
                  std::string::npos)
            << e.what();
    }
}

TEST(GpuPipeline, HzCullsHiddenTiles)
{
    // Draw a near quad, then a far quad: the Hierarchical Z buffer
    // only helps after Z-cache evictions, so force many overdraw
    // layers and check the culled-tile statistic moves while the
    // image stays correct.
    CommandList list;
    emitSurfaceSetup(list);
    emitPassthroughPrograms(list);
    list.push_back(Command::writeReg(Reg::DepthTestEnable,
                                     RegValue(1u)));
    list.push_back(Command::writeReg(
        Reg::DepthFunc,
        RegValue(static_cast<u32>(emu::CompareFunc::Less))));
    list.push_back(Command::writeReg(Reg::DepthWriteMask,
                                     RegValue(1u)));
    list.push_back(Command::clearColor());
    list.push_back(Command::clearZStencil());

    emitVertexData(list, 0x100000, 0x110000,
                   {{-1, -1, -0.9f, 1},
                    {3, -1, -0.9f, 1},
                    {-1, 3, -0.9f, 1}},
                   {{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}});
    list.push_back(Command::drawBatch(Primitive::Triangles, 3));
    // Many hidden layers behind it.
    for (u32 i = 0; i < 6; ++i)
        list.push_back(Command::drawBatch(Primitive::Triangles, 3));
    list.push_back(Command::swap());

    Gpu* gpu = nullptr;
    const FrameImage frame = runOnGpu(list, GpuConfig::baseline(),
                                      &gpu);
    EXPECT_EQ(frame.pixel(1, 1), rgba(255, 255, 255));
    const auto* culled =
        gpu->stats().find("HierarchicalZ.tilesCulled");
    ASSERT_NE(culled, nullptr);
    // Same-depth layers fail LESS everywhere; whether HZ culled them
    // depends on eviction timing, so only require sanity here.
    const auto* tiles = gpu->stats().find("HierarchicalZ.tiles");
    ASSERT_NE(tiles, nullptr);
    EXPECT_GT(tiles->total(), 0u);
    EXPECT_LE(culled->total(), tiles->total());
}

TEST(GpuPipeline, StatisticsArePopulated)
{
    CommandList list;
    emitSurfaceSetup(list);
    emitPassthroughPrograms(list);
    emitVertexData(list, 0x100000, 0x110000,
                   {{-1, -1, 0, 1}, {3, -1, 0, 1}, {-1, 3, 0, 1}},
                   {{0, 1, 0, 1}, {0, 1, 0, 1}, {0, 1, 0, 1}});
    list.push_back(Command::clearColor());
    list.push_back(Command::clearZStencil());
    list.push_back(Command::drawBatch(Primitive::Triangles, 3));
    list.push_back(Command::swap());

    Gpu* gpu = nullptr;
    runOnGpu(list, GpuConfig::baseline(), &gpu);
    EXPECT_EQ(gpu->stats().find("Streamer.vertices")->total(), 3u);
    EXPECT_EQ(gpu->stats().find("PrimitiveAssembly.triangles")
                  ->total(),
              1u);
    EXPECT_EQ(
        gpu->stats().find("FragmentGenerator.fragments")->total(),
        fbW * fbH);
    // 64x64 = 4096 fragments = 1024 quads through the ROPs.
    u64 ropQuads = 0;
    for (u32 r = 0; r < gpu->config().numRops; ++r) {
        ropQuads += gpu->stats()
                        .find("ColorWrite" + std::to_string(r) +
                              ".quads")
                        ->total();
    }
    EXPECT_EQ(ropQuads, fbW * fbH / 4);
    // The memory controller moved real data.
    EXPECT_GT(gpu->stats().find("MemoryController.readBytes")
                  ->total(),
              0u);
}
