/**
 * @file
 * Unit tests for the OpenGL framework: context state, driver memory
 * allocation, fixed-function program generation, alpha-test
 * injection and trace capture/replay.
 */

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <gtest/gtest.h>

#include "emu/shader_emulator.hh"
#include "gl/context.hh"
#include "gl/trace.hh"
#include "gpu/ref_renderer.hh"
#include "sim/logging.hh"

using namespace attila;
using namespace attila::gl;

namespace
{

/** Larger than anything this program allocates on purpose: a request
 * above it is a length taken from a corrupt file. */
constexpr std::size_t kMaxAllocation = std::size_t{1} << 30;

} // anonymous namespace

// Refuse oversized requests instead of touching gigabytes, so a reader
// that allocates a corrupt length fails with std::bad_alloc.  Out of
// line for the reason given in test_cache_mc.cc.
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    if (size <= kMaxAllocation) {
        if (void* p = std::malloc(size != 0 ? size : 1))
            return p;
    }
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

// ===== Allocator ====================================================

TEST(GpuMemoryAllocator, AllocateReleaseCoalesce)
{
    GpuMemoryAllocator alloc(0x1000, 0x10000);
    const u32 a = alloc.allocate(100);   // Rounds to 256.
    const u32 b = alloc.allocate(300);   // Rounds to 512.
    const u32 c = alloc.allocate(256);
    EXPECT_EQ(a, 0x1000u);
    EXPECT_EQ(b, 0x1100u);
    EXPECT_EQ(c, 0x1300u);
    EXPECT_EQ(alloc.allocated(), 256u + 512u + 256u);

    alloc.release(b);
    // Freed space is reused (first fit).
    const u32 d = alloc.allocate(500);
    EXPECT_EQ(d, b);
    alloc.release(a);
    alloc.release(d);
    alloc.release(c);
    EXPECT_EQ(alloc.allocated(), 0u);
    // After full release + coalescing a large block fits again.
    EXPECT_EQ(alloc.allocate(0x10000 - 256), 0x1000u);
}

TEST(GpuMemoryAllocator, ExhaustionThrows)
{
    GpuMemoryAllocator alloc(0, 1024);
    alloc.allocate(512);
    alloc.allocate(512);
    EXPECT_THROW(alloc.allocate(256), FatalError);
}

TEST(GpuMemoryAllocator, ReleaseUnknownPanics)
{
    GpuMemoryAllocator alloc(0, 1024);
    EXPECT_THROW(alloc.release(123), SimError);
}

// ===== Fixed function ===============================================

TEST(FixedFunction, VertexProgramAssembles)
{
    FixedFunctionGenerator gen;
    FixedFunctionKey key;
    key.lighting = true;
    key.lightMask = 0x3;
    key.textureMask = 0x3;
    key.fog = true;
    auto prog = gen.vertexProgram(key);
    ASSERT_NE(prog, nullptr);
    EXPECT_EQ(prog->target, emu::ShaderTarget::Vertex);
    // Writes position, color, two texcoords and fogcoord.
    using namespace emu::regix;
    EXPECT_TRUE(prog->outputsWritten & (1u << vposPosition));
    EXPECT_TRUE(prog->outputsWritten & (1u << ioColor));
    EXPECT_TRUE(prog->outputsWritten & (1u << ioTexCoordBase));
    EXPECT_TRUE(prog->outputsWritten & (1u << (ioTexCoordBase + 1)));
    EXPECT_TRUE(prog->outputsWritten & (1u << ioFogCoord));
    // Cached: same key returns the same object.
    EXPECT_EQ(gen.vertexProgram(key).get(), prog.get());
}

TEST(FixedFunction, FragmentProgramTexEnvModes)
{
    FixedFunctionGenerator gen;
    FixedFunctionKey key;
    key.textureMask = 0x1;
    for (TexEnvMode mode :
         {TexEnvMode::Modulate, TexEnvMode::Replace,
          TexEnvMode::Decal, TexEnvMode::Add}) {
        key.envModes[0] = mode;
        auto prog = gen.fragmentProgram(key);
        ASSERT_NE(prog, nullptr);
        EXPECT_EQ(prog->texturesUsed, 1u);
    }
}

TEST(FixedFunction, ModulateSemantics)
{
    // Run the generated modulate program through the emulator with a
    // fake sampler: output = color * texel.
    FixedFunctionGenerator gen;
    FixedFunctionKey key;
    key.textureMask = 0x1;
    key.envModes[0] = TexEnvMode::Modulate;
    auto prog = gen.fragmentProgram(key);

    emu::ShaderEmulator emulator;
    emu::ShaderThreadState state;
    state.in[emu::regix::ioColor] = {0.5f, 1.0f, 0.25f, 1.0f};
    emu::ConstantBank constants =
        emu::ShaderEmulator::makeConstants(*prog);
    auto samplerFn =
        [](u32, emu::TexTarget, const emu::Vec4&, f32, bool) {
            return emu::Vec4{1.0f, 0.5f, 1.0f, 0.5f};
        };
    emu::ImmediateSampler sampler = samplerFn;
    ASSERT_TRUE(emulator.run(*prog, constants, state, &sampler));
    const emu::Vec4 out = state.out[emu::regix::foutColor];
    EXPECT_FLOAT_EQ(out.x, 0.5f);
    EXPECT_FLOAT_EQ(out.y, 0.5f);
    EXPECT_FLOAT_EQ(out.z, 0.25f);
    EXPECT_FLOAT_EQ(out.w, 0.5f);
}

namespace
{

/** Run a fragment program with alpha env configured; return whether
 * the fragment survived. */
bool
survives(const emu::ShaderProgram& prog, f32 alpha, f32 ref)
{
    emu::ShaderEmulator emulator;
    emu::ShaderThreadState state;
    state.in[emu::regix::ioColor] = {0.1f, 0.2f, 0.3f, alpha};
    emu::ConstantBank constants =
        emu::ShaderEmulator::makeConstants(prog);
    constants[envAlphaRef] = {ref, 0.5f, 1.0f, 0.0f};
    return emulator.run(prog, constants, state);
}

} // anonymous namespace

TEST(FixedFunction, AlphaTestInjection)
{
    emu::ShaderAssembler assembler;
    auto base = assembler.assemble(R"(!!ARBfp1.0
MOV result.color, fragment.color;
END
)");

    struct Case
    {
        emu::CompareFunc func;
        f32 alpha;
        f32 ref;
        bool pass;
    };
    const Case cases[] = {
        {emu::CompareFunc::Greater, 0.8f, 0.5f, true},
        {emu::CompareFunc::Greater, 0.3f, 0.5f, false},
        {emu::CompareFunc::Greater, 0.5f, 0.5f, false},
        {emu::CompareFunc::Less, 0.3f, 0.5f, true},
        {emu::CompareFunc::Less, 0.7f, 0.5f, false},
        {emu::CompareFunc::GreaterEqual, 0.5f, 0.5f, true},
        {emu::CompareFunc::LessEqual, 0.5f, 0.5f, true},
        {emu::CompareFunc::LessEqual, 0.51f, 0.5f, false},
        {emu::CompareFunc::Equal, 0.5f, 0.5f, true},
        {emu::CompareFunc::Equal, 0.4f, 0.5f, false},
        {emu::CompareFunc::NotEqual, 0.4f, 0.5f, true},
        {emu::CompareFunc::NotEqual, 0.5f, 0.5f, false},
        {emu::CompareFunc::Never, 0.9f, 0.5f, false},
    };
    for (const Case& c : cases) {
        auto injected =
            FixedFunctionGenerator::injectAlphaTest(*base, c.func);
        EXPECT_EQ(survives(*injected, c.alpha, c.ref), c.pass)
            << "func " << static_cast<int>(c.func) << " alpha "
            << c.alpha;
        // The surviving fragment's colour is preserved.
        if (c.pass) {
            emu::ShaderEmulator emulator;
            emu::ShaderThreadState state;
            state.in[emu::regix::ioColor] = {0.1f, 0.2f, 0.3f,
                                             c.alpha};
            emu::ConstantBank constants =
                emu::ShaderEmulator::makeConstants(*injected);
            constants[envAlphaRef] = {c.ref, 0.5f, 1.0f, 0.0f};
            emulator.run(*injected, constants, state);
            EXPECT_FLOAT_EQ(
                state.out[emu::regix::foutColor].x, 0.1f);
        }
    }
}

TEST(FixedFunction, InjectionAlwaysIsNoop)
{
    emu::ShaderAssembler assembler;
    auto base = assembler.assemble(
        "!!ARBfp1.0\nMOV result.color, fragment.color;\nEND\n");
    auto injected = FixedFunctionGenerator::injectAlphaTest(
        *base, emu::CompareFunc::Always);
    EXPECT_EQ(injected->code.size(), base->code.size());
}

// ===== Context / command emission ===================================

TEST(Context, EmitsDrawCommands)
{
    Context ctx(64, 64, 8u << 20);
    const u32 buf = ctx.genBuffer();
    std::vector<u8> data(16 * 3, 0);
    ctx.bufferData(buf, data);
    ctx.vertexPointer(buf, gpu::StreamFormat::Float4, 16, 0);
    ctx.clear(clearColorBit | clearDepthBit);
    ctx.color(1, 0, 0, 1);
    ctx.drawArrays(gpu::Primitive::Triangles, 0, 3);
    ctx.swapBuffers();

    const gpu::CommandList list = ctx.takeCommands();
    u32 draws = 0, clears = 0, swaps = 0, loads = 0, writes = 0;
    for (const auto& cmd : list) {
        switch (cmd.op) {
          case gpu::CommandOp::Draw: ++draws; break;
          case gpu::CommandOp::ClearColor:
          case gpu::CommandOp::ClearZStencil: ++clears; break;
          case gpu::CommandOp::Swap: ++swaps; break;
          case gpu::CommandOp::LoadVertexProgram:
          case gpu::CommandOp::LoadFragmentProgram: ++loads; break;
          case gpu::CommandOp::WriteBuffer: ++writes; break;
          default: break;
        }
    }
    EXPECT_EQ(draws, 1u);
    EXPECT_EQ(clears, 2u);
    EXPECT_EQ(swaps, 1u);
    EXPECT_EQ(loads, 2u); // Generated FF vertex + fragment.
    EXPECT_EQ(writes, 1u);
    EXPECT_EQ(ctx.drawCallCount(), 1u);
    EXPECT_EQ(ctx.frameCount(), 1u);
}

TEST(Context, ProgramReloadOnlyOnChange)
{
    Context ctx(64, 64, 8u << 20);
    const u32 buf = ctx.genBuffer();
    ctx.bufferData(buf, std::vector<u8>(48, 0));
    ctx.vertexPointer(buf, gpu::StreamFormat::Float4, 16, 0);
    ctx.drawArrays(gpu::Primitive::Triangles, 0, 3);
    ctx.drawArrays(gpu::Primitive::Triangles, 0, 3);
    const gpu::CommandList list = ctx.takeCommands();
    u32 loads = 0;
    for (const auto& cmd : list) {
        if (cmd.op == gpu::CommandOp::LoadVertexProgram ||
            cmd.op == gpu::CommandOp::LoadFragmentProgram) {
            ++loads;
        }
    }
    EXPECT_EQ(loads, 2u); // Once, not per draw.
}

TEST(Context, BufferRespecification)
{
    Context ctx(32, 32, 4u << 20);
    const u32 buf = ctx.genBuffer();
    ctx.bufferData(buf, std::vector<u8>(256, 1));
    ctx.bufferData(buf, std::vector<u8>(128, 2)); // Shrink: reuse.
    ctx.bufferData(buf, std::vector<u8>(1024, 3)); // Grow: realloc.
    const gpu::CommandList list = ctx.takeCommands();
    u32 writes = 0;
    u32 lastAddr = ~0u;
    u32 firstAddr = ~0u;
    for (const auto& cmd : list) {
        if (cmd.op != gpu::CommandOp::WriteBuffer)
            continue;
        if (writes == 0)
            firstAddr = cmd.address;
        lastAddr = cmd.address;
        ++writes;
    }
    EXPECT_EQ(writes, 3u);
    // The shrink reuses the allocation; the grow may move it.
    EXPECT_NE(firstAddr, ~0u);
    EXPECT_NE(lastAddr, ~0u);
    ctx.deleteBuffer(buf);
}

TEST(Context, StateQueries)
{
    Context ctx(32, 32);
    EXPECT_FALSE(ctx.isEnabled(Cap::DepthTest));
    ctx.enable(Cap::DepthTest);
    EXPECT_TRUE(ctx.isEnabled(Cap::DepthTest));
    ctx.disable(Cap::DepthTest);
    EXPECT_FALSE(ctx.isEnabled(Cap::DepthTest));
    ctx.activeTexture(1);
    ctx.enable(Cap::Texture2D);
    EXPECT_TRUE(ctx.isEnabled(Cap::Texture2D));
    ctx.activeTexture(0);
    EXPECT_FALSE(ctx.isEnabled(Cap::Texture2D));
}

TEST(Context, MatrixStack)
{
    Context ctx(32, 32);
    ctx.matrixMode(MatrixMode::ModelView);
    ctx.loadIdentity();
    ctx.translate(1, 2, 3);
    ctx.pushMatrix();
    ctx.translate(10, 0, 0);
    ctx.popMatrix();
    EXPECT_THROW(
        {
            ctx.popMatrix();
            ctx.popMatrix();
        },
        FatalError);
}

// ===== Trace capture / replay =======================================

TEST(Trace, RecordAndReplayBitExact)
{
    const std::string path = "test_gl_trace.tmp";

    // Record a small scene through the recorder.
    gpu::CommandList recordedCommands;
    {
        Context ctx(64, 64, 8u << 20);
        TraceRecorder recorder(path);
        ctx.setRecorder(&recorder);

        const u32 buf = ctx.genBuffer();
        std::vector<emu::Vec4> verts = {
            {-1, -1, 0, 1}, {3, -1, 0, 1}, {-1, 3, 0, 1}};
        std::vector<u8> bytes(verts.size() * 16);
        std::memcpy(bytes.data(), verts.data(), bytes.size());
        ctx.bufferData(buf, bytes);
        ctx.vertexPointer(buf, gpu::StreamFormat::Float4, 16, 0);
        ctx.clearColor(0.2f, 0.3f, 0.4f, 1.0f);
        ctx.clear(clearColorBit | clearDepthBit);
        ctx.color(0.9f, 0.1f, 0.2f, 1.0f);
        ctx.drawArrays(gpu::Primitive::Triangles, 0, 3);
        ctx.swapBuffers();
        recordedCommands = ctx.takeCommands();
        EXPECT_GT(recorder.recordCount(), 5u);
        EXPECT_EQ(recorder.frameCount(), 1u);
    }

    // Replay into a fresh context; both command streams rendered
    // through the reference renderer must produce identical frames.
    TracePlayer player(path);
    EXPECT_EQ(player.frameCount(), 1u);
    Context replayCtx(64, 64, 8u << 20);
    player.play(replayCtx);
    const gpu::CommandList replayed = replayCtx.takeCommands();

    gpu::RefRenderer a(8u << 20), b(8u << 20);
    a.execute(recordedCommands);
    b.execute(replayed);
    ASSERT_EQ(a.frames().size(), 1u);
    ASSERT_EQ(b.frames().size(), 1u);
    EXPECT_EQ(a.frames()[0].diffCount(b.frames()[0]), 0u);
    std::remove(path.c_str());
}

TEST(Trace, HotStartSkipsEarlyDraws)
{
    const std::string path = "test_gl_trace2.tmp";
    {
        Context ctx(32, 32, 8u << 20);
        TraceRecorder recorder(path);
        ctx.setRecorder(&recorder);
        const u32 buf = ctx.genBuffer();
        ctx.bufferData(buf, std::vector<u8>(48, 0));
        ctx.vertexPointer(buf, gpu::StreamFormat::Float4, 16, 0);
        for (u32 frame = 0; frame < 3; ++frame) {
            ctx.clear(clearColorBit);
            ctx.drawArrays(gpu::Primitive::Triangles, 0, 3);
            ctx.swapBuffers();
        }
        ctx.takeCommands();
    }
    TracePlayer player(path);
    EXPECT_EQ(player.frameCount(), 3u);

    // Hot start at frame 2: one frame's worth of draws and swaps.
    Context ctx(32, 32, 8u << 20);
    player.play(ctx, 2);
    const gpu::CommandList list = ctx.takeCommands();
    u32 draws = 0, swaps = 0, writes = 0;
    for (const auto& cmd : list) {
        if (cmd.op == gpu::CommandOp::Draw)
            ++draws;
        if (cmd.op == gpu::CommandOp::Swap)
            ++swaps;
        if (cmd.op == gpu::CommandOp::WriteBuffer)
            ++writes;
    }
    EXPECT_EQ(draws, 1u);
    EXPECT_EQ(swaps, 1u);
    EXPECT_EQ(writes, 1u); // Uploads still applied.
    std::remove(path.c_str());
}

TEST(Trace, RejectsCorruptFile)
{
    const std::string path = "test_gl_trace3.tmp";
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOTATRACE";
    }
    EXPECT_THROW(TracePlayer player(path), FatalError);
    std::remove(path.c_str());
}

namespace
{

/** Little-endian bytes of @p v. */
template <typename T>
std::string
rawBytes(T v)
{
    std::string bytes(sizeof(T), '\0');
    std::memcpy(bytes.data(), &v, sizeof(T));
    return bytes;
}

/** A trace file: the magic, then @p body. */
void
writeTraceFile(const std::string& path, const std::string& body)
{
    std::ofstream out(path, std::ios::binary);
    out << "AGLTRC01" << body;
}

/** One record with no scalars, blob or text. */
std::string
emptyRecord(u16 op)
{
    return rawBytes(op) + rawBytes(u8{0}) + rawBytes(u32{0}) +
           rawBytes(u32{0});
}

/** The message of the FatalError loading @p path throws. */
std::string
loadError(const std::string& path)
{
    try {
        TracePlayer player(path);
    } catch (const FatalError& e) {
        return e.what();
    }
    ADD_FAILURE() << "'" << path << "' loaded";
    return {};
}

} // anonymous namespace

TEST(Trace, RejectsMissingFile)
{
    EXPECT_NE(loadError("test_gl_no_such_trace.tmp")
                  .find("cannot open 'test_gl_no_such_trace.tmp'"),
              std::string::npos);
}

TEST(Trace, RejectsTruncatedRecordNamingIt)
{
    const std::string path = "test_gl_trace4.tmp";
    const u16 swap = static_cast<u16>(TraceOp::SwapBuffers);
    // Record 1 promises four text bytes and holds two.
    writeTraceFile(path, emptyRecord(swap) + rawBytes(swap) +
                             rawBytes(u8{0}) + rawBytes(u32{0}) +
                             rawBytes(u32{4}) + "ab");
    EXPECT_NE(loadError(path).find("'" + path +
                                   "' record 1: truncated"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Trace, RejectsHugeLengthWithoutAllocatingIt)
{
    // A 20-byte file whose first record claims a 4 GiB blob: it is
    // truncated, and the claim is never allocated (the operator new
    // above would throw std::bad_alloc instead).
    const std::string path = "test_gl_trace5.tmp";
    writeTraceFile(path, rawBytes(static_cast<u16>(TraceOp::BufferData)) +
                             rawBytes(u8{0}) + rawBytes(u32{0xFFFFFFFF}) +
                             std::string(5, '\0'));
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    ASSERT_EQ(probe.tellg(), 20);
    EXPECT_NE(loadError(path).find("'" + path +
                                   "' record 0: truncated"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Trace, RejectsUnknownOpNamingRecord)
{
    const std::string path = "test_gl_trace6.tmp";
    writeTraceFile(path, emptyRecord(static_cast<u16>(TraceOp::Clear)) +
                             emptyRecord(static_cast<u16>(TraceOp::Clear)) +
                             emptyRecord(traceOpCount));
    EXPECT_NE(loadError(path).find("'" + path + "' record 2: unknown op " +
                                   std::to_string(traceOpCount)),
              std::string::npos);
    std::remove(path.c_str());
}
