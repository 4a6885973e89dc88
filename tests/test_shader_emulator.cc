/**
 * @file
 * Unit tests for the shader emulator: per-opcode semantics, masks,
 * saturation, kill and texture request handling.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "emu/decoded_program.hh"
#include "emu/shader_emulator.hh"
#include "emu/shader_isa.hh"

using namespace attila;
using namespace attila::emu;

namespace
{

/** Assemble a fragment program, run it with given inputs, return the
 * colour output. */
Vec4
runFragment(const std::string& body, const Vec4& color,
            const Vec4& tc0 = Vec4(), bool* killed = nullptr)
{
    ShaderAssembler assembler;
    auto prog =
        assembler.assemble("!!ARBfp1.0\n" + body + "\nEND\n");
    ShaderEmulator emulator;
    ShaderThreadState state;
    state.in[regix::ioColor] = color;
    state.in[regix::ioTexCoordBase] = tc0;
    ConstantBank constants = ShaderEmulator::makeConstants(*prog);
    const bool alive = emulator.run(*prog, constants, state);
    if (killed)
        *killed = !alive;
    return state.out[regix::foutColor];
}

} // anonymous namespace

TEST(ShaderEmulator, MovAddSubMul)
{
    EXPECT_EQ(runFragment("MOV result.color, fragment.color;",
                          {1, 2, 3, 4}),
              Vec4(1, 2, 3, 4));
    EXPECT_EQ(runFragment(
                  "ADD result.color, fragment.color, fragment.color;",
                  {1, 2, 3, 4}),
              Vec4(2, 4, 6, 8));
    EXPECT_EQ(runFragment(
                  "SUB result.color, fragment.color, {1, 1, 1, 1};",
                  {1, 2, 3, 4}),
              Vec4(0, 1, 2, 3));
    EXPECT_EQ(runFragment(
                  "MUL result.color, fragment.color, {2, 3, 4, 5};",
                  {1, 2, 3, 4}),
              Vec4(2, 6, 12, 20));
}

TEST(ShaderEmulator, MadLrpCmp)
{
    EXPECT_EQ(runFragment("MAD result.color, fragment.color,"
                          " {2, 2, 2, 2}, {1, 1, 1, 1};",
                          {1, 2, 3, 4}),
              Vec4(3, 5, 7, 9));
    EXPECT_EQ(runFragment("LRP result.color, {0.5, 0.5, 0.5, 0.5},"
                          " {1, 1, 1, 1}, {0, 0, 0, 0};",
                          {}),
              Vec4(0.5f, 0.5f, 0.5f, 0.5f));
    EXPECT_EQ(runFragment("CMP result.color, fragment.color,"
                          " {1, 1, 1, 1}, {2, 2, 2, 2};",
                          {-1, 0, -5, 3}),
              Vec4(1, 2, 1, 2));
}

TEST(ShaderEmulator, DotProducts)
{
    EXPECT_EQ(runFragment("DP3 result.color, fragment.color,"
                          " {1, 2, 3, 100};",
                          {1, 1, 1, 1}),
              Vec4(6, 6, 6, 6));
    EXPECT_EQ(runFragment("DP4 result.color, fragment.color,"
                          " {1, 2, 3, 4};",
                          {1, 1, 1, 1}),
              Vec4(10, 10, 10, 10));
    // DPH: xyz dot + b.w.
    EXPECT_EQ(runFragment("DPH result.color, fragment.color,"
                          " {1, 2, 3, 4};",
                          {1, 1, 1, 10}),
              Vec4(10, 10, 10, 10));
}

TEST(ShaderEmulator, ScalarOps)
{
    Vec4 out = runFragment("RCP result.color, fragment.color.x;",
                           {4, 0, 0, 0});
    EXPECT_FLOAT_EQ(out.x, 0.25f);
    EXPECT_FLOAT_EQ(out.w, 0.25f); // Smeared.

    out = runFragment("RSQ result.color, fragment.color.x;",
                      {16, 0, 0, 0});
    EXPECT_FLOAT_EQ(out.x, 0.25f);

    out = runFragment("EX2 result.color, fragment.color.x;",
                      {3, 0, 0, 0});
    EXPECT_FLOAT_EQ(out.x, 8.0f);

    out = runFragment("LG2 result.color, fragment.color.x;",
                      {8, 0, 0, 0});
    EXPECT_FLOAT_EQ(out.x, 3.0f);

    out = runFragment("POW result.color, fragment.color.x,"
                      " fragment.color.y;",
                      {2, 10, 0, 0});
    EXPECT_FLOAT_EQ(out.x, 1024.0f);

    out = runFragment("SIN result.color, fragment.color.x;",
                      {0, 0, 0, 0});
    EXPECT_FLOAT_EQ(out.x, 0.0f);
    out = runFragment("COS result.color, fragment.color.x;",
                      {0, 0, 0, 0});
    EXPECT_FLOAT_EQ(out.x, 1.0f);
}

TEST(ShaderEmulator, MinMaxSltSgeAbsFlrFrc)
{
    EXPECT_EQ(runFragment("MIN result.color, fragment.color,"
                          " {0, 0, 0, 0};",
                          {-1, 2, -3, 4}),
              Vec4(-1, 0, -3, 0));
    EXPECT_EQ(runFragment("MAX result.color, fragment.color,"
                          " {0, 0, 0, 0};",
                          {-1, 2, -3, 4}),
              Vec4(0, 2, 0, 4));
    EXPECT_EQ(runFragment("SLT result.color, fragment.color,"
                          " {1, 1, 1, 1};",
                          {0, 1, 2, -1}),
              Vec4(1, 0, 0, 1));
    EXPECT_EQ(runFragment("SGE result.color, fragment.color,"
                          " {1, 1, 1, 1};",
                          {0, 1, 2, -1}),
              Vec4(0, 1, 1, 0));
    EXPECT_EQ(runFragment("ABS result.color, fragment.color;",
                          {-1, 2, -3, -4}),
              Vec4(1, 2, 3, 4));
    EXPECT_EQ(runFragment("FLR result.color, fragment.color;",
                          {1.5f, -1.5f, 2.0f, 0.25f}),
              Vec4(1, -2, 2, 0));
    Vec4 out = runFragment("FRC result.color, fragment.color;",
                           {1.25f, -1.25f, 2.0f, 0.5f});
    EXPECT_FLOAT_EQ(out.x, 0.25f);
    EXPECT_FLOAT_EQ(out.y, 0.75f);
    EXPECT_FLOAT_EQ(out.z, 0.0f);
}

TEST(ShaderEmulator, XpdCross)
{
    EXPECT_EQ(runFragment("XPD result.color, {1, 0, 0, 0},"
                          " {0, 1, 0, 0};",
                          {}),
              Vec4(0, 0, 1, 0));
}

TEST(ShaderEmulator, LitLighting)
{
    // LIT: (1, max(nl,0), spec, 1).
    Vec4 out = runFragment("LIT result.color, fragment.color;",
                           {0.5f, 0.25f, 0.0f, 2.0f});
    EXPECT_FLOAT_EQ(out.x, 1.0f);
    EXPECT_FLOAT_EQ(out.y, 0.5f);
    EXPECT_FLOAT_EQ(out.z, 0.0625f);
    EXPECT_FLOAT_EQ(out.w, 1.0f);
    // Negative N.L kills the specular term.
    out = runFragment("LIT result.color, fragment.color;",
                      {-0.5f, 0.25f, 0.0f, 2.0f});
    EXPECT_FLOAT_EQ(out.y, 0.0f);
    EXPECT_FLOAT_EQ(out.z, 0.0f);
}

TEST(ShaderEmulator, SaturateAndWriteMask)
{
    EXPECT_EQ(runFragment("MOV_SAT result.color, fragment.color;",
                          {-1, 0.5f, 2, 1}),
              Vec4(0, 0.5f, 1, 1));
    // Only .y written; the rest stays zero.
    EXPECT_EQ(runFragment("MOV result.color.y, fragment.color;",
                          {7, 8, 9, 10}),
              Vec4(0, 8, 0, 0));
}

TEST(ShaderEmulator, KilSemantics)
{
    bool killed = false;
    runFragment("KIL fragment.color;\nMOV result.color,"
                " fragment.color;",
                {1, 1, 1, 1}, {}, &killed);
    EXPECT_FALSE(killed);
    runFragment("KIL fragment.color;\nMOV result.color,"
                " fragment.color;",
                {1, -0.001f, 1, 1}, {}, &killed);
    EXPECT_TRUE(killed);
}

TEST(ShaderEmulator, TextureRequestFlow)
{
    // The quad kernel the ShaderUnit drives: a texture instruction
    // becomes one quad request, serviced through
    // completeTextureQuad().
    ShaderAssembler assembler;
    auto prog = assembler.assemble(R"(!!ARBfp1.0
TEMP c;
TEX c, fragment.texcoord[0], texture[1], 2D;
MOV result.color, c;
END
)");
    const DecodedProgram decoded = DecodedProgram::decode(*prog);
    ShaderEmulator emulator;
    std::array<ShaderThreadState, 4> lanes;
    for (u32 l = 0; l < 4; ++l) {
        lanes[l].in[regix::ioTexCoordBase] = {
            0.25f * static_cast<f32>(l + 1), 0.5f, 0, 0};
    }
    std::array<bool, 4> laneDone{false, true, false, false};
    ConstantBank constants{};

    // The request carries the live lanes' coordinates (a done lane
    // keeps the default) and advances no pc.
    const QuadStepResult step =
        emulator.stepQuad(decoded, constants, lanes, laneDone);
    EXPECT_EQ(step.outcome, StepOutcome::TexRequest);
    EXPECT_EQ(step.texUnit, 1u);
    EXPECT_EQ(step.texLiveMask, 0xd);
    EXPECT_FALSE(step.texProjected);
    EXPECT_EQ(step.texCoords[0], Vec4(0.25f, 0.5f, 0, 0));
    EXPECT_EQ(step.texCoords[1], Vec4());
    EXPECT_EQ(step.texCoords[2], Vec4(0.75f, 0.5f, 0, 0));
    EXPECT_EQ(step.texCoords[3], Vec4(1.0f, 0.5f, 0, 0));
    for (u32 l = 0; l < 4; ++l)
        EXPECT_EQ(lanes[l].pc, 0u) << "lane " << l;

    emulator.completeTextureQuad(
        decoded, lanes, laneDone,
        {Vec4{9, 8, 7, 6}, Vec4{1, 1, 1, 1}, Vec4{5, 4, 3, 2},
         Vec4{3, 3, 3, 3}});
    EXPECT_EQ(lanes[0].pc, 1u);
    EXPECT_EQ(lanes[1].pc, 0u);
    EXPECT_EQ(emulator.stepQuad(decoded, constants, lanes, laneDone)
                  .outcome,
              StepOutcome::Continue);
    EXPECT_EQ(emulator.stepQuad(decoded, constants, lanes, laneDone)
                  .outcome,
              StepOutcome::Done);
    EXPECT_EQ(lanes[0].out[regix::foutColor], Vec4(9, 8, 7, 6));
    EXPECT_EQ(lanes[1].out[regix::foutColor], Vec4());
    EXPECT_EQ(lanes[2].out[regix::foutColor], Vec4(5, 4, 3, 2));
    EXPECT_EQ(lanes[3].out[regix::foutColor], Vec4(3, 3, 3, 3));
}

TEST(ShaderEmulator, ImmediateSampler)
{
    ShaderAssembler assembler;
    auto prog = assembler.assemble(R"(!!ARBfp1.0
TEMP c;
TXB c, fragment.texcoord[0], texture[0], 2D;
MOV result.color, c;
END
)");
    ShaderEmulator emulator;
    ShaderThreadState state;
    state.in[regix::ioTexCoordBase] = {0.1f, 0.2f, 0.0f, 2.5f};
    ConstantBank constants{};
    bool sawBias = false;
    auto samplerFn =
        [&](u32 unit, TexTarget target, const Vec4& coord, f32 bias,
            bool projected) -> Vec4 {
        EXPECT_EQ(unit, 0u);
        EXPECT_EQ(target, TexTarget::Tex2D);
        EXPECT_FLOAT_EQ(coord.x, 0.1f);
        EXPECT_FLOAT_EQ(bias, 2.5f); // TXB bias in coord.w.
        EXPECT_FALSE(projected);
        sawBias = true;
        return {1, 2, 3, 4};
    };
    ImmediateSampler sampler = samplerFn;
    EXPECT_TRUE(emulator.run(*prog, constants, state, &sampler));
    EXPECT_TRUE(sawBias);
    EXPECT_EQ(state.out[regix::foutColor], Vec4(1, 2, 3, 4));
}

TEST(ShaderEmulator, LatencyClasses)
{
    ShaderAssembler assembler;
    auto prog = assembler.assemble(R"(!!ARBfp1.0
TEMP t;
MOV t, fragment.color;
MUL t, t, t;
RCP t, t.x;
SIN t, t.x;
MOV result.color, t;
END
)");
    // Decoding fixes each instruction's latency class; stepQuad()
    // reports it to the ShaderUnit's scoreboard.
    const DecodedProgram decoded = DecodedProgram::decode(*prog);
    ShaderEmulator emulator;
    std::array<ShaderThreadState, 4> lanes;
    std::array<bool, 4> laneDone{};
    ConstantBank constants{};
    const u32 expected[5] = {1, 4, 6, 9, 1};
    for (u32 i = 0; i < 5; ++i) {
        EXPECT_EQ(decoded.code[i].latency, expected[i]) << "instr " << i;
        const QuadStepResult step =
            emulator.stepQuad(decoded, constants, lanes, laneDone);
        EXPECT_EQ(step.latency, expected[i]) << "instr " << i;
    }
}
