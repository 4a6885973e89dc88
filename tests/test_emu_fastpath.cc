/**
 * @file
 * Quad-interpreter identity tests: the pre-decoded quad-lockstep
 * interpreter the simulator runs must be bit-identical to the scalar
 * reference interpreter over the whole ISA (randomized programs
 * covering every opcode, including TEX/TXB/TXP and partial KIL
 * masks), and the decode cache must reuse and invalidate entries by
 * program identity.  Whole-workload identity is pinned by
 * test_fingerprints.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "emu/decoded_program.hh"
#include "emu/shader_emulator.hh"
#include "emu/shader_isa.hh"

using namespace attila;
using namespace attila::emu;

namespace
{

/** Deterministic generator so failures reproduce exactly. */
struct Lcg
{
    u64 state;

    explicit Lcg(u64 seed) : state(seed * 0x9e3779b97f4a7c15ull + 1)
    {}

    u32
    next(u32 bound)
    {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        return static_cast<u32>(state >> 33) % bound;
    }

    f32
    uniform(f32 lo, f32 hi)
    {
        const f32 t =
            static_cast<f32>(next(0x1000000)) / 16777215.0f;
        return lo + (hi - lo) * t;
    }
};

/**
 * A pure per-lane texture function shared by both sampler shapes.
 * The quad sampler receives one shared lod bias (last live lane)
 * while the scalar path passes each lane's own bias, so the
 * texel deliberately ignores the bias argument — projection, which
 * both paths hand down unapplied, is applied identically per lane.
 */
Vec4
texel(u32 unit, const Vec4& coord, bool projected)
{
    Vec4 c = coord;
    if (projected) {
        const f32 q = c.w != 0.0f ? c.w : 1.0f;
        c = {c.x / q, c.y / q, c.z / q, c.w};
    }
    const f32 s =
        std::sin(c.x * 3.0f + static_cast<f32>(unit) * 0.7f);
    const f32 t = std::cos(c.y * 5.0f - c.z);
    return {s * t, s + t, c.z * 0.5f, 1.0f};
}

SrcOperand
randomSrc(Lcg& rng)
{
    SrcOperand src;
    switch (rng.next(3)) {
      case 0:
        src.bank = Bank::Attrib;
        src.index = static_cast<u8>(rng.next(regix::numInputRegs));
        break;
      case 1:
        src.bank = Bank::Temp;
        src.index = static_cast<u8>(rng.next(8));
        break;
      default:
        src.bank = Bank::Param;
        src.index = static_cast<u8>(rng.next(8));
        break;
    }
    for (u32 c = 0; c < 4; ++c)
        src.swizzle[c] = static_cast<u8>(rng.next(4));
    src.negate = rng.next(2) != 0;
    return src;
}

DstOperand
randomDst(Lcg& rng)
{
    DstOperand dst;
    dst.bank = rng.next(4) == 0 ? Bank::Output : Bank::Temp;
    dst.index = static_cast<u8>(rng.next(8));
    dst.writeMask = static_cast<u8>(1 + rng.next(15));
    return dst;
}

/**
 * Build a random fragment program.  The first pass emits every
 * non-END opcode once (rotated per seed so each opcode also appears
 * early, before any KIL can retire lanes); a second pass appends
 * random extras.  Operands, swizzles, negates, saturates and write
 * masks are all randomized.
 */
ShaderProgram
makeRandomProgram(Lcg& rng)
{
    ShaderProgram prog;
    prog.target = ShaderTarget::Fragment;

    const u32 numOps = numOpcodes - 1; // All but END.
    const u32 rotate = rng.next(numOps);
    const u32 extras = 8 + rng.next(8);
    for (u32 i = 0; i < numOps + extras; ++i) {
        Opcode op;
        if (i < numOps)
            op = static_cast<Opcode>((i + rotate) % numOps);
        else
            op = static_cast<Opcode>(rng.next(numOps));
        const OpcodeInfo& info = opcodeInfo(op);

        Instruction ins;
        ins.op = op;
        for (u32 s = 0; s < info.numSrc; ++s)
            ins.src[s] = randomSrc(rng);
        if (info.hasDst) {
            ins.dst = randomDst(rng);
            ins.saturate = rng.next(2) != 0;
        }
        if (info.isTexture) {
            ins.texUnit = static_cast<u8>(rng.next(4));
            ins.texTarget = TexTarget::Tex2D;
        }
        if (op == Opcode::KIL) {
            // A fully random KIL source kills almost every lane on
            // the spot (any component < 0).  Bias it so partial
            // quad kill masks actually occur.
            ins.src[0].negate = false;
            if (rng.next(2))
                ins.src[0].bank = Bank::Param;
        }
        prog.code.push_back(ins);
    }
    Instruction end;
    end.op = Opcode::END;
    prog.code.push_back(end);

    for (u32 slot = 0; slot < 8; ++slot) {
        prog.literals.push_back(
            {slot,
             Vec4{rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
                  rng.uniform(-1.0f, 1.0f),
                  rng.uniform(0.1f, 2.0f)}});
    }
    analyzeProgram(prog);
    return prog;
}

std::array<ShaderThreadState, 4>
randomQuad(Lcg& rng)
{
    std::array<ShaderThreadState, 4> quad;
    for (auto& lane : quad) {
        lane.reset();
        for (u32 r = 0; r < regix::numInputRegs; ++r) {
            lane.in[r] = {rng.uniform(-2.0f, 2.0f),
                          rng.uniform(-2.0f, 2.0f),
                          rng.uniform(-2.0f, 2.0f),
                          rng.uniform(-2.0f, 2.0f)};
        }
    }
    return quad;
}

void
expectLaneEqual(const ShaderThreadState& a,
                const ShaderThreadState& b, u32 seed, u32 lane)
{
    EXPECT_EQ(std::memcmp(a.in.data(), b.in.data(),
                          sizeof(a.in)),
              0)
        << "seed " << seed << " lane " << lane << " inputs";
    EXPECT_EQ(std::memcmp(a.out.data(), b.out.data(),
                          sizeof(a.out)),
              0)
        << "seed " << seed << " lane " << lane << " outputs";
    EXPECT_EQ(std::memcmp(a.temp.data(), b.temp.data(),
                          sizeof(a.temp)),
              0)
        << "seed " << seed << " lane " << lane << " temps";
    EXPECT_EQ(a.pc, b.pc) << "seed " << seed << " lane " << lane;
    EXPECT_EQ(a.killed, b.killed)
        << "seed " << seed << " lane " << lane;
}

/**
 * Components of @p a and @p b whose bits differ, counting two NaNs in
 * the same component as equal: C++ leaves NaN payload propagation
 * unspecified, so an optimised build may carry a different operand's
 * payload through one kernel than through the other.
 */
template <std::size_t N>
u32
nanAgnosticMismatches(const std::array<Vec4, N>& a,
                      const std::array<Vec4, N>& b)
{
    u32 mismatches = 0;
    for (std::size_t r = 0; r < N; ++r) {
        for (u32 c = 0; c < 4; ++c) {
            const f32 x = a[r][c];
            const f32 y = b[r][c];
            if (std::isnan(x) && std::isnan(y))
                continue;
            if (std::memcmp(&x, &y, sizeof(x)) != 0)
                ++mismatches;
        }
    }
    return mismatches;
}

void
expectLaneEqualNanAgnostic(const ShaderThreadState& a,
                           const ShaderThreadState& b, u32 seed,
                           u32 lane)
{
    EXPECT_EQ(nanAgnosticMismatches(a.in, b.in), 0u)
        << "seed " << seed << " lane " << lane << " inputs";
    EXPECT_EQ(nanAgnosticMismatches(a.out, b.out), 0u)
        << "seed " << seed << " lane " << lane << " outputs";
    EXPECT_EQ(nanAgnosticMismatches(a.temp, b.temp), 0u)
        << "seed " << seed << " lane " << lane << " temps";
    EXPECT_EQ(a.pc, b.pc) << "seed " << seed << " lane " << lane;
    EXPECT_EQ(a.killed, b.killed)
        << "seed " << seed << " lane " << lane;
}

TEST(EmuFastPath, RandomProgramsScalarVsQuadBitIdentical)
{
    ShaderEmulator emulator;

    auto immediateFn = [](u32 unit, TexTarget, const Vec4& coord,
                          f32, bool projected) {
        return texel(unit, coord, projected);
    };
    const ImmediateSampler immediate = immediateFn;

    auto quadFn = [](u32 unit, TexTarget,
                     const std::array<Vec4, 4>& coords, u8 liveMask,
                     f32, bool projected) {
        std::array<Vec4, 4> texels{};
        for (u32 l = 0; l < 4; ++l) {
            if (liveMask & (1u << l))
                texels[l] = texel(unit, coords[l], projected);
        }
        return texels;
    };
    const QuadSampler quadSampler = quadFn;

    for (u32 seed = 0; seed < 48; ++seed) {
        Lcg rng(seed);
        const ShaderProgram prog = makeRandomProgram(rng);
        const ConstantBank constants =
            ShaderEmulator::makeConstants(prog);
        const DecodedProgram decoded =
            DecodedProgram::decode(prog);
        const std::array<ShaderThreadState, 4> quad =
            randomQuad(rng);

        // Reference: the scalar per-lane interpreter.
        std::array<ShaderThreadState, 4> scalarLanes = quad;
        std::array<bool, 4> scalarKilled{};
        for (u32 l = 0; l < 4; ++l) {
            scalarKilled[l] = !emulator.run(prog, constants,
                                            scalarLanes[l],
                                            &immediate);
        }

        // Quad-lockstep interpreter.
        std::array<ShaderThreadState, 4> quadLanes = quad;
        std::array<bool, 4> laneDone{};
        std::array<bool, 4> quadKilled{};
        emulator.runQuad(decoded, constants, quadLanes, laneDone,
                         quadKilled, quadSampler);

        for (u32 l = 0; l < 4; ++l) {
            expectLaneEqual(scalarLanes[l], quadLanes[l], seed, l);
            EXPECT_EQ(quadKilled[l], scalarKilled[l])
                << "seed " << seed << " lane " << l;
            EXPECT_TRUE(laneDone[l])
                << "seed " << seed << " lane " << l;
        }

        // The timing kernel, driven the way ShaderUnit drives it:
        // stepQuad until done, answering each texture request with
        // completeTextureQuad.
        std::array<ShaderThreadState, 4> steppedLanes = quad;
        std::array<bool, 4> stepDone{};
        for (u32 guard = 0;; ++guard) {
            ASSERT_LT(guard, 65536u) << "seed " << seed;
            const QuadStepResult r = emulator.stepQuad(
                decoded, constants, steppedLanes, stepDone);
            if (r.outcome == StepOutcome::Done)
                break;
            if (r.outcome != StepOutcome::TexRequest)
                continue;
            u8 live = 0;
            for (u32 l = 0; l < 4; ++l) {
                if (!stepDone[l])
                    live |= static_cast<u8>(1u << l);
            }
            emulator.completeTextureQuad(
                decoded, steppedLanes, stepDone,
                quadSampler(r.texUnit, r.texTarget, r.texCoords, live,
                            r.texLodBias, r.texProjected));
        }
        for (u32 l = 0; l < 4; ++l) {
            expectLaneEqualNanAgnostic(scalarLanes[l], steppedLanes[l],
                                       seed, l);
            EXPECT_EQ(steppedLanes[l].killed, scalarKilled[l])
                << "seed " << seed << " lane " << l;
            EXPECT_TRUE(stepDone[l]) << "seed " << seed << " lane " << l;
        }
    }
}

TEST(EmuFastPath, TxbBiasAgreesBetweenStepQuadAndRunQuad)
{
    // The timing path (stepQuad + completeTextureQuad) and the
    // reference path (runQuad) must hand the sampler the same shared
    // TXB bias, also when every lane carries its own coordinate.w and
    // only some lanes are live.  The sampler here folds the bias into
    // every texel, so any disagreement shows in the registers.
    ShaderEmulator emulator;
    auto biasedFn = [](u32 unit, TexTarget,
                       const std::array<Vec4, 4>& coords, u8 liveMask,
                       f32 lodBias, bool projected) {
        std::array<Vec4, 4> texels{};
        for (u32 l = 0; l < 4; ++l) {
            if (liveMask & (1u << l)) {
                const Vec4 t = texel(unit, coords[l], projected);
                texels[l] = {t.x + lodBias, t.y * lodBias, t.z,
                             lodBias};
            }
        }
        return texels;
    };
    const QuadSampler sampler = biasedFn;

    for (u32 seed = 0; seed < 32; ++seed) {
        Lcg rng(seed + 2000);
        ShaderProgram prog = makeRandomProgram(rng);
        for (Instruction& ins : prog.code) {
            if (opcodeInfo(ins.op).isTexture)
                ins.op = Opcode::TXB;
        }
        analyzeProgram(prog);
        const ConstantBank constants =
            ShaderEmulator::makeConstants(prog);
        const DecodedProgram decoded = DecodedProgram::decode(prog);
        const std::array<ShaderThreadState, 4> quad = randomQuad(rng);

        for (const u32 liveMask : {0x3u, 0x6u, 0x9u, 0xeu, 0xfu}) {
            std::array<bool, 4> startDone{};
            for (u32 l = 0; l < 4; ++l)
                startDone[l] = !(liveMask & (1u << l));

            std::array<ShaderThreadState, 4> stepped = quad;
            std::array<bool, 4> stepDone = startDone;
            for (u32 guard = 0;; ++guard) {
                ASSERT_LT(guard, 65536u) << "seed " << seed;
                const QuadStepResult r = emulator.stepQuad(
                    decoded, constants, stepped, stepDone);
                if (r.outcome == StepOutcome::Done)
                    break;
                if (r.outcome != StepOutcome::TexRequest)
                    continue;
                u8 live = 0;
                for (u32 l = 0; l < 4; ++l) {
                    if (!stepDone[l])
                        live |= static_cast<u8>(1u << l);
                }
                emulator.completeTextureQuad(
                    decoded, stepped, stepDone,
                    sampler(r.texUnit, r.texTarget, r.texCoords, live,
                            r.texLodBias, r.texProjected));
            }

            std::array<ShaderThreadState, 4> ran = quad;
            std::array<bool, 4> runDone = startDone;
            std::array<bool, 4> killed{};
            emulator.runQuad(decoded, constants, ran, runDone, killed,
                             sampler);

            for (u32 l = 0; l < 4; ++l)
                expectLaneEqual(stepped[l], ran[l], seed, l);
        }
    }
}

TEST(EmuFastPath, ConvergedPartialQuadsMatchScalar)
{
    // Texture- and KIL-free programs run the converged kernel, also
    // with lanes already done on entry (a vertex is a quad with one
    // live lane).  Live lanes must match the scalar interpreter and
    // done lanes must come back untouched.
    ShaderEmulator emulator;
    auto noTexture = [](u32, TexTarget, const std::array<Vec4, 4>&,
                        u8, f32, bool) -> std::array<Vec4, 4> {
        ADD_FAILURE() << "texture fetch in an ALU-only program";
        return {};
    };
    const QuadSampler sampler = noTexture;

    for (u32 seed = 0; seed < 16; ++seed) {
        Lcg rng(seed + 1000);
        ShaderProgram prog = makeRandomProgram(rng);
        std::erase_if(prog.code, [](const Instruction& ins) {
            return opcodeInfo(ins.op).isTexture ||
                   ins.op == Opcode::KIL;
        });
        analyzeProgram(prog);
        const ConstantBank constants =
            ShaderEmulator::makeConstants(prog);
        const DecodedProgram decoded = DecodedProgram::decode(prog);
        ASSERT_FALSE(decoded.hasTexture || decoded.hasKil);
        const std::array<ShaderThreadState, 4> quad = randomQuad(rng);

        for (const u32 liveMask : {0x1u, 0x6u, 0x8u, 0xfu}) {
            std::array<ShaderThreadState, 4> lanes = quad;
            std::array<bool, 4> laneDone{};
            for (u32 l = 0; l < 4; ++l)
                laneDone[l] = !(liveMask & (1u << l));
            std::array<bool, 4> killed{};
            emulator.runQuad(decoded, constants, lanes, laneDone,
                             killed, sampler);
            for (u32 l = 0; l < 4; ++l) {
                ShaderThreadState expected = quad[l];
                if (liveMask & (1u << l))
                    emulator.run(prog, constants, expected);
                expectLaneEqual(expected, lanes[l], seed, l);
                EXPECT_TRUE(laneDone[l]);
                EXPECT_FALSE(killed[l]);
            }
        }
    }
}

TEST(EmuFastPath, DecodeCacheReusesAndInvalidatesByIdentity)
{
    ShaderAssembler assembler;
    const ShaderProgramPtr first = assembler.assemble(
        "!!ARBfp1.0\n"
        "TEMP t;\n"
        "MUL t, fragment.color, fragment.texcoord[0];\n"
        "ADD_SAT result.color, t, fragment.color;\n"
        "END\n");

    DecodedProgramCache cache;
    const DecodedProgram& decodedFirst = cache.get(first);
    EXPECT_EQ(decodedFirst.code.size(), first->code.size());

    // Same program object: the cached entry is returned, not a
    // fresh decode.
    EXPECT_EQ(&cache.get(first), &decodedFirst);

    // Re-upload: a new program object must get its own decode even
    // while the old one is alive.
    const ShaderProgramPtr second = assembler.assemble(
        "!!ARBfp1.0\n"
        "TEMP t;\n"
        "SUB t, fragment.color, fragment.texcoord[1];\n"
        "KIL t;\n"
        "MOV result.color, t;\n"
        "END\n");
    const DecodedProgram& decodedSecond = cache.get(second);
    EXPECT_NE(&decodedSecond, &decodedFirst);
    EXPECT_EQ(decodedSecond.code.size(), second->code.size());
    EXPECT_TRUE(decodedSecond.hasKil);
    EXPECT_FALSE(decodedFirst.hasKil);

    // The first entry survives the second's insertion (node
    // stability): the reference still reads valid decoded state.
    EXPECT_EQ(&cache.get(first), &decodedFirst);
    EXPECT_EQ(decodedFirst.code.back().op, Opcode::END);
}

} // anonymous namespace
