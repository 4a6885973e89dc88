#include "emu/shader_emulator.hh"

#include <bit>
#include <cmath>

#include "emu/decoded_program.hh"
#include "sim/logging.hh"

namespace attila::emu
{

namespace
{

/** Fetch a source operand value. */
Vec4
readSrc(const SrcOperand& src, const ShaderThreadState& state,
        const ConstantBank& constants)
{
    Vec4 v;
    switch (src.bank) {
      case Bank::Attrib:
        v = state.in[src.index];
        break;
      case Bank::Temp:
        v = state.temp[src.index];
        break;
      case Bank::Param:
        v = constants[src.index];
        break;
      default:
        panic("shader emulator: read from invalid bank");
    }
    return src.apply(v);
}

/** Write @p value into the destination honoring mask and saturate. */
void
writeDst(const Instruction& ins, ShaderThreadState& state,
         const Vec4& value)
{
    Vec4 v = ins.saturate ? saturate(value) : value;
    Vec4* target = nullptr;
    switch (ins.dst.bank) {
      case Bank::Temp:
        target = &state.temp[ins.dst.index];
        break;
      case Bank::Output:
        target = &state.out[ins.dst.index];
        break;
      default:
        panic("shader emulator: write to invalid bank");
    }
    for (u32 i = 0; i < 4; ++i) {
        if (ins.dst.writeMask & (1u << i))
            (*target)[i] = v[i];
    }
}

/** Broadcast a scalar result to all components. */
Vec4
smear(f32 s)
{
    return {s, s, s, s};
}

/** ARB LIT: lighting coefficients. */
Vec4
litOp(const Vec4& s)
{
    const f32 diffuse = std::max(s.x, 0.0f);
    f32 specular = 0.0f;
    if (s.x > 0.0f) {
        const f32 e = std::clamp(s.w, -128.0f, 128.0f);
        specular = std::pow(std::max(s.y, 0.0f), e);
    }
    return {1.0f, diffuse, specular, 1.0f};
}

/**
 * Execute the instruction at @p state.pc for one thread; texture
 * instructions resolve through @p sampler.  Returns true when the
 * thread is done (END reached or fragment killed).
 */
bool
stepScalar(const ShaderProgram& program, const ConstantBank& constants,
           ShaderThreadState& state, const ImmediateSampler* sampler)
{
    if (state.pc >= program.code.size())
        panic("shader emulator: pc ", state.pc,
              " past the end of a program of length ",
              program.code.size());

    const Instruction& ins = program.code[state.pc];
    const OpcodeInfo& info = opcodeInfo(ins.op);

    if (ins.op == Opcode::END)
        return true;

    if (info.isTexture) {
        if (!sampler || !*sampler)
            panic("shader emulator: run() needs an immediate sampler"
                  " for texture instructions");
        const Vec4 coord = readSrc(ins.src[0], state, constants);
        const bool projected = ins.op == Opcode::TXP;
        const f32 bias = ins.op == Opcode::TXB ? coord.w : 0.0f;
        const Vec4 texel = (*sampler)(ins.texUnit, ins.texTarget,
                                      coord, bias, projected);
        writeDst(ins, state, texel);
        ++state.pc;
        return false;
    }

    Vec4 a, b, c;
    if (info.numSrc >= 1)
        a = readSrc(ins.src[0], state, constants);
    if (info.numSrc >= 2)
        b = readSrc(ins.src[1], state, constants);
    if (info.numSrc >= 3)
        c = readSrc(ins.src[2], state, constants);

    Vec4 r;
    switch (ins.op) {
      case Opcode::ABS:
        r = {std::fabs(a.x), std::fabs(a.y), std::fabs(a.z),
             std::fabs(a.w)};
        break;
      case Opcode::ADD:
        r = a + b;
        break;
      case Opcode::CMP:
        r = {a.x < 0.0f ? b.x : c.x, a.y < 0.0f ? b.y : c.y,
             a.z < 0.0f ? b.z : c.z, a.w < 0.0f ? b.w : c.w};
        break;
      case Opcode::COS:
        r = smear(std::cos(a.x));
        break;
      case Opcode::DP3:
        r = smear(dot3(a, b));
        break;
      case Opcode::DP4:
        r = smear(dot4(a, b));
        break;
      case Opcode::DPH:
        r = smear(dot3(a, b) + b.w);
        break;
      case Opcode::EX2:
        r = smear(std::exp2(a.x));
        break;
      case Opcode::FLR:
        r = {std::floor(a.x), std::floor(a.y), std::floor(a.z),
             std::floor(a.w)};
        break;
      case Opcode::FRC:
        r = {a.x - std::floor(a.x), a.y - std::floor(a.y),
             a.z - std::floor(a.z), a.w - std::floor(a.w)};
        break;
      case Opcode::KIL:
        if (a.x < 0.0f || a.y < 0.0f || a.z < 0.0f || a.w < 0.0f) {
            state.killed = true;
            return true;
        }
        ++state.pc;
        return false;
      case Opcode::LG2:
        r = smear(std::log2(a.x));
        break;
      case Opcode::LIT:
        r = litOp(a);
        break;
      case Opcode::LRP:
        r = a * b + (Vec4(1.0f) - a) * c;
        break;
      case Opcode::MAD:
        r = a * b + c;
        break;
      case Opcode::MAX:
        r = vmax(a, b);
        break;
      case Opcode::MIN:
        r = vmin(a, b);
        break;
      case Opcode::MOV:
        r = a;
        break;
      case Opcode::MUL:
        r = a * b;
        break;
      case Opcode::POW:
        r = smear(std::pow(a.x, b.x));
        break;
      case Opcode::RCP:
        r = smear(a.x == 0.0f
                      ? std::numeric_limits<f32>::infinity()
                      : 1.0f / a.x);
        break;
      case Opcode::RSQ:
        r = smear(1.0f / std::sqrt(std::fabs(a.x)));
        break;
      case Opcode::SGE:
        r = {a.x >= b.x ? 1.0f : 0.0f, a.y >= b.y ? 1.0f : 0.0f,
             a.z >= b.z ? 1.0f : 0.0f, a.w >= b.w ? 1.0f : 0.0f};
        break;
      case Opcode::SIN:
        r = smear(std::sin(a.x));
        break;
      case Opcode::SLT:
        r = {a.x < b.x ? 1.0f : 0.0f, a.y < b.y ? 1.0f : 0.0f,
             a.z < b.z ? 1.0f : 0.0f, a.w < b.w ? 1.0f : 0.0f};
        break;
      case Opcode::SUB:
        r = a - b;
        break;
      case Opcode::XPD:
        r = cross3(a, b);
        break;
      default:
        panic("shader emulator: unhandled opcode");
    }

    writeDst(ins, state, r);
    ++state.pc;
    return false;
}

} // anonymous namespace

bool
ShaderEmulator::run(const ShaderProgram& program,
                    const ConstantBank& constants,
                    ShaderThreadState& state,
                    const ImmediateSampler* sampler) const
{
    for (u32 guard = 0; guard < 65536; ++guard) {
        if (stepScalar(program, constants, state, sampler))
            return !state.killed;
    }
    panic("shader emulator: program did not terminate");
}

// ---- Pre-decoded quad interpreter ------------------------------
//
// The quad kernel below re-uses the exact per-component expressions
// of the scalar interpreter above (see execDecodedAlu); only operand
// *addressing* changed.

namespace
{

// The two operand helpers run once or twice per lane per
// instruction; the surrounding interpreter switch is so large that
// the compiler's inlining budget otherwise outlines them into real
// calls (a Vec4 returned through memory each time), which dominates
// the interpreter.  Force the issue.
#if defined(__GNUC__) || defined(__clang__)
#define ATTILA_EMU_FORCE_INLINE inline __attribute__((always_inline))
#else
#define ATTILA_EMU_FORCE_INLINE inline
#endif

/** Fetch a pre-decoded source operand value. */
ATTILA_EMU_FORCE_INLINE Vec4
readSrcD(const DecodedSrc& src, const ShaderThreadState& state,
         const ConstantBank& constants)
{
    const Vec4& v = src.fromConstants
                        ? constants[src.offset]
                        : decoded::regs(state)[src.offset];
    if (src.identity)
        return v;
    // Swizzle by array index: Vec4::operator[] is a switch, so each
    // swizzled component would otherwise cost a branch.
    const auto c = std::bit_cast<std::array<f32, 4>>(v);
    const Vec4 r = src.splat
                       ? Vec4(c[static_cast<u32>(src.splat - 1)])
                       : Vec4(c[src.swz[0]], c[src.swz[1]],
                              c[src.swz[2]], c[src.swz[3]]);
    return src.negate ? -r : r;
}

/** Write @p value honoring the pre-decoded mask and saturate. */
ATTILA_EMU_FORCE_INLINE void
writeDstD(const DecodedIns& ins, ShaderThreadState& state,
          const Vec4& value)
{
    const Vec4 v = ins.saturate ? saturate(value) : value;
    Vec4& target = decoded::regs(state)[ins.dstOffset];
    switch (ins.writeMask) {
      case 0xf:
        target = v;
        return;
      case 0x1:
        target.x = v.x;
        return;
      case 0x2:
        target.y = v.y;
        return;
      case 0x4:
        target.z = v.z;
        return;
      case 0x8:
        target.w = v.w;
        return;
      default:
        for (u32 i = 0; i < 4; ++i) {
            if (ins.writeMask & (1u << i))
                target[i] = v[i];
        }
    }
}

/**
 * The quad kernel's ALU dispatch: one switch per *instruction*, then
 * @p forLanes applies the case to each live lane.  Every case
 * computes the same expression as the matching case of the scalar
 * interpreter, in the same per-lane order, so results are
 * bit-identical to the reference interpreter.
 */
template <typename ForLanes>
inline void
execDecodedAlu(const DecodedIns& ins, const ConstantBank& constants,
               ForLanes&& forLanes)
{
    const auto src1 = [&](ShaderThreadState& s) {
        return readSrcD(ins.src[0], s, constants);
    };
    switch (ins.op) {
      case Opcode::ABS:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            writeDstD(ins, s,
                      {std::fabs(a.x), std::fabs(a.y),
                       std::fabs(a.z), std::fabs(a.w)});
        });
        break;
      case Opcode::ADD:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s, a + b);
        });
        break;
      case Opcode::CMP:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            const Vec4 c = readSrcD(ins.src[2], s, constants);
            writeDstD(ins, s,
                      {a.x < 0.0f ? b.x : c.x, a.y < 0.0f ? b.y : c.y,
                       a.z < 0.0f ? b.z : c.z,
                       a.w < 0.0f ? b.w : c.w});
        });
        break;
      case Opcode::COS:
        forLanes([&](ShaderThreadState& s) {
            writeDstD(ins, s, smear(std::cos(src1(s).x)));
        });
        break;
      case Opcode::DP3:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s, smear(dot3(a, b)));
        });
        break;
      case Opcode::DP4:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s, smear(dot4(a, b)));
        });
        break;
      case Opcode::DPH:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s, smear(dot3(a, b) + b.w));
        });
        break;
      case Opcode::EX2:
        forLanes([&](ShaderThreadState& s) {
            writeDstD(ins, s, smear(std::exp2(src1(s).x)));
        });
        break;
      case Opcode::FLR:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            writeDstD(ins, s,
                      {std::floor(a.x), std::floor(a.y),
                       std::floor(a.z), std::floor(a.w)});
        });
        break;
      case Opcode::FRC:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            writeDstD(ins, s,
                      {a.x - std::floor(a.x), a.y - std::floor(a.y),
                       a.z - std::floor(a.z),
                       a.w - std::floor(a.w)});
        });
        break;
      case Opcode::LG2:
        forLanes([&](ShaderThreadState& s) {
            writeDstD(ins, s, smear(std::log2(src1(s).x)));
        });
        break;
      case Opcode::LIT:
        forLanes([&](ShaderThreadState& s) {
            writeDstD(ins, s, litOp(src1(s)));
        });
        break;
      case Opcode::LRP:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            const Vec4 c = readSrcD(ins.src[2], s, constants);
            writeDstD(ins, s, a * b + (Vec4(1.0f) - a) * c);
        });
        break;
      case Opcode::MAD:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            const Vec4 c = readSrcD(ins.src[2], s, constants);
            writeDstD(ins, s, a * b + c);
        });
        break;
      case Opcode::MAX:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s, vmax(a, b));
        });
        break;
      case Opcode::MIN:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s, vmin(a, b));
        });
        break;
      case Opcode::MOV:
        forLanes([&](ShaderThreadState& s) {
            writeDstD(ins, s, src1(s));
        });
        break;
      case Opcode::MUL:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s, a * b);
        });
        break;
      case Opcode::POW:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s, smear(std::pow(a.x, b.x)));
        });
        break;
      case Opcode::RCP:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            writeDstD(ins, s,
                      smear(a.x == 0.0f
                                ? std::numeric_limits<f32>::infinity()
                                : 1.0f / a.x));
        });
        break;
      case Opcode::RSQ:
        forLanes([&](ShaderThreadState& s) {
            writeDstD(
                ins, s,
                smear(1.0f / std::sqrt(std::fabs(src1(s).x))));
        });
        break;
      case Opcode::SGE:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s,
                      {a.x >= b.x ? 1.0f : 0.0f,
                       a.y >= b.y ? 1.0f : 0.0f,
                       a.z >= b.z ? 1.0f : 0.0f,
                       a.w >= b.w ? 1.0f : 0.0f});
        });
        break;
      case Opcode::SIN:
        forLanes([&](ShaderThreadState& s) {
            writeDstD(ins, s, smear(std::sin(src1(s).x)));
        });
        break;
      case Opcode::SLT:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s,
                      {a.x < b.x ? 1.0f : 0.0f,
                       a.y < b.y ? 1.0f : 0.0f,
                       a.z < b.z ? 1.0f : 0.0f,
                       a.w < b.w ? 1.0f : 0.0f});
        });
        break;
      case Opcode::SUB:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s, a - b);
        });
        break;
      case Opcode::XPD:
        forLanes([&](ShaderThreadState& s) {
            const Vec4 a = src1(s);
            const Vec4 b = readSrcD(ins.src[1], s, constants);
            writeDstD(ins, s, cross3(a, b));
        });
        break;
      default:
        panic("shader emulator: unhandled opcode");
    }
}

/**
 * The quad kernel: execute one instruction for every live lane of a
 * quad in lockstep.  stepQuad() (the ShaderUnit) returns its result
 * and runQuad() (the reference renderer) loops over it, so both
 * execute every instruction through this one definition.
 *
 * A texture instruction advances no pc: it reports the per-lane
 * coordinates (done lanes get the default value), the live-lane
 * mask and the one LOD bias the quad shares, taken from the *last*
 * live lane's TXB coordinate.w.
 *
 * Every call writes @p result's outcome and latency, and a
 * TexRequest writes every texture field, so runQuad() reuses one
 * result instead of zero-filling a fresh one per instruction.
 */
ATTILA_EMU_FORCE_INLINE void
stepQuadCore(const DecodedProgram& program, const ConstantBank& constants,
             std::array<ShaderThreadState, 4>& lanes,
             std::array<bool, 4>& laneDone, QuadStepResult& result)
{
    // Reference lane: the first live one (all live lanes share pc).
    u32 ref = 0;
    while (ref < 4 && laneDone[ref])
        ++ref;
    if (ref == 4) {
        result.outcome = StepOutcome::Done;
        result.latency = 1;
        return;
    }

    const u32 pc = lanes[ref].pc;
    if (pc >= program.code.size())
        panic("shader emulator: pc ", pc,
              " past the end of a program of length ",
              program.code.size());
    const DecodedIns& ins = program.code[pc];
    result.latency = ins.latency;

    if (ins.op == Opcode::END) {
        for (u32 l = 0; l < 4; ++l)
            laneDone[l] = true;
        result.outcome = StepOutcome::Done;
        return;
    }

    if (ins.isTexture) {
        result.outcome = StepOutcome::TexRequest;
        result.texUnit = ins.texUnit;
        result.texTarget = ins.texTarget;
        result.texProjected = ins.texProjected;
        result.texLiveMask = 0;
        result.texLodBias = 0.0f;
        for (u32 l = 0; l < 4; ++l) {
            if (laneDone[l]) {
                result.texCoords[l] = Vec4();
                continue;
            }
            result.texCoords[l] =
                readSrcD(ins.src[0], lanes[l], constants);
            result.texLiveMask |= static_cast<u8>(1u << l);
            if (ins.texBiased)
                result.texLodBias = result.texCoords[l].w;
        }
        return;
    }

    if (ins.op == Opcode::KIL) {
        bool allDone = true;
        for (u32 l = 0; l < 4; ++l) {
            if (laneDone[l])
                continue;
            const Vec4 a =
                readSrcD(ins.src[0], lanes[l], constants);
            if (a.x < 0.0f || a.y < 0.0f || a.z < 0.0f ||
                a.w < 0.0f) {
                lanes[l].killed = true;
                laneDone[l] = true;
            } else {
                ++lanes[l].pc;
                allDone = false;
            }
        }
        result.outcome =
            allDone ? StepOutcome::Done : StepOutcome::Continue;
        return;
    }

    // Lanes run in order 0..3 either way; the unrolled all-live form
    // just drops the per-lane done tests of the common case.
    if (ref == 0 && !laneDone[1] && !laneDone[2] && !laneDone[3]) {
        const auto allLanes = [&](auto&& fn) {
            fn(lanes[0]);
            fn(lanes[1]);
            fn(lanes[2]);
            fn(lanes[3]);
        };
        execDecodedAlu(ins, constants, allLanes);
    } else {
        const auto liveLanes = [&](auto&& fn) {
            for (u32 l = 0; l < 4; ++l) {
                if (!laneDone[l])
                    fn(lanes[l]);
            }
        };
        execDecodedAlu(ins, constants, liveLanes);
    }
    for (u32 l = 0; l < 4; ++l) {
        if (!laneDone[l])
            ++lanes[l].pc;
    }
    result.outcome = StepOutcome::Continue;
}

} // anonymous namespace

QuadStepResult
ShaderEmulator::stepQuad(const DecodedProgram& program,
                         const ConstantBank& constants,
                         std::array<ShaderThreadState, 4>& lanes,
                         std::array<bool, 4>& laneDone) const
{
    QuadStepResult result;
    stepQuadCore(program, constants, lanes, laneDone, result);
    return result;
}

void
ShaderEmulator::completeTextureQuad(
    const DecodedProgram& program,
    std::array<ShaderThreadState, 4>& lanes,
    const std::array<bool, 4>& laneDone,
    const std::array<Vec4, 4>& texels) const
{
    for (u32 l = 0; l < 4; ++l) {
        if (laneDone[l])
            continue;
        const DecodedIns& ins = program.code[lanes[l].pc];
        if (!ins.isTexture)
            panic("shader emulator: completeTextureQuad at a"
                  " non-texture instruction");
        writeDstD(ins, lanes[l], texels[l]);
        ++lanes[l].pc;
    }
}

void
ShaderEmulator::runQuad(const DecodedProgram& program,
                        const ConstantBank& constants,
                        std::array<ShaderThreadState, 4>& lanes,
                        std::array<bool, 4>& laneDone,
                        std::array<bool, 4>& killed,
                        const QuadSampler& sampler) const
{
    QuadStepResult r;
    for (u32 guard = 0; guard < 65536; ++guard) {
        stepQuadCore(program, constants, lanes, laneDone, r);
        if (r.outcome == StepOutcome::Done) {
            for (u32 l = 0; l < 4; ++l)
                killed[l] = lanes[l].killed;
            return;
        }
        if (r.outcome != StepOutcome::TexRequest)
            continue;
        if (!sampler)
            panic("shader emulator: runQuad() needs a quad sampler"
                  " for texture instructions");
        completeTextureQuad(program, lanes, laneDone,
                            sampler(r.texUnit, r.texTarget, r.texCoords,
                                    r.texLiveMask, r.texLodBias,
                                    r.texProjected));
    }
    panic("shader emulator: program did not terminate");
}

ConstantBank
ShaderEmulator::makeConstants(const ShaderProgram& program)
{
    ConstantBank bank{};
    applyLiterals(program, bank);
    return bank;
}

void
ShaderEmulator::applyLiterals(const ShaderProgram& program,
                              ConstantBank& bank)
{
    for (const auto& [slot, value] : program.literals)
        bank[slot] = value;
}

} // namespace attila::emu
