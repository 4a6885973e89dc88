#include "emu/shader_emulator.hh"

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

} // anonymous namespace

StepResult
ShaderEmulator::step(const ShaderProgram& program,
                     const ConstantBank& constants,
                     ShaderThreadState& state,
                     const ImmediateSampler* sampler) const
{
    if (state.pc >= program.code.size())
        panic("shader emulator: pc ", state.pc,
              " past the end of a program of length ",
              program.code.size());

    const Instruction& ins = program.code[state.pc];
    const OpcodeInfo& info = opcodeInfo(ins.op);

    StepResult result;
    result.latency = info.latency;

    if (ins.op == Opcode::END) {
        result.outcome = StepOutcome::Done;
        return result;
    }

    if (info.isTexture) {
        const Vec4 coord = readSrc(ins.src[0], state, constants);
        const bool projected = ins.op == Opcode::TXP;
        const f32 bias = ins.op == Opcode::TXB ? coord.w : 0.0f;
        if (!sampler || !*sampler) {
            result.outcome = StepOutcome::TexRequest;
            result.texUnit = ins.texUnit;
            result.texTarget = ins.texTarget;
            result.texCoord = coord;
            result.texLodBias = bias;
            result.texProjected = projected;
            return result;
        }
        const Vec4 texel = (*sampler)(ins.texUnit, ins.texTarget,
                                      coord, bias, projected);
        writeDst(ins, state, texel);
        ++state.pc;
        result.outcome = StepOutcome::Continue;
        return result;
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
            result.outcome = StepOutcome::Done;
            return result;
        }
        ++state.pc;
        result.outcome = StepOutcome::Continue;
        return result;
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
    result.outcome = StepOutcome::Continue;
    return result;
}

void
ShaderEmulator::completeTexture(const ShaderProgram& program,
                                ShaderThreadState& state,
                                const Vec4& texel) const
{
    const Instruction& ins = program.code[state.pc];
    if (!opcodeInfo(ins.op).isTexture)
        panic("shader emulator: completeTexture at a non-texture"
              " instruction");
    writeDst(ins, state, texel);
    ++state.pc;
}

bool
ShaderEmulator::run(const ShaderProgram& program,
                    const ConstantBank& constants,
                    ShaderThreadState& state,
                    const ImmediateSampler* sampler) const
{
    for (u32 guard = 0; guard < 65536; ++guard) {
        const StepResult res = step(program, constants, state,
                                    sampler);
        if (res.outcome == StepOutcome::Done)
            return !state.killed;
        if (res.outcome == StepOutcome::TexRequest)
            panic("shader emulator: run() needs an immediate sampler"
                  " for texture instructions");
    }
    panic("shader emulator: program did not terminate");
}

// ---- Pre-decoded quad interpreter ------------------------------
//
// The interpreters below re-use the exact per-component expressions
// of step() (see execDecodedAlu); only operand *addressing* changed.

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
    const Vec4 r = src.splat
                       ? Vec4(v[static_cast<u32>(src.splat - 1)])
                       : Vec4(v[src.swz[0]], v[src.swz[1]],
                              v[src.swz[2]], v[src.swz[3]]);
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
 * The ALU dispatch shared by the scalar-decoded and quad paths: one
 * switch per *instruction*, then @p forLanes applies the case to
 * each live lane.  Every case computes the same expression as the
 * matching case of ShaderEmulator::step(), in the same per-lane
 * order, so results are bit-identical to the reference interpreter.
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
 * Operands of one quad texture access: per-lane coordinates (done
 * lanes keep the default value), the live-lane mask and the one LOD
 * bias the quad shares, taken from the *last* live lane's TXB
 * coordinate.w.  Both quad kernels build their requests here, so the
 * timing and reference images always sample with the same bias.
 */
struct QuadTexOperands
{
    std::array<Vec4, 4> coords{};
    u8 liveMask = 0;
    f32 lodBias = 0.0f;
};

QuadTexOperands
quadTexOperands(const DecodedIns& ins,
                const std::array<ShaderThreadState, 4>& lanes,
                const std::array<bool, 4>& laneDone,
                const ConstantBank& constants)
{
    QuadTexOperands ops;
    for (u32 l = 0; l < 4; ++l) {
        if (laneDone[l])
            continue;
        ops.coords[l] = readSrcD(ins.src[0], lanes[l], constants);
        ops.liveMask |= static_cast<u8>(1u << l);
        if (ins.texBiased)
            ops.lodBias = ops.coords[l].w;
    }
    return ops;
}

} // anonymous namespace

QuadStepResult
ShaderEmulator::stepQuad(const DecodedProgram& program,
                         const ConstantBank& constants,
                         std::array<ShaderThreadState, 4>& lanes,
                         std::array<bool, 4>& laneDone) const
{
    QuadStepResult result;

    // Reference lane: the first live one (all live lanes share pc).
    s32 ref = -1;
    for (u32 l = 0; l < 4; ++l) {
        if (!laneDone[l]) {
            ref = static_cast<s32>(l);
            break;
        }
    }
    if (ref < 0) {
        result.outcome = StepOutcome::Done;
        return result;
    }

    const u32 pc = lanes[static_cast<u32>(ref)].pc;
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
        return result;
    }

    if (ins.isTexture) {
        const QuadTexOperands ops =
            quadTexOperands(ins, lanes, laneDone, constants);
        result.outcome = StepOutcome::TexRequest;
        result.texUnit = ins.texUnit;
        result.texTarget = ins.texTarget;
        result.texProjected = ins.texProjected;
        result.texCoords = ops.coords;
        result.texLodBias = ops.lodBias;
        return result;
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
        return result;
    }

    const auto liveLanes = [&](auto&& fn) {
        for (u32 l = 0; l < 4; ++l) {
            if (!laneDone[l])
                fn(lanes[l]);
        }
    };
    execDecodedAlu(ins, constants, liveLanes);
    for (u32 l = 0; l < 4; ++l) {
        if (!laneDone[l])
            ++lanes[l].pc;
    }
    result.outcome = StepOutcome::Continue;
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
    // Tight quad-lockstep loop: identical per-lane arithmetic and
    // ordering to stepQuad() + completeTextureQuad(), minus the
    // per-instruction QuadStepResult and ref-lane rescans.
    const DecodedIns* const code = program.code.data();
    const u32 length = static_cast<u32>(program.code.size());
    const auto liveLanes = [&](auto&& fn) {
        for (u32 l = 0; l < 4; ++l) {
            if (!laneDone[l])
                fn(lanes[l]);
        }
    };
    // Unrolled variant for the common all-lanes-live case (same lane
    // order 0..3, so results match liveLanes bit for bit).
    const auto allLanes = [&](auto&& fn) {
        fn(lanes[0]);
        fn(lanes[1]);
        fn(lanes[2]);
        fn(lanes[3]);
    };
    bool anyDone =
        laneDone[0] || laneDone[1] || laneDone[2] || laneDone[3];
    // Converged kernel: a program with no texture access and no KIL
    // keeps every live lane in lockstep until END, so the quad shares
    // a single register-resident pc and runs without any divergence
    // bookkeeping (a vertex is a quad with one live lane).  Live
    // lanes run in order 0..3, keeping results bit-identical to the
    // general path below.
    if (!program.hasTexture && !program.hasKil) {
        std::array<ShaderThreadState*, 4> live{};
        u32 numLive = 0;
        for (u32 l = 0; l < 4; ++l) {
            if (!laneDone[l])
                live[numLive++] = &lanes[l];
        }
        const auto liveOnly = [&](auto&& fn) {
            for (u32 i = 0; i < numLive; ++i)
                fn(*live[i]);
        };
        const auto converged = [&](auto&& visit) {
            u32 pc = live[0]->pc;
            for (u32 guard = 0; guard < 65536; ++guard) {
                if (pc >= length)
                    panic("shader emulator: pc ", pc,
                          " past the end of a program of length ",
                          length);
                const DecodedIns& ins = code[pc];
                if (ins.op == Opcode::END) {
                    for (u32 i = 0; i < numLive; ++i)
                        live[i]->pc = pc;
                    for (u32 l = 0; l < 4; ++l) {
                        laneDone[l] = true;
                        killed[l] = lanes[l].killed;
                    }
                    return;
                }
                execDecodedAlu(ins, constants, visit);
                ++pc;
            }
            panic("shader emulator: program did not terminate");
        };
        if (numLive == 4)
            return converged(allLanes);
        if (numLive > 0)
            return converged(liveOnly);
    }
    for (u32 guard = 0; guard < 65536; ++guard) {
        s32 ref = -1;
        if (!anyDone) {
            ref = 0;
        } else {
            for (u32 l = 0; l < 4; ++l) {
                if (!laneDone[l]) {
                    ref = static_cast<s32>(l);
                    break;
                }
            }
        }
        if (ref < 0)
            break;
        const u32 pc = lanes[static_cast<u32>(ref)].pc;
        if (pc >= length)
            panic("shader emulator: pc ", pc,
                  " past the end of a program of length ", length);
        const DecodedIns& ins = code[pc];
        if (ins.op == Opcode::END) {
            for (u32 l = 0; l < 4; ++l)
                laneDone[l] = true;
            break;
        }
        if (ins.isTexture) {
            if (!sampler)
                panic("shader emulator: runQuad() needs a quad"
                      " sampler for texture instructions");
            const QuadTexOperands ops =
                quadTexOperands(ins, lanes, laneDone, constants);
            const std::array<Vec4, 4> texels =
                sampler(ins.texUnit, ins.texTarget, ops.coords,
                        ops.liveMask, ops.lodBias, ins.texProjected);
            for (u32 l = 0; l < 4; ++l) {
                if (laneDone[l])
                    continue;
                writeDstD(ins, lanes[l], texels[l]);
                ++lanes[l].pc;
            }
            continue;
        }
        if (ins.op == Opcode::KIL) {
            for (u32 l = 0; l < 4; ++l) {
                if (laneDone[l])
                    continue;
                const Vec4 a =
                    readSrcD(ins.src[0], lanes[l], constants);
                if (a.x < 0.0f || a.y < 0.0f || a.z < 0.0f ||
                    a.w < 0.0f) {
                    lanes[l].killed = true;
                    laneDone[l] = true;
                    anyDone = true;
                } else {
                    ++lanes[l].pc;
                }
            }
            continue;
        }
        if (anyDone) {
            execDecodedAlu(ins, constants, liveLanes);
            for (u32 l = 0; l < 4; ++l) {
                if (!laneDone[l])
                    ++lanes[l].pc;
            }
        } else {
            execDecodedAlu(ins, constants, allLanes);
            for (u32 l = 0; l < 4; ++l)
                ++lanes[l].pc;
        }
        continue;
    }
    for (u32 l = 0; l < 4; ++l) {
        if (!laneDone[l])
            panic("shader emulator: program did not terminate");
        killed[l] = lanes[l].killed;
    }
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
