#include "emu/decoded_program.hh"

#include "sim/logging.hh"

namespace attila::emu
{

// The flat register file relies on in/out/temp being laid out
// back to back inside ShaderThreadState.
static_assert(offsetof(ShaderThreadState, in) == 0);
static_assert(offsetof(ShaderThreadState, out) ==
              decoded::outBase * sizeof(Vec4));
static_assert(offsetof(ShaderThreadState, temp) ==
              decoded::tempBase * sizeof(Vec4));

namespace
{

DecodedSrc
decodeSrc(const SrcOperand& src)
{
    DecodedSrc out;
    switch (src.bank) {
      case Bank::Attrib:
        out.offset = static_cast<u16>(decoded::inBase + src.index);
        break;
      case Bank::Temp:
        out.offset = static_cast<u16>(decoded::tempBase + src.index);
        break;
      case Bank::Param:
        out.offset = src.index;
        out.fromConstants = true;
        break;
      default:
        panic("decoded program: read from invalid bank");
    }
    out.swz = src.swizzle;
    out.negate = src.negate;
    out.identity = !src.negate && src.swizzle[0] == 0 &&
                   src.swizzle[1] == 1 && src.swizzle[2] == 2 &&
                   src.swizzle[3] == 3;
    if (src.swizzle[0] == src.swizzle[1] &&
        src.swizzle[1] == src.swizzle[2] &&
        src.swizzle[2] == src.swizzle[3])
        out.splat = static_cast<u8>(src.swizzle[0] + 1);
    return out;
}

} // anonymous namespace

DecodedProgram
DecodedProgram::decode(const ShaderProgram& program)
{
    DecodedProgram out;
    out.code.reserve(program.code.size());
    for (const Instruction& ins : program.code) {
        const OpcodeInfo& info = opcodeInfo(ins.op);
        DecodedIns d;
        d.op = ins.op;
        d.numSrc = info.numSrc;
        d.latency = static_cast<u8>(info.latency);
        d.isTexture = info.isTexture;
        d.hasDst = info.hasDst;
        d.saturate = ins.saturate;
        if (info.hasDst) {
            switch (ins.dst.bank) {
              case Bank::Temp:
                d.dstOffset = static_cast<u16>(decoded::tempBase +
                                               ins.dst.index);
                d.dstTempIndex = ins.dst.index;
                break;
              case Bank::Output:
                d.dstOffset = static_cast<u16>(decoded::outBase +
                                               ins.dst.index);
                break;
              default:
                panic("decoded program: write to invalid bank");
            }
            d.writeMask = ins.dst.writeMask;
        }
        d.texUnit = ins.texUnit;
        d.texTarget = ins.texTarget;
        d.texProjected = ins.op == Opcode::TXP;
        d.texBiased = ins.op == Opcode::TXB;
        for (u32 i = 0; i < info.numSrc; ++i)
            d.src[i] = decodeSrc(ins.src[i]);
        out.code.push_back(d);
    }
    return out;
}

} // namespace attila::emu
