/**
 * @file
 * DecodedProgram: the pre-decoded form of a ShaderProgram that the
 * quad interpreter executes (see docs/SIMULATION_MODEL.md).
 *
 * The interpreter's per-step costs are all *decode* costs: switching
 * on the operand bank, applying swizzles that are usually identity,
 * re-reading OpcodeInfo.  None of that depends on thread state, so it
 * is resolved exactly once per program here: every source operand
 * becomes either a flat offset into the thread's register file or a
 * constant-bank index, with its swizzle/negate baked into a single
 * "identity" flag plus component indices; every instruction carries
 * its opcode class, latency, texture fields and destination
 * pre-resolved.  The quad interpreter never inspects an Instruction
 * again.
 *
 * Decoding changes *where* values are read from, never *how* they
 * are combined: the arithmetic in the decoded interpreter is
 * expression-for-expression identical to ShaderEmulator::step(), so
 * registers stay bit-identical with the scalar reference interpreter.
 */

#ifndef ATTILA_EMU_DECODED_PROGRAM_HH
#define ATTILA_EMU_DECODED_PROGRAM_HH

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "emu/shader_emulator.hh"
#include "emu/shader_isa.hh"

namespace attila::emu
{

/** Flat register-file offsets (Vec4 units) into ShaderThreadState:
 * in, out and temp are contiguous arrays, so one base offset replaces
 * the per-read bank switch. */
namespace decoded
{
constexpr u32 inBase = 0;
constexpr u32 outBase = inBase + regix::numInputRegs;
constexpr u32 tempBase = outBase + regix::numOutputRegs;
constexpr u32 numThreadRegs = tempBase + regix::numTempRegs;

/** View a thread's registers as one flat Vec4 array. */
inline Vec4*
regs(ShaderThreadState& state)
{
    return state.in.data();
}

inline const Vec4*
regs(const ShaderThreadState& state)
{
    return state.in.data();
}

} // namespace decoded

/** A pre-resolved source operand. */
struct DecodedSrc
{
    /** Flat thread-register offset, or constant index when
     * fromConstants is set. */
    u16 offset = 0;
    bool fromConstants = false;
    /** Swizzle is xyzw and negate is off: plain copy. */
    bool identity = true;
    /** All four swizzle lanes read the same component (the .x-style
     * scalar reads ARB programs are full of): component + 1, or 0
     * when the swizzle is not a splat. */
    u8 splat = 0;
    std::array<u8, 4> swz{0, 1, 2, 3};
    bool negate = false;
};

/** A pre-resolved instruction: everything step() decides per step,
 * decided once. */
struct DecodedIns
{
    Opcode op = Opcode::END;
    u8 numSrc = 0;
    u8 latency = 1;
    bool isTexture = false;
    bool hasDst = false;
    bool saturate = false;
    /** Destination as a flat thread-register offset; writeMask 0xf
     * means write all components unmasked. */
    u16 dstOffset = 0;
    u8 writeMask = 0xf;
    /** Destination temp index when the target is the Temp bank, else
     * -1 (the ShaderUnit scoreboard keys on temp indices). */
    s16 dstTempIndex = -1;
    u8 texUnit = 0;
    TexTarget texTarget = TexTarget::Tex2D;
    bool texProjected = false; ///< TXP
    bool texBiased = false;    ///< TXB: bias taken from coord.w.
    std::array<DecodedSrc, 3> src{};
};

/** A flattened program ready for the quad interpreter. */
struct DecodedProgram
{
    std::vector<DecodedIns> code;

    /** Whether any instruction is a texture access / a KIL.  A
     * program with neither keeps a quad converged from start to
     * END, which the quad interpreter exploits. */
    bool hasTexture = false;
    bool hasKil = false;

    /** Decode @p program (panics on invalid banks, like step()). */
    static DecodedProgram decode(const ShaderProgram& program);
};

/**
 * Cache of decoded programs keyed by program identity.  Programs are
 * immutable once assembled and handed around as
 * shared_ptr<const ShaderProgram>, so the object address identifies
 * the program; each entry keeps a strong reference so a recycled
 * allocation can never alias a stale decode — releasing the old
 * program and uploading a new one at the same address replaces the
 * entry's source pointer check and re-decodes.
 *
 * Not thread-safe: keep one cache per ShaderUnit / RefRenderer (each
 * box is clocked by exactly one scheduler thread per phase).
 */
class DecodedProgramCache
{
  public:
    /** Decoded form of @p program, decoding on first sight. */
    const DecodedProgram&
    get(const ShaderProgramPtr& program)
    {
        Entry& entry = _entries[program.get()];
        if (entry.source != program) {
            entry.source = program;
            entry.decoded = DecodedProgram::decode(*program);
        }
        return entry.decoded;
    }

    std::size_t
    size() const
    {
        return _entries.size();
    }

  private:
    struct Entry
    {
        ShaderProgramPtr source;
        DecodedProgram decoded;
    };
    std::unordered_map<const ShaderProgram*, Entry> _entries;
};

} // namespace attila::emu

#endif // ATTILA_EMU_DECODED_PROGRAM_HH
