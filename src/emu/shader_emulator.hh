/**
 * @file
 * ShaderEmulator: the threaded interpreter that executes shader
 * programs instruction by instruction over per-thread register state
 * (paper §3).
 *
 * The emulator is pure functional code: it knows nothing about
 * cycles.  One quad kernel defines how a pre-decoded instruction
 * executes for a 2x2 quad.  The timing boxes (ShaderUnit) call
 * stepQuad() to run it one instruction at a time and learn each
 * latency class; the reference renderer calls runQuad(), a loop over
 * the same kernel that answers texture requests through a sampler
 * callback.  The scalar run() interprets a ShaderProgram directly
 * and is kept as the reference interpreter the tests and the shader
 * micro benchmark compare against.
 */

#ifndef ATTILA_EMU_SHADER_EMULATOR_HH
#define ATTILA_EMU_SHADER_EMULATOR_HH

#include <array>

#include "emu/shader_isa.hh"
#include "emu/vector.hh"
#include "sim/function_ref.hh"

namespace attila::emu
{

struct DecodedProgram; // emu/decoded_program.hh

/** Per-thread (per shader input) register state. */
struct ShaderThreadState
{
    std::array<Vec4, regix::numInputRegs> in{};
    std::array<Vec4, regix::numOutputRegs> out{};
    std::array<Vec4, regix::numTempRegs> temp{};
    u32 pc = 0;
    bool killed = false;

    void
    reset()
    {
        in.fill(Vec4());
        out.fill(Vec4());
        temp.fill(Vec4());
        pc = 0;
        killed = false;
    }
};

/** Constant (Param) bank shared by all threads of a program. */
using ConstantBank = std::array<Vec4, regix::numParamRegs>;

/**
 * Callback the scalar run() resolves TEX/TXB/TXP instructions
 * through.  Arguments: texture unit, target, unprojected coordinate,
 * TXB bias (coordinate.w per ARB) and whether the access is a TXP.
 *
 * Non-owning (sim::FunctionRef): bind it to a *named* callable that
 * outlives every run() call, never to a temporary lambda.
 */
using ImmediateSampler =
    sim::FunctionRef<Vec4(u32 unit, TexTarget target,
                          const Vec4& coord, f32 lodBias,
                          bool projected)>;

/**
 * Quad-context sampler for the lockstep path: resolves one texture
 * instruction for all four lanes at once.  @p coords holds the
 * unprojected per-lane coordinates (inactive lanes keep their
 * default value — they still shape the quad footprint, as in the
 * per-lane path); @p liveMask bit l is set for lanes to sample.
 * Same lifetime contract as ImmediateSampler.
 */
using QuadSampler = sim::FunctionRef<std::array<Vec4, 4>(
    u32 unit, TexTarget target, const std::array<Vec4, 4>& coords,
    u8 liveMask, f32 lodBias, bool projected)>;

/** Outcome of executing one instruction. */
enum class StepOutcome : u8
{
    Continue,   ///< Instruction retired, more follow.
    Done,       ///< END reached (or fragment killed).
    TexRequest, ///< Texture access: the caller must service it.
};

/** Result of ShaderEmulator::stepQuad(). */
struct QuadStepResult
{
    /** Done means every lane of the quad has finished. */
    StepOutcome outcome = StepOutcome::Continue;
    u32 latency = 1;
    // Valid when outcome == TexRequest (done lanes get the default
    // coordinates):
    u32 texUnit = 0;
    TexTarget texTarget = TexTarget::Tex2D;
    std::array<Vec4, 4> texCoords{};
    u8 texLiveMask = 0; ///< Bit l set for each live lane.
    f32 texLodBias = 0.0f; ///< Shared TXB bias (last live lane).
    bool texProjected = false; ///< TXP: divide coords by q.
};

/**
 * Executes shader programs.  Stateless across threads: all mutable
 * state lives in ShaderThreadState, so one emulator instance can
 * serve any number of interleaved threads (as the multithreaded
 * shader units do).
 */
class ShaderEmulator
{
  public:
    /**
     * Run @p program to completion for @p state using @p sampler for
     * texture accesses (a texture instruction without one panics).
     * Returns false when the fragment was killed.
     */
    bool run(const ShaderProgram& program,
             const ConstantBank& constants, ShaderThreadState& state,
             const ImmediateSampler* sampler = nullptr) const;

    // ---- Pre-decoded quad interpreter (emu/decoded_program.hh) ----
    //
    // The timing model and the reference renderer both execute
    // through one quad kernel.  It runs the same arithmetic in the
    // same per-lane order as run(), so registers stay bit-identical
    // with the scalar interpreter above, which remains the test
    // oracle.  A single thread (a vertex in the reference renderer)
    // is a quad with one live lane.

    /**
     * Execute one instruction for every live lane of a quad in
     * lockstep.  Lane l is live when !laneDone[l]; END and KIL mark
     * lanes done in place.  A texture instruction returns TexRequest
     * and advances no pc: the caller services it and then calls
     * completeTextureQuad().
     */
    QuadStepResult stepQuad(const DecodedProgram& program,
                            const ConstantBank& constants,
                            std::array<ShaderThreadState, 4>& lanes,
                            std::array<bool, 4>& laneDone) const;

    /** Finish a pending quad texture access: write each live lane's
     * texel and advance its pc. */
    void completeTextureQuad(const DecodedProgram& program,
                             std::array<ShaderThreadState, 4>& lanes,
                             const std::array<bool, 4>& laneDone,
                             const std::array<Vec4, 4>& texels) const;

    /**
     * Run a quad to completion: stepQuad() until done, answering each
     * texture request through @p sampler and completeTextureQuad().
     * On return every lane is done and killed[l] reports the KIL
     * outcomes.
     */
    void runQuad(const DecodedProgram& program,
                 const ConstantBank& constants,
                 std::array<ShaderThreadState, 4>& lanes,
                 std::array<bool, 4>& laneDone,
                 std::array<bool, 4>& killed,
                 const QuadSampler& sampler) const;

    /** Build a constant bank from a program's literals (other slots
     * zero). */
    static ConstantBank makeConstants(const ShaderProgram& program);

    /** Merge @p program literals into an existing bank. */
    static void applyLiterals(const ShaderProgram& program,
                              ConstantBank& bank);
};

} // namespace attila::emu

#endif // ATTILA_EMU_SHADER_EMULATOR_HH
