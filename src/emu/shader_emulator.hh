/**
 * @file
 * ShaderEmulator: the threaded interpreter that executes shader
 * programs instruction by instruction over per-thread register state
 * (paper §3).
 *
 * The emulator is pure functional code: it knows nothing about
 * cycles.  The timing boxes (ShaderUnit) call stepQuad() to execute
 * one instruction for a 2x2 quad and learn its latency class; the
 * reference renderer calls runQuad() to execute a whole program.
 * Both run a pre-decoded program.  The scalar step()/run() pair
 * interprets a ShaderProgram directly and is kept as the reference
 * interpreter the tests and the shader micro benchmark compare
 * against.  Texture sampling is delegated through sampler callbacks
 * so that the timing path can route requests through the Texture
 * Unit while functional paths sample immediately.
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
 * Callback used to resolve TEX/TXB/TXP instructions immediately
 * (functional paths).  Arguments: texture unit, target, coordinate
 * (TXP already projected, TXB bias in coordinate.w per ARB).
 *
 * Non-owning (sim::FunctionRef): bind it to a *named* callable that
 * outlives every step()/run() call, never to a temporary lambda.
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

/** Result of ShaderEmulator::step(). */
struct StepResult
{
    StepOutcome outcome = StepOutcome::Continue;
    u32 latency = 1;       ///< Execution latency class in cycles.
    // Valid when outcome == TexRequest:
    u32 texUnit = 0;
    TexTarget texTarget = TexTarget::Tex2D;
    Vec4 texCoord;         ///< Post-swizzle source coordinate.
    f32 texLodBias = 0.0f; ///< TXB bias (coordinate.w).
    bool texProjected = false; ///< TXP: divide coords by q.
};

/** Result of ShaderEmulator::stepQuad(). */
struct QuadStepResult
{
    /** Done means every lane of the quad has finished. */
    StepOutcome outcome = StepOutcome::Continue;
    u32 latency = 1;
    // Valid when outcome == TexRequest (inactive lanes keep default
    // coordinates, exactly as the per-lane request build does):
    u32 texUnit = 0;
    TexTarget texTarget = TexTarget::Tex2D;
    std::array<Vec4, 4> texCoords{};
    f32 texLodBias = 0.0f;
    bool texProjected = false;
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
     * Execute the instruction at @p state.pc of @p program.
     *
     * When the instruction is a texture access and @p sampler is
     * null, the result has outcome TexRequest and the thread's pc is
     * NOT advanced: the caller services the request and then calls
     * completeTexture().  With a non-null @p sampler the access is
     * resolved inline.
     */
    StepResult step(const ShaderProgram& program,
                    const ConstantBank& constants,
                    ShaderThreadState& state,
                    const ImmediateSampler* sampler = nullptr) const;

    /**
     * Finish a pending texture access: write @p texel into the
     * destination of the instruction at state.pc and advance.
     */
    void completeTexture(const ShaderProgram& program,
                         ShaderThreadState& state,
                         const Vec4& texel) const;

    /**
     * Run @p program to completion for @p state using @p sampler for
     * texture accesses.  Returns false when the fragment was killed.
     */
    bool run(const ShaderProgram& program,
             const ConstantBank& constants, ShaderThreadState& state,
             const ImmediateSampler* sampler = nullptr) const;

    // ---- Pre-decoded quad interpreter (emu/decoded_program.hh) ----
    //
    // The timing model and the reference renderer both execute
    // through these.  They run the same arithmetic in the same
    // per-lane order as step(), so registers stay bit-identical with
    // the scalar interpreter above, which remains the test oracle.
    // A single thread (a vertex in the reference renderer) is a quad
    // with one live lane.

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
     * Run a quad to completion in lockstep; texture instructions
     * resolve through @p sampler.  On return every lane is done and
     * killed[l] reports the KIL outcomes.
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
