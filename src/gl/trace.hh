/**
 * @file
 * Trace capture and replay (paper §4).
 *
 * TraceRecorder plays the GLInterceptor role: attached to a Context,
 * it records every API call with all parameter values and associated
 * buffer/texture data into a trace file.  TracePlayer (the GLPlayer
 * role) reproduces the captured trace into any Context — for
 * validation, or to feed the simulator.
 *
 * Hot start: because frames are independent, the player can start at
 * any frame; draw calls, clears and swaps of earlier frames are
 * skipped while state changes and buffer/texture uploads are still
 * applied (paper §4).  Traces carry no timestamps, isolating the
 * simulator from CPU-side effects.
 */

#ifndef ATTILA_GL_TRACE_HH
#define ATTILA_GL_TRACE_HH

#include <fstream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace attila::gl
{

class Context;

/** Recorded call identifiers. */
enum class TraceOp : u16
{
    ClearColorVal, ClearDepthVal, ClearStencilVal, Clear,
    SwapBuffers, Viewport, Enable, Disable, DepthFunc, DepthMask,
    StencilFuncCall, StencilOpCall, StencilMask, BlendFuncCall,
    BlendEquationCall, BlendColorCall, ColorMask, AlphaFuncCall,
    Scissor, CullFaceMode, FrontFace, MatrixModeCall, LoadIdentity,
    LoadMatrix, MultMatrix, PushMatrix, PopMatrix, GenBuffer,
    BufferData, DeleteBuffer, AttribPointer, DisableAttrib,
    GenTexture, BindTexture, ActiveTexture, TexImage2D,
    TexImageCube, TexFilter, TexWrap, TexMaxAniso, GenerateMipmaps,
    TexEnv, DeleteTexture, GenProgram, ProgramString,
    BindProgramVertex, BindProgramFragment, ProgramEnvParam,
    ProgramLocalParam, DrawArrays, DrawElements, Light, Material,
    SceneAmbient, FogCall, Color, StencilFuncBackCall,
    StencilOpBackCall,
};

/** Number of TraceOp values: one past the last. */
inline constexpr u16 traceOpCount =
    static_cast<u16>(TraceOp::StencilOpBackCall) + 1;

/** One decoded trace record. */
struct TraceRecord
{
    TraceOp op;
    std::vector<f64> scalars;
    std::vector<u8> blob;
    std::string text;
};

/** Records API calls into a trace file (GLInterceptor). */
class TraceRecorder
{
  public:
    explicit TraceRecorder(const std::string& path);
    ~TraceRecorder();

    /** Record one call. */
    void record(TraceOp op, std::initializer_list<f64> scalars = {},
                const u8* blob = nullptr, std::size_t blob_size = 0,
                const std::string& text = {});

    u64 recordCount() const { return _records; }
    u32 frameCount() const { return _frames; }

  private:
    std::ofstream _out;
    u64 _records = 0;
    u32 _frames = 0;
};

/** Replays a trace file into a Context (GLPlayer). */
class TracePlayer
{
  public:
    /** Parse the trace at @p path; throws FatalError, naming the
     * path and the record index, on a file it cannot open, a
     * truncated record or an unknown op. */
    explicit TracePlayer(const std::string& path);

    /** Number of frames (SwapBuffers records) in the trace. */
    u32 frameCount() const { return _frames; }

    const std::vector<TraceRecord>& records() const
    {
        return _records;
    }

    /**
     * Replay frames [@p first_frame, @p last_frame) into @p ctx.
     * Earlier frames are hot-started: draws, clears and swaps are
     * skipped, state changes and uploads still apply.
     */
    void play(Context& ctx, u32 first_frame = 0,
              u32 last_frame = ~0u) const;

  private:
    void apply(Context& ctx, const TraceRecord& rec) const;

    std::vector<TraceRecord> _records;
    u32 _frames = 0;
};

} // namespace attila::gl

#endif // ATTILA_GL_TRACE_HH
