/**
 * @file
 * The DynamicObjects that travel through the ATTILA pipeline's
 * signals: vertices, triangles, fragment tiles, fragment quads,
 * memory transactions and control markers.  Real data (32-bit FP
 * attributes, depth values, texels) travels inside these objects —
 * the simulator is execution driven (paper §3).
 */

#ifndef ATTILA_GPU_WORK_OBJECTS_HH
#define ATTILA_GPU_WORK_OBJECTS_HH

#include <array>
#include <memory>
#include <vector>

#include "emu/rasterizer_emulator.hh"
#include "emu/shader_emulator.hh"
#include "emu/vector.hh"
#include "gpu/regs.hh"
#include "sim/dynamic_object.hh"

namespace attila::gpu
{

/** Pipeline control markers interleaved with the data stream. */
enum class MarkerKind : u8
{
    None,
    BatchStart, ///< Carries the batch's render state snapshot.
    BatchEnd,   ///< Flows behind the batch's last work item.
};

/** Base class for pipeline work: carries batch id and state. */
class WorkObject : public sim::DynamicObject
{
  public:
    u32 batchId = 0;
    RenderStatePtr state;
    MarkerKind marker = MarkerKind::None;

    bool isMarker() const { return marker != MarkerKind::None; }
};

using WorkObjectPtr = std::shared_ptr<WorkObject>;

/** A vertex flowing from the Streamer to Primitive Assembly. */
class VertexObj : public WorkObject
{
  public:
    u32 index = 0;    ///< Source index in the batch.
    u32 sequence = 0; ///< Position within the batch (commit order).
    /** Input attributes (loaded by the Streamer). */
    std::array<emu::Vec4, emu::regix::numInputRegs> in{};
    /** Shaded outputs (position in out[0]). */
    std::array<emu::Vec4, emu::regix::numOutputRegs> out{};
    bool fromVertexCache = false;
    /** Batch primitive topology (valid on BatchStart markers). */
    Primitive primitive = Primitive::Triangles;
};

using VertexObjPtr = std::shared_ptr<VertexObj>;

/** An assembled triangle with its (later) setup data. */
class TriangleObj : public WorkObject
{
  public:
    /** Shaded vertex outputs of the three corners. */
    std::array<std::array<emu::Vec4, emu::regix::numOutputRegs>, 3>
        vertex{};
    /** Filled by the Triangle Setup unit. */
    emu::TriangleSetup setup;
    u32 triangleId = 0; ///< Sequence within the batch.
};

using TriangleObjPtr = std::shared_ptr<TriangleObj>;

/** An 8x8 fragment tile produced by the Fragment Generator. */
class TileObj : public WorkObject
{
  public:
    TriangleObjPtr triangle;
    s32 x0 = 0; ///< Tile origin in pixels.
    s32 y0 = 0;
    u64 coverage = 0; ///< Bit (y*8 + x) set = fragment inside.
    std::array<f32, 64> z{};
    f32 minZ = 1.0f; ///< Minimum covered depth (for the HZ test).
};

using TileObjPtr = std::shared_ptr<TileObj>;

/** One 2x2 fragment quad: the basic fragment work unit. */
class QuadObj : public WorkObject
{
  public:
    TriangleObjPtr triangle;
    s32 x0 = 0; ///< Top-left fragment position.
    s32 y0 = 0;
    /** Per-fragment coverage (index: dy*2 + dx). */
    std::array<bool, 4> coverage{};
    std::array<f32, 4> z{};
    /** Edge equation values for attribute interpolation. */
    std::array<std::array<f64, 3>, 4> edge{};
    /** Interpolated fragment inputs (by the Interpolator). */
    std::array<std::array<emu::Vec4, emu::regix::numInputRegs>, 4>
        in{};
    /** Shaded outputs (colour in out[0], optional depth out[1]). */
    std::array<std::array<emu::Vec4, emu::regix::numOutputRegs>, 4>
        out{};
    bool shaded = false;
    bool lateZPath = false; ///< Needs z/stencil after shading.
    bool backFacing = false; ///< For double-sided stencil.
};

using QuadObjPtr = std::shared_ptr<QuadObj>;

/** Memory transaction client identifiers (for statistics). */
enum class MemClient : u8
{
    CommandProcessor, Streamer, ZCache, ColorCache, TextureCache, Dac,
};

/** Printable name of a memory client. */
inline const char*
memClientName(MemClient c)
{
    switch (c) {
      case MemClient::CommandProcessor: return "cp";
      case MemClient::Streamer: return "streamer";
      case MemClient::ZCache: return "zcache";
      case MemClient::ColorCache: return "colorcache";
      case MemClient::TextureCache: return "texcache";
      case MemClient::Dac: return "dac";
    }
    return "?";
}

/** A read or write request to the Memory Controller. */
class MemTransaction : public sim::DynamicObject
{
  public:
    bool isRead = true;
    u32 address = 0;
    u32 size = 0;            ///< Bytes, up to 256.
    std::vector<u8> data;    ///< Write payload / read result.
    MemClient client = MemClient::Streamer;
    u64 tag = 0;             ///< Requester-private identifier.
    /** Host-side bookkeeping: bursts still in flight inside the
     * memory controller.  Not modeled state. */
    u32 hostBurstsLeft = 0;

    /** Recycle hook for sim::ObjectPool: reset all fields but keep
     * the payload vector's capacity, so steady-state transactions
     * allocate nothing. */
    void
    poolReset()
    {
        resetDynamicState();
        isRead = true;
        address = 0;
        size = 0;
        data.clear();
        client = MemClient::Streamer;
        tag = 0;
        hostBurstsLeft = 0;
    }
};

using MemTransactionPtr = std::shared_ptr<MemTransaction>;

/** Texture request from a shader unit to a Texture Unit. */
class TexRequest : public sim::DynamicObject
{
  public:
    u32 shaderId = 0;
    u64 threadTag = 0;
    u32 textureUnit = 0; ///< Texture *stage* (sampler index).
    emu::TexTarget target = emu::TexTarget::Tex2D;
    std::array<emu::Vec4, 4> coords{};   ///< Whole quad.
    std::array<bool, 4> active{};        ///< Lane coverage.
    f32 lodBias = 0.0f;
    bool projected = false;
    RenderStatePtr state;
    /** Response payload. */
    std::array<emu::Vec4, 4> texels{};

    /** Recycle hook for sim::ObjectPool: the shader units pool quad
     * texture requests. */
    void
    poolReset()
    {
        resetDynamicState();
        shaderId = 0;
        threadTag = 0;
        textureUnit = 0;
        target = emu::TexTarget::Tex2D;
        coords.fill(emu::Vec4());
        active.fill(false);
        lodBias = 0.0f;
        projected = false;
        state.reset();
        texels.fill(emu::Vec4());
    }
};

using TexRequestPtr = std::shared_ptr<TexRequest>;

/** Control messages broadcast by the Command Processor. */
enum class ControlKind : u8
{
    ClearColor, ClearZStencil, Flush, HzPoison, DumpFrame,
};

/** A control message (clears, flushes) with its state snapshot. */
class ControlObj : public sim::DynamicObject
{
  public:
    ControlKind kind = ControlKind::Flush;
    RenderStatePtr state;
};

using ControlObjPtr = std::shared_ptr<ControlObj>;

/** Acknowledgement of a control message. */
class AckObj : public sim::DynamicObject
{
  public:
    ControlKind kind = ControlKind::Flush;
    u32 unit = 0;
};

/** Hierarchical Z update from a ROPz unit. */
class HzUpdateObj : public sim::DynamicObject
{
  public:
    u32 tileIndex = 0;
    f32 maxZ = 1.0f;
};

/** End-of-batch retirement notification to the Command Processor. */
class RetireObj : public sim::DynamicObject
{
  public:
    u32 batchId = 0;
    u32 unit = 0;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_WORK_OBJECTS_HH
