/**
 * @file
 * RopSurface: the framebuffer surface core of a ROP unit.  The Color
 * Write unit mirrors the Z and Stencil test unit (paper §2.2), so
 * both hold one surface: the unit's cache (one fbTileBytes tile per
 * line) over a block-state backing, the Command Processor control
 * and ack links, the memory port and the one clear/flush phase.  A
 * box supplies only its clear message, the buffer and clear word a
 * clear takes from the render state, its memory client and its
 * backing's compressed fill/writeback.
 */

#ifndef ATTILA_GPU_ROP_SURFACE_HH
#define ATTILA_GPU_ROP_SURFACE_HH

#include "emu/memory.hh"
#include "gpu/cache.hh"
#include "gpu/framebuffer.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"

namespace attila::gpu
{

/** Per-block compression / clear state (paper §2.2). */
enum class BlockState : u8
{
    Cleared,      ///< Fast-cleared; no memory backing yet.
    Uncompressed, ///< 256 bytes in memory.
    CompHalf,     ///< 128 bytes (1:2).
    CompQuarter,  ///< 64 bytes (1:4).
};

/** Line backing of a ROP surface: a Cleared block fills locally
 * with the clear word, a compressed one fetches its 1:2 or 1:4
 * share of the tile, which the subclass decodes in fillFromMemory()
 * and produces in writeback(). */
class RopBacking : public LineBacking
{
  public:
    /** The on-chip block state memory: one state per tile of the
     * buffer at bufferBase. */
    std::vector<BlockState> blocks;
    u32 bufferBase = 0;
    u32 clearWord = 0;
    bool compressionEnabled = false;

    u32
    blockOf(u32 lineAddr) const
    {
        return (lineAddr - bufferBase) / fbTileBytes;
    }

    /** A tile outside the buffer has no block state: it is plain
     * memory. */
    BlockState
    stateOf(u32 lineAddr) const
    {
        const u32 block = blockOf(lineAddr);
        return block < blocks.size() ? blocks[block]
                                     : BlockState::Uncompressed;
    }

    void
    setState(u32 lineAddr, BlockState state)
    {
        const u32 block = blockOf(lineAddr);
        if (block < blocks.size())
            blocks[block] = state;
    }

    u32 fillSize(u32 lineAddr) const override;
    void fillLocal(u32 lineAddr, u8* lineOut) const override;

    /**
     * Resolve the tile at @p lineAddr from its block state and the
     * bytes stored in @p memory, exactly as a cache fill of it
     * would (the DAC reads colour tiles this way).
     */
    void resolveTile(u32 lineAddr, const emu::GpuMemory& memory,
                     u8* lineOut) const;
};

/** What a ROP box may do this cycle, after its surface's control
 * phase has advanced. */
enum class RopStep : u8
{
    Run,          ///< No clear or flush under way: process quads.
    Hold,         ///< A clear or flush holds the unit this cycle.
    ClearStarted, ///< A clear began this cycle (the unit holds).
};

/** The framebuffer surface core shared by ROPz and ROPc. */
class RopSurface
{
  public:
    /** What tells the Z/stencil surface from the colour one. */
    struct Kind
    {
        const char* linkName;  ///< "ropz": cp.ctrl.ropz<N>, ack.ropz<N>.
        const char* cacheName; ///< "zcache": the cache and mc.zcache<N>.
        MemClient client;
        ControlKind clear;
        u32 (*bufferOf)(const RenderState&);
        u32 (*clearWordOf)(const RenderState&);
    };

    RopSurface(const Kind& kind, const GpuConfig& config, u32 unit,
               emu::GpuMemory& memory, u32 cacheKB, u32 cacheWays,
               u32 cacheMshr, sim::Statistic& hits,
               sim::Statistic& misses, RopBacking& backing);

    /** Register the control, ack and memory links on @p box. */
    void init(sim::Box& box, sim::SignalBinder& binder);

    /** Clock the surface's links and advance its control phase;
     * call first in the box's update(). */
    RopStep update(Cycle cycle);

    /** Pump the cache's fills and writebacks; call on RopStep::Run
     * cycles. */
    void
    clockCache(Cycle cycle)
    {
        _cache.clock(cycle, _mem, _kind.client);
    }

    FbCache& cache() { return _cache; }
    const FbCache& cache() const { return _cache; }

    /** The control phase can change state without a new input: a
     * queued control message to take, or a flush under way.  A
     * clear ends on clearDoneAt(). */
    bool
    busy() const
    {
        return _phase == Phase::Flushing ||
               (_phase == Phase::None && !_ctrl.empty());
    }

    /** No clear or flush holds the unit: its update runs quads. */
    bool running() const { return _phase == Phase::None; }

    /** The cycle a clear under way can finish and ack, or NoWake
     * (no clear, or its ack waits for a credit, which arrives as an
     * input). */
    Cycle
    clearDoneAt() const
    {
        return _phase == Phase::Clearing && _ack.credits() > 0
                   ? _doneAt
                   : sim::NoWake;
    }

    /** clockCache() has fills or writebacks to move. */
    bool
    cacheWouldProgress() const
    {
        return _cache.clockWouldProgress(_mem);
    }

    /** No control message queued or under way and no cache traffic
     * in flight. */
    bool
    idle() const
    {
        return _ctrl.empty() && _phase == Phase::None &&
               _cache.idle();
    }

  private:
    enum class Phase : u8 { None, Clearing, Flushing };

    void startClear(Cycle cycle, const RenderState& state);
    /** Send the ack once the link has room; true when sent. */
    bool acknowledge(Cycle cycle);

    const Kind _kind;
    const GpuConfig& _config;
    const u32 _unit;
    emu::GpuMemory& _memory; ///< For slow clears only.
    RopBacking& _backing;
    FbCache _cache;

    LinkRx<ControlObj> _ctrl;
    LinkTx _ack;
    MemPort _mem;

    Phase _phase = Phase::None;
    Cycle _doneAt = 0;
    ControlKind _ctrlKind = ControlKind::Flush;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_ROP_SURFACE_HH
