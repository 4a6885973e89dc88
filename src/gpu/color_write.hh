/**
 * @file
 * ColorWrite (ROPc): updates the framebuffer with the colours
 * computed by the fragment shaders, implementing all the OpenGL
 * blend and update functions (paper §2.2).  The Color cache supports
 * fast colour clear of the whole buffer through the per-block state
 * memory.  The architecture mirrors the Z and Stencil test unit: both
 * hold one RopSurface (gpu/rop_surface.hh).
 *
 * ColorWrite is the end of the pipeline: when a batch's end markers
 * have arrived on both datapaths (early: from the Fragment FIFO;
 * late: through ROPz) the unit reports batch retirement to the
 * Command Processor.
 */

#ifndef ATTILA_GPU_COLOR_WRITE_HH
#define ATTILA_GPU_COLOR_WRITE_HH

#include "emu/memory.hh"
#include "gpu/rop_surface.hh"
#include "sim/box.hh"
#include "sim/ring_queue.hh"

namespace attila::gpu
{

/**
 * The colour surface's backing, with the §7 colour compression
 * extension: a tile whose 64 pixels are identical writes back (and
 * fills) at 1:4 — the word is replicated on fill.
 */
class ColorBacking : public RopBacking
{
  public:
    void fillFromMemory(u32 lineAddr, const u8* memBytes, u32 size,
                        u8* lineOut) const override;
    u32 writeback(u32 lineAddr, const u8* lineData,
                  u8* out) override;
};

/** The Color Write box. */
class ColorWrite : public sim::Box
{
  public:
    ColorWrite(sim::SignalBinder& binder,
               sim::StatisticManager& stats, const GpuConfig& config,
               u32 unit, emu::GpuMemory& memory);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

    /** The colour surface's block states, through which the DAC
     * resolves the tiles this unit owns. */
    const RopBacking& backing() const { return _backing; }

    /** Wire the color cache's hit/miss events (cache unit name = box
     * name, matching the cacheHits/cacheMisses statistics). */
    void
    attachEventTrace(sim::EventTrace& trace) override
    {
        _surface.cache().setEventTrace(&trace,
                                       trace.registerCache(name()));
    }

  private:
    /** A control step, a batch marker, the current batch's next
     * quad, cache traffic or a retire can move.  A clear ends at
     * clearDoneAt(). */
    bool progressPossible() const;

    void processQuads(Cycle cycle);
    /** Pop any markers of the current/next batch at an input head.
     *  Returns true when something was consumed. */
    bool popMarkers(Cycle cycle, LinkRx<QuadObj>& rx, bool late);
    bool colorAccess(Cycle cycle, QuadObj& quad);
    /** popMarkers() would take the head of @p rx. */
    bool markerCanPop(const LinkRx<QuadObj>& rx) const;
    /** The head of @p rx is a quad of the current batch. */
    bool headIsCurrentQuad(const LinkRx<QuadObj>& rx) const;
    /** processQuads() would move a quad (markers aside). */
    bool quadCanMove() const;
    void tryRetire(Cycle cycle);

    const u32 _unit;

    LinkRx<QuadObj> _earlyIn;
    LinkRx<QuadObj> _lateIn;
    LinkTx _retire;

    ColorBacking _backing;
    RopSurface _surface;

    /** Batch sequencing: colour accesses happen in batch order. */
    bool _haveCur = false;
    u32 _curBatch = 0;
    bool _endEarly = false; ///< Early-path BatchEnd popped.
    bool _endLate = false;  ///< Late-path BatchEnd popped.
    sim::RingQueue<u32> _retireQueue;

    sim::BatchedStat _statQuads;
    sim::BatchedStat _statFragments;
    sim::BatchedStat _statBlended;
    sim::BatchedStat _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_COLOR_WRITE_HH
