/**
 * @file
 * ZStencilTest (ROPz): tests fragment quads against the stencil and
 * depth buffer — 8 stencil bits + 24 depth bits per element (paper
 * §2.2).
 *
 * A Z cache (Table 2) exploits access locality; evicted lines are
 * losslessly compressed (1:2 / 1:4) before writeback and their exact
 * per-tile maximum depth refines the Hierarchical Z buffer.  Fast Z
 * and stencil clear is implemented through the per-block state
 * memory: cleared blocks are filled on demand without memory
 * traffic.
 *
 * The unit serves both datapaths: quads arriving from the
 * Hierarchical Z box are tested before shading (early Z) or passed
 * through (late-Z batches), and shaded quads coming back from the
 * Fragment FIFO are tested after shading and forwarded to Color
 * Write.
 */

#ifndef ATTILA_GPU_Z_STENCIL_TEST_HH
#define ATTILA_GPU_Z_STENCIL_TEST_HH

#include <set>

#include "emu/memory.hh"
#include "emu/z_compressor.hh"
#include "gpu/rop_surface.hh"
#include "sim/box.hh"
#include "sim/ring_queue.hh"

namespace attila::gpu
{

/** The Z/stencil surface's backing: Z compression (1:2 / 1:4) on
 * writeback, whose exact tile maximum refines the Hierarchical Z
 * buffer. */
class ZStencilBacking : public RopBacking
{
  public:
    /** A writeback's exact tile maximum for the Hierarchical Z
     * buffer. */
    struct HzRefinement
    {
        u32 tileIndex = 0;
        f32 maxZ = 1.0f; ///< In [0, 1].
    };

    /** One refinement per writeback, waiting to be sent to the
     * Hierarchical Z box. */
    sim::RingQueue<HzRefinement> hzUpdates;

    /** Neither direction allocates: the codec works in the caller's
     * buffers. */
    void fillFromMemory(u32 lineAddr, const u8* memBytes, u32 size,
                        u8* lineOut) const override;
    u32 writeback(u32 lineAddr, const u8* lineData,
                  u8* out) override;
};

/** The Z and Stencil Test box. */
class ZStencilTest : public sim::Box
{
  public:
    ZStencilTest(sim::SignalBinder& binder,
                 sim::StatisticManager& stats,
                 const GpuConfig& config, u32 unit,
                 emu::GpuMemory& memory);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

    /** Wire the Z cache's hit/miss events (cache unit name = box
     * name, matching the cacheHits/cacheMisses statistics). */
    void
    attachEventTrace(sim::EventTrace& trace) override
    {
        _surface.cache().setEventTrace(&trace,
                                       trace.registerCache(name()));
    }

  private:
    /** A control step, an input head, cache traffic or an HZ update
     * can move.  A delay pipeline's head leaves at its ready cycle
     * (or on a returned credit), a clear at its end. */
    bool progressPossible() const;

    /** Output delay pipelines (ROP latency).  The early (to the
     *  Interpolator) and late (to Color Write) outputs are
     *  independent: sharing one queue would deadlock the pipeline
     *  when the early path backs up while Color Write waits for
     *  late-path markers. */
    struct Delayed
    {
        Cycle readyAt;
        WorkObjectPtr quad; ///< Quad or batch marker.
    };

    void processEarly(Cycle cycle);
    void processLate(Cycle cycle);
    /** Move the head of @p in into the delay pipeline @p out: a
     * marker as it is (markers share the pipeline, so they never
     * overtake work of their batch), a quad once Z-tested.  False
     * when it must wait. */
    bool advance(Cycle cycle, LinkRx<QuadObj>& in,
                 sim::RingQueue<Delayed>& out, bool shaded);
    /** Run the z/stencil test on @p quad.  Returns false when the
     * access must be retried (cache miss / blocked). */
    bool zAccess(Cycle cycle, QuadObj& quad, bool shaded);
    /** zAccess() on @p quad would not just wait for the cache. */
    bool zAccessWouldProgress(const QuadObj& quad) const;
    /** The previous late batch, if any, has finished its Z
     * accesses, so early-tested quads may make theirs. */
    bool earlyGateOpen() const;
    /** A delay pipeline holds its eight quads (ROP latency). */
    static bool full(const sim::RingQueue<Delayed>& pipeline);
    /** The head of the late input can advance. */
    bool lateCanAdvance() const;
    /** The head of the early input can move. */
    bool earlyCanAdvance() const;
    void drainOutputs(Cycle cycle);
    void sendHzUpdates(Cycle cycle);

    const GpuConfig& _config;

    LinkRx<QuadObj> _earlyIn;
    LinkRx<QuadObj> _lateIn;
    LinkTx _toInterp;
    LinkTx _toRopc;
    LinkTx _hzUpdates;

    ZStencilBacking _backing;
    RopSurface _surface;

    /** Cross-batch ordering: set when a late batch's z accesses are
     * complete (its BatchEnd popped on the late input). */
    std::set<u32> _lateDone;
    bool _prevWasLate = false; ///< Previous batch used late Z.
    u32 _prevBatchId = 0;
    /** Batch id whose late accesses gate the current early batch
     * (~0u = no gate). */
    u32 _gateBatch = ~0u;

    sim::RingQueue<Delayed> _delayInterp;
    sim::RingQueue<Delayed> _delayRopc;

    sim::BatchedStat _statQuads;
    sim::BatchedStat _statFragsTested;
    sim::BatchedStat _statFragsPassed;
    sim::BatchedStat _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_Z_STENCIL_TEST_HH
