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
#include "gpu/cache.hh"
#include "gpu/framebuffer.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"
#include "sim/function_ref.hh"
#include "sim/object_pool.hh"
#include "sim/ring_queue.hh"

namespace attila::gpu
{

/** Line backing implementing Z compression and fast clear. */
class ZStencilBacking : public LineBacking
{
  public:
    BlockStateTable table;
    u32 bufferBase = 0;
    u32 clearWord = 0;
    bool compressionEnabled = true;
    /** Called with (tileIndex, maxDepth in [0,1]) on writeback.
     * Non-owning: bind a named functor or member that outlives the
     * backing, never a temporary lambda. */
    sim::FunctionRef<void(u32, f32)> hzHook;

    u32
    blockOf(u32 lineAddr) const
    {
        return (lineAddr - bufferBase) / fbTileBytes;
    }

    u32 fillSize(u32 lineAddr) override;
    void fillFromMemory(u32 lineAddr, const u8* memBytes, u32 size,
                        u8* lineOut) override;
    void fillLocal(u32 lineAddr, u8* lineOut) override;
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

    void update(Cycle cycle) override;
    bool empty() const override;
    /** Idle == drained: update() is a no-op whenever the unit holds
     * no work and its inputs are quiet (delay pipelines and control
     * phases count as held work). */
    bool busy() const override { return !empty(); }

    /** Wire the Z cache's hit/miss events (cache unit name = box
     * name, matching the cacheHits/cacheMisses statistics). */
    void
    attachEventTrace(sim::EventTrace& trace) override
    {
        _cache.setEventTrace(&trace, trace.registerCache(name()));
    }

  private:
    enum class CtrlPhase : u8 { None, Clearing, Flushing };

    void processControl(Cycle cycle);
    void processEarly(Cycle cycle);
    void processLate(Cycle cycle);
    /** Run the z/stencil test on @p quad.  Returns false when the
     * access must be retried (cache miss / blocked). */
    bool zAccess(Cycle cycle, QuadObj& quad, bool shaded);
    void drainOutputs(Cycle cycle);
    void sendHzUpdates(Cycle cycle);

    const GpuConfig& _config;
    const u32 _unit;
    emu::GpuMemory& _memory; ///< For slow (non-fast) clears only.

    LinkRx<QuadObj> _earlyIn;
    LinkRx<QuadObj> _lateIn;
    LinkTx _toInterp;
    LinkTx _toRopc;
    LinkTx _hzUpdates;
    LinkRx<ControlObj> _ctrl;
    LinkTx _ack;
    MemPort _mem;

    ZStencilBacking _backing;
    FbCache _cache;

    CtrlPhase _ctrlPhase = CtrlPhase::None;
    Cycle _ctrlDoneAt = 0;
    ControlKind _ctrlKind = ControlKind::Flush;

    /** Cross-batch ordering: set when a late batch's z accesses are
     * complete (its BatchEnd popped on the late input). */
    std::set<u32> _lateDone;
    bool _prevWasLate = false; ///< Previous batch used late Z.
    u32 _prevBatchId = 0;
    /** Batch id whose late accesses gate the current early batch
     * (~0u = no gate). */
    u32 _gateBatch = ~0u;

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
    sim::RingQueue<Delayed> _delayInterp;
    sim::RingQueue<Delayed> _delayRopc;
    sim::RingQueue<std::shared_ptr<HzUpdateObj>> _hzQueue;
    sim::ObjectPool<HzUpdateObj> _hzPool;

    /** Persistent callable behind _backing.hzHook (the hook is a
     * non-owning FunctionRef, so it must reference a member). */
    struct HzEnqueue
    {
        ZStencilTest* owner;
        void operator()(u32 tileIndex, f32 maxZ) const;
    };
    HzEnqueue _hzEnqueue{this};

    sim::BatchedStat _statQuads;
    sim::BatchedStat _statFragsTested;
    sim::BatchedStat _statFragsPassed;
    sim::BatchedStat _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_Z_STENCIL_TEST_HH
