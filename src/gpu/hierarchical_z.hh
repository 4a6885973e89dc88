/**
 * @file
 * HierarchicalZ: tests generated fragment tiles against the on-chip
 * Hierarchical Z buffer to remove non-visible tiles at a very fast
 * rate — up to two 8x8 tiles per cycle in the baseline (paper §2.2).
 *
 * The HZ buffer stores one 8-bit far value per framebuffer tile
 * (256 KB covers up to 4096x4096).  A tile whose minimum generated
 * depth is farther than the stored value cannot contain any visible
 * fragment and is culled.  Values are refined when the Z cache
 * evicts and compresses lines (exact per-tile maxima) and reset by
 * fast Z clears.  Batches whose depth function could raise stored
 * depths poison the buffer until the next clear (conservative).
 *
 * Surviving tiles are divided into the 2x2 fragment quads that feed
 * the rest of the fragment pipeline, distributed to the ROP units by
 * tile interleaving.
 */

#ifndef ATTILA_GPU_HIERARCHICAL_Z_HH
#define ATTILA_GPU_HIERARCHICAL_Z_HH

#include <vector>

#include "gpu/framebuffer.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"
#include "sim/ring_queue.hh"

namespace attila::gpu
{

/** The Hierarchical Z box. */
class HierarchicalZ : public sim::Box
{
  public:
    HierarchicalZ(sim::SignalBinder& binder,
                  sim::StatisticManager& stats,
                  const GpuConfig& config);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

    /** Quantize a depth to the 8-bit HZ scale (round up = far). */
    static u8
    quantizeUp(f32 z)
    {
        const f32 c = std::clamp(z, 0.0f, 1.0f);
        return static_cast<u8>(
            std::min(255.0f, std::ceil(c * 255.0f)));
    }

    /** Quantize a depth rounding down (for conservative tests). */
    static u8
    quantizeDown(f32 z)
    {
        const f32 c = std::clamp(z, 0.0f, 1.0f);
        return static_cast<u8>(std::floor(c * 255.0f));
    }

  private:
    void processControl(Cycle cycle);
    void processUpdates(Cycle cycle);
    void processTiles(Cycle cycle);
    bool splitTile(Cycle cycle, const TileObjPtr& tile);
    u32 ropOf(u32 tileIndex) const;
    /** The ROPz unit @p quad goes to. */
    u32 ropOf(const QuadObj& quad) const;

    const GpuConfig& _config;
    LinkRx<TileObj> _in;
    std::vector<std::unique_ptr<LinkTx>> _toRopz;
    std::vector<std::unique_ptr<LinkRx<HzUpdateObj>>> _updates;
    LinkRx<ControlObj> _ctrl;
    LinkTx _ack;

    std::vector<u8> _hz;      ///< Per-tile 8-bit far values.
    u32 _tilesPerRow = 0;
    bool _poisoned = false;   ///< Ignore refinements until clear.

    /** Quads of a partially sent tile (output backpressure). */
    sim::RingQueue<QuadObjPtr> _pendingQuads;

    sim::BatchedStat _statTiles;
    sim::BatchedStat _statCulled;
    sim::BatchedStat _statQuads;
    sim::BatchedStat _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_HIERARCHICAL_Z_HH
