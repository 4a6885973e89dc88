/**
 * @file
 * TextureUnit: processes texture requests for whole fragment quads
 * (paper §2.2).  A small texture cache exploits the locality of
 * mipmapping and bilinear filtering; the implemented throughput is
 * one bilinear sample per cycle (trilinear every two cycles,
 * anisotropic N per sample count).  Compressed (DXT) textures are
 * fetched in compressed form and decompressed on access, so they
 * consume proportionally less memory bandwidth.
 */

#ifndef ATTILA_GPU_TEXTURE_UNIT_HH
#define ATTILA_GPU_TEXTURE_UNIT_HH


#include "emu/texture_emulator.hh"
#include "gpu/cache.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"
#include "sim/ring_queue.hh"

namespace attila::gpu
{

/** The Texture Unit box. */
class TextureUnit : public sim::Box
{
  public:
    TextureUnit(sim::SignalBinder& binder,
                sim::StatisticManager& stats, const GpuConfig& config,
                u32 unit, emu::GpuMemory& memory);

    void update(Cycle cycle) override;
    bool empty() const override;
    /** Idle == drained: update() is a no-op whenever the unit holds
     * no work and its inputs are quiet (an active request filtering
     * against its timer counts as held work). */
    bool busy() const override { return !empty(); }

    /** Wire the texture cache's hit/miss events (cache unit name =
     * box name, matching the cacheHits/cacheMisses statistics). */
    void
    attachEventTrace(sim::EventTrace& trace) override
    {
        _cache.setEventTrace(&trace, trace.registerCache(name()));
    }

  private:
    /** A request being processed. */
    struct Active
    {
        TexRequestPtr req;
        std::array<emu::SamplePlan, 4> plans;
        std::vector<u32> lineAddrs; ///< Unique cache lines needed.
        u32 nextLine = 0;           ///< Lines confirmed resident.
        u32 bilinearOps = 0;
        Cycle filterDoneAt = 0;
        bool filtering = false;
    };

    void acceptRequests(Cycle cycle);
    void process(Cycle cycle);
    void planRequest(Active& active);
    void finish(Cycle cycle);

    const GpuConfig& _config;
    const u32 _unit;
    emu::GpuMemory& _memory;

    std::vector<std::unique_ptr<LinkRx<TexRequest>>> _reqIn;
    std::vector<std::unique_ptr<LinkTx>> _respOut;
    MemPort _mem;
    FbCache _cache;

    sim::RingQueue<TexRequestPtr> _queue;
    /** Storage reused across requests (plans and line lists keep
     * their capacity); _activeLive marks occupancy. */
    Active _active;
    bool _activeLive = false;
    sim::RingQueue<TexRequestPtr> _done; ///< Awaiting resp credit.
    u32 _rrNext = 0;

    sim::BatchedStat _statRequests;
    sim::BatchedStat _statBilinearOps;
    sim::BatchedStat _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_TEXTURE_UNIT_HH
