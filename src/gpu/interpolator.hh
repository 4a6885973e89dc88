/**
 * @file
 * Interpolator: computes fragment input attributes from the triangle
 * vertex attributes using perspective-corrected linear interpolation
 * (paper §2.2).  Latency scales with the number of live attributes
 * (2 to 8 cycles in the baseline).
 *
 * Merges the quad streams of the ROPz units (round-robin) and feeds
 * interpolated quads to the Fragment FIFO.  Batch markers are
 * synchronized: one combined marker is forwarded once every ROPz
 * stream delivered its copy.
 */

#ifndef ATTILA_GPU_INTERPOLATOR_HH
#define ATTILA_GPU_INTERPOLATOR_HH

#include <deque>

#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"

namespace attila::gpu
{

/** The Interpolator box. */
class Interpolator : public sim::Box
{
  public:
    Interpolator(sim::SignalBinder& binder,
                 sim::StatisticManager& stats,
                 const GpuConfig& config);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

    /** Interpolate the inputs of @p quad in place (also used by unit
     * tests). */
    static void interpolateQuad(QuadObj& quad);

  private:
    void acceptQuads(Cycle cycle);
    /** Every ROPz stream's head is @p marker's copy. */
    bool markerComplete(const WorkObject& marker) const;
    void drain(Cycle cycle);

    const GpuConfig& _config;
    std::vector<std::unique_ptr<LinkRx<QuadObj>>> _in;
    LinkTx _out;

    struct Delayed
    {
        Cycle readyAt;
        WorkObjectPtr quad; ///< Quad or batch marker.
    };
    std::deque<Delayed> _delay;
    u32 _rrNext = 0;

    sim::Statistic& _statQuads;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_INTERPOLATOR_HH
