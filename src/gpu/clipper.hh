/**
 * @file
 * Clipper: trivial rejection of triangles completely outside the
 * frustum volume (paper §2.2).  All other triangles, including
 * partially visible ones, flow free to the rasterizer — the 2D
 * homogeneous algorithm removes the need for true clipping.
 */

#ifndef ATTILA_GPU_CLIPPER_HH
#define ATTILA_GPU_CLIPPER_HH

#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"

namespace attila::gpu
{

/** The Clipper box. */
class Clipper : public sim::Box
{
  public:
    Clipper(sim::SignalBinder& binder, sim::StatisticManager& stats,
            const GpuConfig& config);

    void update(Cycle cycle) override;
    bool empty() const override;
    /** A queued triangle moves only with an output credit. */
    bool
    busy() const override
    {
        return !_in.empty() && _out.credits() > 0;
    }

  private:
    LinkRx<TriangleObj> _in;
    LinkTx _out;

    sim::Statistic& _statTriangles;
    sim::Statistic& _statRejected;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_CLIPPER_HH
