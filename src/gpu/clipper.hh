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

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

  private:
    /** Pass the head triangle on, or reject it. */
    void clip(Cycle cycle);

    LinkRx<TriangleObj> _in;
    LinkTx _out;

    sim::Statistic& _statTriangles;
    sim::Statistic& _statRejected;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_CLIPPER_HH
