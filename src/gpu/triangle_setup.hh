/**
 * @file
 * TriangleSetup: computes the triangle's half-plane edge equations
 * and the depth (z/w) interpolation equation from the homogeneous
 * vertex matrix (paper §2.2), performs face culling, and feeds the
 * coefficients to the Fragment Generator.
 */

#ifndef ATTILA_GPU_TRIANGLE_SETUP_HH
#define ATTILA_GPU_TRIANGLE_SETUP_HH

#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"

namespace attila::gpu
{

/** The Triangle Setup box. */
class TriangleSetup : public sim::Box
{
  public:
    TriangleSetup(sim::SignalBinder& binder,
                  sim::StatisticManager& stats,
                  const GpuConfig& config);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

  private:
    /** Set up the head triangle and pass it on, or cull it. */
    void setup(Cycle cycle);

    LinkRx<TriangleObj> _in;
    LinkTx _out;

    sim::Statistic& _statTriangles;
    sim::Statistic& _statCulled;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_TRIANGLE_SETUP_HH
