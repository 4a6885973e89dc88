/**
 * @file
 * FragmentGenerator: traverses the triangle's projected area and
 * iteratively generates 8x8-fragment tiles (paper §2.2).
 *
 * Two traversal algorithms are implemented, as in ATTILA: the
 * recursive descent of McCool et al. (default) and a Neon-style tile
 * scanner.  Fragments outside the triangle or the scissor window are
 * generated with their cull flag set (cleared coverage); fully empty
 * tiles are dropped.  The baseline emits up to two tiles (2 x 64
 * fragments) per cycle.
 */

#ifndef ATTILA_GPU_FRAGMENT_GENERATOR_HH
#define ATTILA_GPU_FRAGMENT_GENERATOR_HH

#include <deque>

#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"

namespace attila::gpu
{

/** The Fragment Generator box. */
class FragmentGenerator : public sim::Box
{
  public:
    FragmentGenerator(sim::SignalBinder& binder,
                      sim::StatisticManager& stats,
                      const GpuConfig& config);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

  private:
    void startTriangle(Cycle cycle);
    TileObjPtr buildTile(s32 x0, s32 y0) const;

    const GpuConfig& _config;
    LinkRx<TriangleObj> _in;
    LinkTx _out;

    TriangleObjPtr _current;
    std::deque<std::pair<s32, s32>> _tiles; ///< Candidate tiles left.

    sim::Statistic& _statTiles;
    sim::Statistic& _statFragments;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_FRAGMENT_GENERATOR_HH
