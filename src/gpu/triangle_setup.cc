#include "gpu/triangle_setup.hh"

#include "emu/rasterizer_emulator.hh"

namespace attila::gpu
{

TriangleSetup::TriangleSetup(sim::SignalBinder& binder,
                             sim::StatisticManager& stats,
                             const GpuConfig& config)
    : Box(binder, stats, "TriangleSetup"),
      _statTriangles(stat("triangles")),
      _statCulled(stat("culled")),
      _statBusy(stat("busyCycles"))
{
    _in.init(*this, binder, "clipper.setup", config.trianglesPerCycle,
             config.clipperLatency, config.setupQueue);
    _out.init(*this, binder, "setup.fgen", config.trianglesPerCycle,
              config.setupLatency, config.fragmentGenQueue);
}

sim::Next
TriangleSetup::update(Cycle cycle)
{
    _in.clock(cycle);
    _out.clock(cycle);
    if (!_in.empty() && _out.canSend(cycle))
        setup(cycle);
    // A queued triangle moves only with an output credit.
    return !_in.empty() && _out.credits() > 0 ? sim::Next::runs()
                                              : sim::Next::sleeps();
}

void
TriangleSetup::setup(Cycle cycle)
{
    _statBusy.inc();

    TriangleObjPtr tri = _in.pop(cycle);
    if (tri->isMarker()) {
        _out.send(cycle, tri);
        return;
    }
    _statTriangles.inc();

    const RenderState& state = *tri->state;

    // Map GL-style culling to winding flags.  With a CCW front
    // face, culling back faces culls clockwise triangles.
    bool cullCcw = false;
    bool cullCw = false;
    switch (state.cull) {
      case CullMode::None:
        break;
      case CullMode::Front:
        (state.frontFaceCcw ? cullCcw : cullCw) = true;
        break;
      case CullMode::Back:
        (state.frontFaceCcw ? cullCw : cullCcw) = true;
        break;
      case CullMode::FrontAndBack:
        cullCcw = cullCw = true;
        break;
    }

    const u32 pos = emu::regix::vposPosition;
    tri->setup = emu::RasterizerEmulator::setup(
        tri->vertex[0][pos], tri->vertex[1][pos],
        tri->vertex[2][pos], state.viewport, cullCcw, cullCw);

    if (!tri->setup.valid) {
        _statCulled.inc();
        return;
    }
    _out.send(cycle, tri);
}

bool
TriangleSetup::empty() const
{
    return _in.empty();
}

} // namespace attila::gpu
