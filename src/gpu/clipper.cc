#include "gpu/clipper.hh"

#include "emu/clipper_emulator.hh"

namespace attila::gpu
{

Clipper::Clipper(sim::SignalBinder& binder,
                 sim::StatisticManager& stats,
                 const GpuConfig& config)
    : Box(binder, stats, "Clipper"),
      _statTriangles(stat("triangles")),
      _statRejected(stat("trivialRejects")),
      _statBusy(stat("busyCycles"))
{
    _in.init(*this, binder, "assembly.clipper",
             config.trianglesPerCycle, 1, config.clipperQueue);
    _out.init(*this, binder, "clipper.setup",
              config.trianglesPerCycle, config.clipperLatency,
              config.setupQueue);
}

sim::Next
Clipper::update(Cycle cycle)
{
    _in.clock(cycle);
    _out.clock(cycle);
    if (!_in.empty() && _out.canSend(cycle))
        clip(cycle);
    // A queued triangle moves only with an output credit.
    return !_in.empty() && _out.credits() > 0 ? sim::Next::runs()
                                              : sim::Next::sleeps();
}

void
Clipper::clip(Cycle cycle)
{
    _statBusy.inc();

    TriangleObjPtr tri = _in.pop(cycle);
    if (tri->isMarker()) {
        _out.send(cycle, tri);
        return;
    }
    _statTriangles.inc();

    const u32 pos = emu::regix::vposPosition;
    if (emu::ClipperEmulator::trivialReject(tri->vertex[0][pos],
                                            tri->vertex[1][pos],
                                            tri->vertex[2][pos])) {
        _statRejected.inc();
        return; // Culled.
    }
    _out.send(cycle, tri);
}

bool
Clipper::empty() const
{
    return _in.empty();
}

} // namespace attila::gpu
