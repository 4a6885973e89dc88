#include "gpu/primitive_assembly.hh"

namespace attila::gpu
{

PrimitiveAssembly::PrimitiveAssembly(sim::SignalBinder& binder,
                                     sim::StatisticManager& stats,
                                     const GpuConfig& config)
    : Box(binder, stats, "PrimitiveAssembly"),
      _statTriangles(stat("triangles")),
      _statBusy(stat("busyCycles"))
{
    _in.init(*this, binder, "streamer.assembly", 1, 1,
             config.primitiveAssemblyQueue);
    _out.init(*this, binder, "assembly.clipper", config.trianglesPerCycle,
              1, config.clipperQueue);
}

bool
PrimitiveAssembly::emitTriangle(Cycle cycle, u32 a, u32 b, u32 c)
{
    if (!_out.canSend(cycle))
        return false;
    auto tri = std::make_shared<TriangleObj>();
    tri->batchId = _batchId;
    tri->state = _state;
    tri->triangleId = _triangleCount++;
    tri->vertex[0] = _window[a]->out;
    tri->vertex[1] = _window[b]->out;
    tri->vertex[2] = _window[c]->out;
    tri->setParent(*_window[a]);
    _out.send(cycle, tri);
    _statTriangles.inc();
    return true;
}

void
PrimitiveAssembly::assemble(Cycle cycle)
{
    // One vertex consumed per cycle (Table 1: 1 vertex in, 1
    // triangle out).
    if (_in.empty())
        return;
    if (headNeedsCredit() && !_out.canSend(cycle))
        return;

    const VertexObjPtr& head = _in.front();

    if (head->marker == MarkerKind::BatchStart) {
        _state = head->state;
        _batchId = head->batchId;
        _primitive = head->primitive;
        _window.clear();
        _vertexCount = 0;
        _triangleCount = 0;
        _out.send(cycle, std::make_shared<TriangleObj>(*_in.pop(cycle)));
        return;
    }
    if (head->marker == MarkerKind::BatchEnd) {
        _window.clear();
        _out.send(cycle, std::make_shared<TriangleObj>(*_in.pop(cycle)));
        return;
    }

    // Consume the vertex.  Once a triangle is out the window drops
    // the vertices the next one does not share, so between updates
    // it holds only vertices still waiting for a triangle.
    const u32 n = _vertexCount++;
    _window.push_back(_in.pop(cycle));
    switch (_primitive) {
      case Primitive::Triangles:
        if (_window.size() == 3) {
            emitTriangle(cycle, 0, 1, 2);
            _window.clear();
        }
        break;

      case Primitive::TriangleStrip:
        if (_window.size() == 3) {
            // Keep the winding consistent: odd triangles swap.
            if ((n % 2) == 0)
                emitTriangle(cycle, 0, 1, 2);
            else
                emitTriangle(cycle, 1, 0, 2);
            _window.erase(_window.begin());
        }
        break;

      case Primitive::TriangleFan:
        if (_window.size() == 3) {
            emitTriangle(cycle, 0, 1, 2);
            _window.erase(_window.begin() + 1);
        }
        break;

      case Primitive::Quads:
        // The 4th vertex triggers two triangles: needs two credits
        // over two cycles; emit the first now, keep the window and
        // emit the second next cycle via the pending flag.
        if (_window.size() == 4) {
            emitTriangle(cycle, 0, 1, 2);
            _pendingSecond = true;
        }
        break;

      case Primitive::QuadStrip:
        if (_window.size() == 4) {
            // Quad strip vertices arrive as pairs (v0 v1) (v2 v3)
            // forming the quad v0 v1 v3 v2.
            emitTriangle(cycle, 0, 1, 3);
            _pendingSecond = true;
        }
        break;
    }
}

void
PrimitiveAssembly::emitSecondTriangle(Cycle cycle)
{
    if (_primitive == Primitive::Quads) {
        emitTriangle(cycle, 0, 2, 3);
        _window.clear();
    } else {
        emitTriangle(cycle, 0, 3, 2); // Quad strip.
        _window.erase(_window.begin(), _window.begin() + 2);
    }
    _pendingSecond = false;
}

sim::Next
PrimitiveAssembly::update(Cycle cycle)
{
    _statBusy.tickFrom(cycle, 0);
    _in.clock(cycle);
    _out.clock(cycle);

    if (_pendingSecond) {
        if (_out.canSend(cycle)) {
            emitSecondTriangle(cycle);
            _statBusy.inc();
        }
    } else {
        if (!_in.empty())
            _statBusy.inc();
        assemble(cycle);
    }
    // A vertex waiting for a credit counts a busy cycle per cycle.
    _statBusy.tickFrom(cycle + 1, !_pendingSecond && !_in.empty());
    // Waits only for an output credit: the second triangle of a
    // quad, a batch marker, or the vertex that completes a triangle.
    const bool moves =
        _pendingSecond
            ? _out.credits() > 0
            : !_in.empty() && (!headNeedsCredit() || _out.credits() > 0);
    return moves ? sim::Next::runs() : sim::Next::sleeps();
}

bool
PrimitiveAssembly::headNeedsCredit() const
{
    // A marker is forwarded; a vertex needs a credit only when it
    // completes a triangle.
    if (_in.front()->isMarker())
        return true;
    const bool quads = _primitive == Primitive::Quads ||
                       _primitive == Primitive::QuadStrip;
    return _window.size() == (quads ? 3u : 2u);
}

bool
PrimitiveAssembly::empty() const
{
    return _in.empty() && !_pendingSecond;
}

} // namespace attila::gpu
