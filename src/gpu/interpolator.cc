#include "gpu/interpolator.hh"

#include "emu/rasterizer_emulator.hh"

namespace attila::gpu
{

Interpolator::Interpolator(sim::SignalBinder& binder,
                           sim::StatisticManager& stats,
                           const GpuConfig& config)
    : Box(binder, stats, "Interpolator"),
      _config(config),
      _statQuads(stat("quads")),
      _statBusy(stat("busyCycles"))
{
    for (u32 i = 0; i < config.numRops; ++i) {
        auto rx = std::make_unique<LinkRx<QuadObj>>();
        rx->init(*this, binder, "ropz" + std::to_string(i) + ".interp",
                 1, config.ropLatency, 16);
        _in.push_back(std::move(rx));
    }
    _out.init(*this, binder, "interp.ffifo",
              config.interpolatorQuadsPerCycle, 1,
              config.fragmentFifoQueue);
}

void
Interpolator::interpolateQuad(QuadObj& quad)
{
    using emu::RasterizerEmulator;
    using namespace emu::regix;

    const RenderState& state = *quad.state;
    const emu::TriangleSetup& setup = quad.triangle->setup;
    u32 inputs = 0xffffu;
    if (state.fragmentProgram)
        inputs = state.fragmentProgram->inputsRead;

    // Every lane is interpolated, covered or not: uncovered lanes
    // are the "helper pixels" whose attributes feed the texture
    // derivative computation.
    for (u32 f = 0; f < 4; ++f) {
        const s32 x = quad.x0 + static_cast<s32>(f % 2);
        const s32 y = quad.y0 + static_cast<s32>(f / 2);

        // Edge equation values at the pixel center act as
        // barycentric coordinates (paper §2.2).
        std::array<f64, 3> e;
        const f64 px = x + 0.5;
        const f64 py = y + 0.5;
        for (u32 i = 0; i < 3; ++i) {
            e[i] = setup.a[i] * px + setup.b[i] * py + setup.c[i];
        }

        for (u32 attr = 1; attr < numInputRegs; ++attr) {
            if (!(inputs & (1u << attr)))
                continue;
            quad.in[f][attr] = RasterizerEmulator::interpolate(
                e, quad.triangle->vertex[0][attr],
                quad.triangle->vertex[1][attr],
                quad.triangle->vertex[2][attr]);
        }
        // fragment.position = (x, y, z, 1/w).
        quad.in[f][finPosition] = {
            static_cast<f32>(px), static_cast<f32>(py), quad.z[f],
            RasterizerEmulator::oneOverW(setup, e)};
    }
}

void
Interpolator::acceptQuads(Cycle cycle)
{
    const u32 n = static_cast<u32>(_in.size());
    u32 processed = 0;
    u32 scanned = 0;
    while (processed < _config.interpolatorQuadsPerCycle &&
           scanned < n) {
        LinkRx<QuadObj>& rx = *_in[_rrNext];
        if (rx.empty()) {
            _rrNext = (_rrNext + 1) % n;
            ++scanned;
            continue;
        }
        const QuadObjPtr& head = rx.front();

        if (head->isMarker()) {
            // Collect one marker copy from every ROPz stream, then
            // forward a single marker.
            if (!markerComplete(*head) ||
                _delay.size() >= 2 * _config.fragmentFifoQueue) {
                _rrNext = (_rrNext + 1) % n;
                ++scanned;
                continue;
            }
            // One combined marker, through the same delay queue as
            // the quads so it cannot overtake them.
            WorkObjectPtr marker;
            for (auto& other : _in)
                marker = other->pop(cycle);
            _delay.push_back(
                {cycle + _config.interpolatorBaseLatency, marker});
            ++processed;
            continue;
        }

        // Attribute-count-dependent latency.
        const RenderState& state = *head->state;
        u32 attrs = 1;
        if (state.fragmentProgram) {
            attrs = static_cast<u32>(__builtin_popcount(
                state.fragmentProgram->inputsRead));
        }
        const u32 latency = std::min(
            _config.interpolatorMaxLatency,
            _config.interpolatorBaseLatency + attrs / 2);

        if (_delay.size() >= 2 * _config.fragmentFifoQueue) {
            _rrNext = (_rrNext + 1) % n;
            ++scanned;
            continue;
        }

        QuadObjPtr quad = rx.pop(cycle);
        interpolateQuad(*quad);
        _delay.push_back({cycle + latency, quad});
        _statQuads.inc();
        if (processed == 0)
            _statBusy.inc();
        ++processed;
        _rrNext = (_rrNext + 1) % n;
        scanned = 0;
    }
}

bool
Interpolator::markerComplete(const WorkObject& marker) const
{
    for (const auto& other : _in) {
        if (other->empty() || !other->front()->isMarker() ||
            other->front()->batchId != marker.batchId ||
            other->front()->marker != marker.marker) {
            return false;
        }
    }
    return true;
}

void
Interpolator::drain(Cycle cycle)
{
    u32 sent = 0;
    while (!_delay.empty() && _delay.front().readyAt <= cycle &&
           sent < _config.interpolatorQuadsPerCycle) {
        if (!_out.canSend(cycle))
            break;
        _out.send(cycle, _delay.front().quad);
        _delay.pop_front();
        ++sent;
    }
}

sim::Next
Interpolator::update(Cycle cycle)
{
    for (auto& rx : _in)
        rx->clock(cycle);
    _out.clock(cycle);

    drain(cycle);
    acceptQuads(cycle);

    // An input head can enter the delay pipeline: acceptQuads() scans
    // every input, so any head that fits moves.
    if (_delay.size() < 2 * _config.fragmentFifoQueue) {
        for (const auto& rx : _in) {
            if (!rx->empty() && (!rx->front()->isMarker() ||
                                 markerComplete(*rx->front())))
                return sim::Next::runs();
        }
    }
    // The delay head leaves at its ready cycle, or on a returned
    // credit.
    return !_delay.empty() && _out.credits() > 0
               ? sim::Next::until(_delay.front().readyAt)
               : sim::Next::sleeps();
}

bool
Interpolator::empty() const
{
    for (const auto& rx : _in) {
        if (!rx->empty())
            return false;
    }
    return _delay.empty();
}

} // namespace attila::gpu
