#include "gpu/color_write.hh"

#include <cstring>

#include "emu/fragment_op_emulator.hh"

namespace attila::gpu
{

using emu::FragmentOpEmulator;

namespace
{

const RopSurface::Kind kColorSurface{
    "ropc",
    "colorcache",
    MemClient::ColorCache,
    ControlKind::ClearColor,
    [](const RenderState& s) { return s.colorBufferAddress; },
    [](const RenderState& s) {
        return FragmentOpEmulator::packRgba8(s.clearColor);
    },
};

} // anonymous namespace

void
ColorBacking::fillFromMemory(u32 lineAddr, const u8* memBytes, u32,
                             u8* lineOut) const
{
    if (stateOf(lineAddr) == BlockState::CompQuarter) {
        // Uniform tile: replicate the stored word.
        for (u32 i = 0; i < fbTilePixels; ++i)
            std::memcpy(lineOut + i * 4, memBytes, 4);
        return;
    }
    std::memcpy(lineOut, memBytes, fbTileBytes);
}

u32
ColorBacking::writeback(u32 lineAddr, const u8* lineData, u8* out)
{
    bool uniform = compressionEnabled;
    for (u32 i = 1; i < fbTilePixels && uniform; ++i)
        uniform = std::memcmp(lineData, lineData + i * 4, 4) == 0;
    const u32 size = uniform ? fbTileBytes / 4 : fbTileBytes;
    setState(lineAddr, uniform ? BlockState::CompQuarter
                               : BlockState::Uncompressed);
    std::memcpy(out, lineData, size);
    return size;
}

ColorWrite::ColorWrite(sim::SignalBinder& binder,
                       sim::StatisticManager& stats,
                       const GpuConfig& config, u32 unit,
                       emu::GpuMemory& memory)
    : Box(binder, stats, "ColorWrite" + std::to_string(unit)),
      _unit(unit),
      _surface(kColorSurface, config, unit, memory,
               config.colorCacheKB, config.colorCacheWays,
               config.colorCacheMshr, stat("cacheHits"),
               stat("cacheMisses"), _backing),
      _statQuads(stat("quads")),
      _statFragments(stat("fragments")),
      _statBlended(stat("blendedFragments")),
      _statBusy(stat("busyCycles"))
{
    const std::string id = std::to_string(unit);
    _earlyIn.init(*this, binder, "ffifo.ropc" + id, 2, 1, 16);
    _lateIn.init(*this, binder, "ropz" + id + ".ropc", 1,
                 config.ropLatency, 8);
    _retire.init(*this, binder, "ropc" + id + ".retire", 1, 1, 8);
    _surface.init(*this, binder);
    _backing.compressionEnabled = config.colorCompression;
}

namespace
{

/** The colour cache line (tile) @p quad writes. */
u32
colorLineOf(const QuadObj& quad)
{
    const RenderState& state = *quad.state;
    return fbTileAddress(state.colorBufferAddress, state.width,
                         static_cast<u32>(quad.x0),
                         static_cast<u32>(quad.y0));
}

} // anonymous namespace

bool
ColorWrite::colorAccess(Cycle cycle, QuadObj& quad)
{
    const RenderState& state = *quad.state;
    if (state.blend.colorMask == 0)
        return true; // Writes disabled.

    const u32 lineAddr = colorLineOf(quad);
    FbCache& cache = _surface.cache();
    if (cache.access(cycle, lineAddr, false) != CacheAccess::Hit)
        return false;

    bool wrote = false;
    for (u32 f = 0; f < 4; ++f) {
        if (!quad.coverage[f])
            continue;
        _statFragments.inc();
        if (state.blend.enabled)
            _statBlended.inc();
        const u32 x = static_cast<u32>(quad.x0) + (f % 2);
        const u32 y = static_cast<u32>(quad.y0) + (f / 2);
        const u32 addr = fbPixelAddress(state.colorBufferAddress,
                                        state.width, x, y);
        u32 stored;
        std::memcpy(&stored, cache.wordPtr(addr), 4);
        const u32 updated = FragmentOpEmulator::colorWrite(
            state.blend, quad.out[f][emu::regix::foutColor], stored);
        if (updated != stored) {
            std::memcpy(cache.wordPtr(addr), &updated, 4);
            wrote = true;
        }
    }
    if (wrote)
        cache.markDirty(lineAddr);
    return true;
}

bool
ColorWrite::markerCanPop(const LinkRx<QuadObj>& rx) const
{
    if (rx.empty() || !rx.front()->isMarker())
        return false;
    const QuadObj& head = *rx.front();
    if (head.marker == MarkerKind::BatchStart)
        return !_haveCur || head.batchId == _curBatch;
    return _haveCur && head.batchId == _curBatch;
}

bool
ColorWrite::popMarkers(Cycle cycle, LinkRx<QuadObj>& rx, bool late)
{
    if (!markerCanPop(rx))
        return false;
    const QuadObjPtr& head = rx.front();

    if (head->marker == MarkerKind::BatchStart) {
        if (!_haveCur) {
            // Adopt the next batch (streams deliver batches in
            // issue order).
            _haveCur = true;
            _curBatch = head->batchId;
            _endEarly = _endLate = false;
        }
        rx.pop(cycle);
        return true;
    }

    // BatchEnd of the current batch.
    rx.pop(cycle);
    (late ? _endLate : _endEarly) = true;
    if (_endEarly && _endLate) {
        _retireQueue.push_back(_curBatch);
        _haveCur = false;
    }
    return true;
}

void
ColorWrite::processQuads(Cycle cycle)
{
    // Drain any markers first (they cost no ROP throughput).
    while (popMarkers(cycle, _lateIn, true) ||
           popMarkers(cycle, _earlyIn, false)) {
    }

    if (!_haveCur)
        return;

    // One quad per cycle (4 fragments, Table 1); a batch's quads
    // arrive on exactly one of the two inputs.
    for (LinkRx<QuadObj>* rx : {&_lateIn, &_earlyIn}) {
        if (!headIsCurrentQuad(*rx))
            continue;
        if (colorAccess(cycle, *rx->front())) {
            rx->pop(cycle);
            _statQuads.inc();
            _statBusy.inc();
        }
        return;
    }
}

void
ColorWrite::tryRetire(Cycle cycle)
{
    while (!_retireQueue.empty() && _retire.canSend(cycle)) {
        auto retire = std::make_shared<RetireObj>();
        retire->batchId = _retireQueue.pop_front();
        retire->unit = _unit;
        _retire.send(cycle, retire);
    }
}

sim::Next
ColorWrite::update(Cycle cycle)
{
    _earlyIn.clock(cycle);
    _lateIn.clock(cycle);
    _retire.clock(cycle);

    if (_surface.update(cycle) == RopStep::Run) {
        processQuads(cycle);
        _surface.clockCache(cycle);
    }
    tryRetire(cycle);
    _statQuads.commit();
    _statFragments.commit();
    _statBlended.commit();
    _statBusy.commit();
    return progressPossible() ? sim::Next::runs()
                              : sim::Next::until(_surface.clearDoneAt());
}

bool
ColorWrite::headIsCurrentQuad(const LinkRx<QuadObj>& rx) const
{
    return !rx.empty() && !rx.front()->isMarker() &&
           rx.front()->batchId == _curBatch;
}

bool
ColorWrite::quadCanMove() const
{
    if (!_haveCur)
        return false;
    // processQuads() tries only the first input whose head is a quad
    // of the current batch.
    for (const LinkRx<QuadObj>* rx : {&_lateIn, &_earlyIn}) {
        if (!headIsCurrentQuad(*rx))
            continue;
        const QuadObj& quad = *rx->front();
        return quad.state->blend.colorMask == 0 ||
               _surface.cache().accessWouldProgress(colorLineOf(quad));
    }
    return false;
}

bool
ColorWrite::progressPossible() const
{
    if (_surface.busy())
        return true;
    if (!_retireQueue.empty() && _retire.credits() > 0)
        return true;
    return _surface.running() &&
           (markerCanPop(_lateIn) || markerCanPop(_earlyIn) ||
            quadCanMove() || _surface.cacheWouldProgress());
}

bool
ColorWrite::empty() const
{
    return _earlyIn.empty() && _lateIn.empty() &&
           _retireQueue.empty() && _surface.idle();
}

} // namespace attila::gpu
