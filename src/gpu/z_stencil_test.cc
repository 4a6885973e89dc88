#include "gpu/z_stencil_test.hh"

#include <algorithm>
#include <cstring>

#include "emu/fragment_op_emulator.hh"

namespace attila::gpu
{

using emu::FragmentOpEmulator;
using emu::ZCompressor;

namespace
{

const RopSurface::Kind kZStencilSurface{
    "ropz",
    "zcache",
    MemClient::ZCache,
    ControlKind::ClearZStencil,
    [](const RenderState& s) { return s.zStencilBufferAddress; },
    [](const RenderState& s) {
        return emu::packDepthStencil(emu::quantizeDepth(s.clearDepth),
                                     s.clearStencil);
    },
};

} // anonymous namespace

void
ZStencilBacking::fillFromMemory(u32 lineAddr, const u8* memBytes,
                                u32 size, u8* lineOut) const
{
    const BlockState state = stateOf(lineAddr);
    if (state == BlockState::Uncompressed) {
        std::memcpy(lineOut, memBytes, emu::zTileBytes);
        return;
    }
    const emu::TileCompression mode =
        state == BlockState::CompHalf ? emu::TileCompression::Half
                                      : emu::TileCompression::Quarter;
    const auto tile = ZCompressor::decompress(mode, memBytes, size);
    std::memcpy(lineOut, tile.data(), emu::zTileBytes);
}

u32
ZStencilBacking::writeback(u32 lineAddr, const u8* lineData, u8* out)
{
    std::array<u32, emu::zTileWords> tile;
    std::memcpy(tile.data(), lineData, emu::zTileBytes);

    // Exact tile maximum refines the Hierarchical Z buffer.
    u32 maxDepth = 0;
    for (u32 w : tile)
        maxDepth = std::max(maxDepth, emu::depthOf(w));
    hzUpdates.push_back({blockOf(lineAddr),
                         static_cast<f32>(maxDepth) /
                             static_cast<f32>(emu::maxDepthValue)});

    if (compressionEnabled) {
        emu::ZPayload payload;
        const emu::TileCompression mode =
            ZCompressor::compress(tile, payload);
        if (mode != emu::TileCompression::Uncompressed) {
            setState(lineAddr, mode == emu::TileCompression::Half
                                   ? BlockState::CompHalf
                                   : BlockState::CompQuarter);
            const u32 size = emu::zStoredBytes(mode);
            std::memcpy(out, payload.data(), size);
            return size;
        }
    }
    setState(lineAddr, BlockState::Uncompressed);
    std::memcpy(out, lineData, emu::zTileBytes);
    return emu::zTileBytes;
}

ZStencilTest::ZStencilTest(sim::SignalBinder& binder,
                           sim::StatisticManager& stats,
                           const GpuConfig& config, u32 unit,
                           emu::GpuMemory& memory)
    : Box(binder, stats, "ZStencilTest" + std::to_string(unit)),
      _config(config),
      _surface(kZStencilSurface, config, unit, memory, config.zCacheKB,
               config.zCacheWays, config.zCacheMshr, stat("cacheHits"),
               stat("cacheMisses"), _backing),
      _statQuads(stat("quads")),
      _statFragsTested(stat("fragmentsTested")),
      _statFragsPassed(stat("fragmentsPassed")),
      _statBusy(stat("busyCycles"))
{
    const std::string id = std::to_string(unit);
    _earlyIn.init(*this, binder, "hz.ropz" + id, 16, 1, 16);
    _lateIn.init(*this, binder, "ffifo.ropz" + id + ".late", 2, 1,
                 8);
    _toInterp.init(*this, binder, "ropz" + id + ".interp", 1,
                   config.ropLatency, 16);
    _toRopc.init(*this, binder, "ropz" + id + ".ropc", 1,
                 config.ropLatency, 8);
    _hzUpdates.init(*this, binder, "ropz" + id + ".hzupd", 4, 1, 32);
    _surface.init(*this, binder);

    _backing.compressionEnabled = config.zCompression;
}

namespace
{

/** The Z cache line (tile) @p quad tests against. */
u32
zLineOf(const QuadObj& quad)
{
    const RenderState& state = *quad.state;
    return fbTileAddress(state.zStencilBufferAddress, state.width,
                         static_cast<u32>(quad.x0),
                         static_cast<u32>(quad.y0));
}

bool
needsZAccess(const QuadObj& quad)
{
    const emu::ZStencilState& zs = quad.state->zStencil;
    return zs.depthTest || zs.stencilTest;
}

} // anonymous namespace

bool
ZStencilTest::zAccessWouldProgress(const QuadObj& quad) const
{
    return !needsZAccess(quad) ||
           _surface.cache().accessWouldProgress(zLineOf(quad));
}

bool
ZStencilTest::zAccess(Cycle cycle, QuadObj& quad, bool shaded)
{
    const RenderState& state = *quad.state;
    const emu::ZStencilState& zs = state.zStencil;

    if (!needsZAccess(quad))
        return true; // Nothing to do.

    const u32 lineAddr = zLineOf(quad);

    FbCache& cache = _surface.cache();
    if (cache.access(cycle, lineAddr, false) != CacheAccess::Hit)
        return false;

    const bool programWritesDepth =
        shaded && state.fragmentProgram &&
        (state.fragmentProgram->outputsWritten &
         (1u << emu::regix::foutDepth));

    bool wrote = false;
    for (u32 f = 0; f < 4; ++f) {
        if (!quad.coverage[f])
            continue;
        _statFragsTested.inc();
        const u32 x = static_cast<u32>(quad.x0) + (f % 2);
        const u32 y = static_cast<u32>(quad.y0) + (f / 2);
        const u32 addr = fbPixelAddress(
            state.zStencilBufferAddress, state.width, x, y);
        u32 stored;
        std::memcpy(&stored, cache.wordPtr(addr), 4);

        f32 depth = quad.z[f];
        if (programWritesDepth)
            depth = quad.out[f][emu::regix::foutDepth].x;

        const auto result = FragmentOpEmulator::zStencilTest(
            zs, emu::quantizeDepth(depth), stored,
            quad.backFacing);
        if (result.newZS != stored) {
            std::memcpy(cache.wordPtr(addr), &result.newZS, 4);
            wrote = true;
        }
        if (result.pass) {
            _statFragsPassed.inc();
        } else {
            quad.coverage[f] = false;
        }
    }
    if (wrote)
        cache.markDirty(lineAddr);
    return true;
}

void
ZStencilTest::processEarly(Cycle cycle)
{
    if (_earlyIn.empty())
        return;
    const QuadObjPtr& head = _earlyIn.front();

    if (head->marker == MarkerKind::BatchStart) {
        // A batch's early Z accesses must wait until the previous
        // batch — if it tested after shading — has finished its own
        // Z accesses.  The gate moves when the marker leaves: one
        // that waits for room in the delay pipeline must not move it
        // again.
        const u32 gate = _prevWasLate ? _prevBatchId : ~0u;
        const bool late = head->state && !head->state->earlyZ();
        const u32 batch = head->batchId;
        if (advance(cycle, _earlyIn, _delayInterp, false)) {
            _gateBatch = gate;
            _prevWasLate = late;
            _prevBatchId = batch;
        }
        return;
    }
    if (!head->isMarker()) {
        if (head->lateZPath) {
            // Late-Z batch: pass through untested.
            if (_toInterp.canSend(cycle)) {
                _toInterp.send(cycle, _earlyIn.pop(cycle));
                _statQuads.inc();
            }
            return;
        }
        if (!earlyGateOpen())
            return;
    }
    advance(cycle, _earlyIn, _delayInterp, false);
}

void
ZStencilTest::processLate(Cycle cycle)
{
    if (_lateIn.empty())
        return;
    const bool batchEnd = _lateIn.front()->marker == MarkerKind::BatchEnd;
    const u32 batch = _lateIn.front()->batchId;
    if (advance(cycle, _lateIn, _delayRopc, true) && batchEnd)
        _lateDone.insert(batch);
}

bool
ZStencilTest::advance(Cycle cycle, LinkRx<QuadObj>& in,
                      sim::RingQueue<Delayed>& out, bool shaded)
{
    if (full(out))
        return false;
    QuadObjPtr quad = in.front();
    const bool marker = quad->isMarker();
    if (!marker && !zAccess(cycle, *quad, shaded))
        return false; // Cache miss; retry.
    in.pop(cycle);
    if (!marker)
        _statQuads.inc();
    // Fully culled quads leave the pipeline here.
    if (marker || quad->coverage[0] || quad->coverage[1] ||
        quad->coverage[2] || quad->coverage[3])
        out.push_back({cycle + _config.ropLatency, std::move(quad)});
    return true;
}

void
ZStencilTest::drainOutputs(Cycle cycle)
{
    for (auto [delay, tx] : {std::pair{&_delayInterp, &_toInterp},
                             std::pair{&_delayRopc, &_toRopc}}) {
        while (!delay->empty() && delay->front().readyAt <= cycle &&
               tx->canSend(cycle)) {
            tx->send(cycle, std::move(delay->front().quad));
            delay->pop_front();
        }
    }
}

void
ZStencilTest::sendHzUpdates(Cycle cycle)
{
    auto& queue = _backing.hzUpdates;
    while (!queue.empty() && _hzUpdates.canSend(cycle)) {
        auto update = std::make_shared<HzUpdateObj>();
        update->tileIndex = queue.front().tileIndex;
        update->maxZ = queue.front().maxZ;
        _hzUpdates.send(cycle, std::move(update));
        queue.pop_front();
    }
}

bool
ZStencilTest::earlyGateOpen() const
{
    // Cross-batch hazard: an early-tested batch must not access the
    // Z buffer before the previous *late* batch finished its
    // accesses.
    return _gateBatch == ~0u || _lateDone.count(_gateBatch);
}

bool
ZStencilTest::full(const sim::RingQueue<Delayed>& pipeline)
{
    return pipeline.size() >= 8;
}

bool
ZStencilTest::lateCanAdvance() const
{
    if (_lateIn.empty() || full(_delayRopc))
        return false;
    const QuadObj& head = *_lateIn.front();
    return head.isMarker() || zAccessWouldProgress(head);
}

bool
ZStencilTest::earlyCanAdvance() const
{
    if (_earlyIn.empty())
        return false;
    const QuadObj& head = *_earlyIn.front();
    if (!head.isMarker()) {
        if (head.lateZPath)
            return _toInterp.credits() > 0;
        if (!earlyGateOpen())
            return false;
    }
    return !full(_delayInterp) &&
           (head.isMarker() || zAccessWouldProgress(head));
}

bool
ZStencilTest::progressPossible() const
{
    if (_surface.busy())
        return true;
    if (!_backing.hzUpdates.empty() && _hzUpdates.credits() > 0)
        return true;
    return _surface.running() &&
           (lateCanAdvance() || earlyCanAdvance() ||
            _surface.cacheWouldProgress());
}

sim::Next
ZStencilTest::update(Cycle cycle)
{
    _earlyIn.clock(cycle);
    _lateIn.clock(cycle);
    _toInterp.clock(cycle);
    _toRopc.clock(cycle);
    _hzUpdates.clock(cycle);

    const RopStep step = _surface.update(cycle);
    if (step == RopStep::ClearStarted) {
        // Late batches completed before a barrier can be forgotten.
        _lateDone.clear();
        _prevWasLate = false;
        _gateBatch = ~0u;
    }
    if (step == RopStep::Run) {
        const u64 quadsBefore = _statQuads.liveTotal();
        drainOutputs(cycle);
        processLate(cycle);
        processEarly(cycle);
        // Double-rate Z (paper §7 extension): a second quad per
        // cycle when the head of an input belongs to a
        // depth/stencil-only pass (colour writes masked).
        if (_config.doubleRateZ) {
            auto depthOnlyHead = [](const LinkRx<QuadObj>& rx) {
                return !rx.empty() && !rx.front()->isMarker() &&
                       rx.front()->state->blend.colorMask == 0;
            };
            if (depthOnlyHead(_lateIn))
                processLate(cycle);
            if (depthOnlyHead(_earlyIn))
                processEarly(cycle);
        }
        if (_statQuads.liveTotal() != quadsBefore)
            _statBusy.inc();
        _surface.clockCache(cycle);
    }
    sendHzUpdates(cycle);
    _statQuads.commit();
    _statFragsTested.commit();
    _statFragsPassed.commit();
    _statBusy.commit();
    if (progressPossible())
        return sim::Next::runs();
    // Asleep until a clear ends or a delay head with a credit is
    // ready.
    Cycle wake = _surface.clearDoneAt();
    if (_surface.running()) {
        if (!_delayInterp.empty() && _toInterp.credits() > 0)
            wake = std::min(wake, _delayInterp.front().readyAt);
        if (!_delayRopc.empty() && _toRopc.credits() > 0)
            wake = std::min(wake, _delayRopc.front().readyAt);
    }
    return sim::Next::until(wake);
}

bool
ZStencilTest::empty() const
{
    return _earlyIn.empty() && _lateIn.empty() &&
           _delayInterp.empty() && _delayRopc.empty() &&
           _backing.hzUpdates.empty() && _surface.idle();
}

} // namespace attila::gpu
