#include "gpu/color_write.hh"

#include <cstring>

#include "emu/fragment_op_emulator.hh"

namespace attila::gpu
{

using emu::FragmentOpEmulator;

ColorWrite::ColorWrite(sim::SignalBinder& binder,
                       sim::StatisticManager& stats,
                       const GpuConfig& config, u32 unit,
                       emu::GpuMemory& memory)
    : Box(binder, stats, "ColorWrite" + std::to_string(unit)),
      _config(config),
      _unit(unit),
      _memory(memory),
      _cache("colorcache" + std::to_string(unit),
             FbCache::Config{config.colorCacheKB,
                             config.colorCacheWays,
                             config.colorCacheLine, 4,
                             config.colorCacheMshr},
             stat("cacheHits"), stat("cacheMisses"), &_backing),
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
    _ctrl.init(*this, binder, "cp.ctrl.ropc" + id, 1, 1, 2);
    _ack.init(*this, binder, "ack.ropc" + id, 1, 1, 2);
    _mem.init(*this, binder, "mc.colorcache" + id,
              config.memoryRequestQueue);
    _backing.compressionEnabled = config.colorCompression;
}

void
ColorWrite::processControl(Cycle cycle)
{
    if (_ctrlPhase == CtrlPhase::Clearing) {
        if (cycle < _ctrlDoneAt || !_ack.canSend(cycle))
            return;
        auto ack = std::make_shared<AckObj>();
        ack->kind = _ctrlKind;
        ack->unit = _unit;
        _ack.send(cycle, ack);
        _ctrlPhase = CtrlPhase::None;
        return;
    }
    if (_ctrlPhase == CtrlPhase::Flushing) {
        if (!_cache.flushStep(cycle, _mem, MemClient::ColorCache))
            return;
        if (!_ack.canSend(cycle))
            return;
        auto ack = std::make_shared<AckObj>();
        ack->kind = _ctrlKind;
        ack->unit = _unit;
        _ack.send(cycle, ack);
        _ctrlPhase = CtrlPhase::None;
        return;
    }

    if (_ctrl.empty())
        return;
    ControlObjPtr ctrl = _ctrl.pop(cycle);
    _ctrlKind = ctrl->kind;
    const RenderState& state = *ctrl->state;

    if (ctrl->kind == ControlKind::ClearColor) {
        _backing.info->bufferBase = state.colorBufferAddress;
        _backing.info->clearWord =
            FragmentOpEmulator::packRgba8(state.clearColor);
        const u32 tiles =
            fbSurfaceBytes(state.width, state.height) / fbTileBytes;
        _cache.invalidateAll();
        if (_config.fastClear) {
            _backing.info->table.reset(tiles, BlockState::Cleared);
            _ctrlDoneAt = cycle + _config.clearCycles;
        } else {
            _backing.info->table.reset(tiles,
                                       BlockState::Uncompressed);
            for (u32 t = _unit; t < tiles; t += _config.numRops) {
                for (u32 w = 0; w < fbTilePixels; ++w) {
                    _memory.writeAs<u32>(
                        _backing.info->bufferBase + t * fbTileBytes +
                            w * 4,
                        _backing.info->clearWord);
                }
            }
            const u32 myTiles =
                (tiles + _config.numRops - 1) / _config.numRops;
            _ctrlDoneAt =
                cycle + static_cast<Cycle>(myTiles) * fbTileBytes /
                            (_config.memoryChannels *
                             _config.channelBytesPerCycle);
        }
        _ctrlPhase = CtrlPhase::Clearing;
        return;
    }
    if (ctrl->kind == ControlKind::Flush) {
        _ctrlPhase = CtrlPhase::Flushing;
        return;
    }
    panic("ColorWrite: unexpected control message");
}

bool
ColorWrite::colorAccess(Cycle cycle, QuadObj& quad)
{
    const RenderState& state = *quad.state;
    if (state.blend.colorMask == 0)
        return true; // Writes disabled.

    const u32 lineAddr = fbTileAddress(
        state.colorBufferAddress, state.width,
        static_cast<u32>(quad.x0), static_cast<u32>(quad.y0));
    if (_cache.access(cycle, lineAddr, false) != CacheAccess::Hit)
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
        std::memcpy(&stored, _cache.wordPtr(addr), 4);
        const u32 updated = FragmentOpEmulator::colorWrite(
            state.blend, quad.out[f][emu::regix::foutColor], stored);
        if (updated != stored) {
            std::memcpy(_cache.wordPtr(addr), &updated, 4);
            wrote = true;
        }
    }
    if (wrote)
        _cache.markDirty(lineAddr);
    return true;
}

bool
ColorWrite::popMarkers(Cycle cycle, LinkRx<QuadObj>& rx, bool late)
{
    if (rx.empty() || !rx.front()->isMarker())
        return false;
    const QuadObjPtr& head = rx.front();

    if (head->marker == MarkerKind::BatchStart) {
        if (!_haveCur) {
            // Adopt the next batch (streams deliver batches in
            // issue order).
            _haveCur = true;
            _curBatch = head->batchId;
            _endEarly = _endLate = false;
            rx.pop(cycle);
            return true;
        }
        if (head->batchId == _curBatch) {
            rx.pop(cycle);
            return true;
        }
        return false; // Next batch's start: wait.
    }

    // BatchEnd.
    if (_haveCur && head->batchId == _curBatch) {
        rx.pop(cycle);
        (late ? _endLate : _endEarly) = true;
        if (_endEarly && _endLate) {
            _retireQueue.push_back(_curBatch);
            _haveCur = false;
        }
        return true;
    }
    return false;
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
        if (rx->empty() || rx->front()->isMarker())
            continue;
        if (rx->front()->batchId != _curBatch)
            continue;
        QuadObjPtr quad = rx->front();
        if (!colorAccess(cycle, *quad))
            return;
        rx->pop(cycle);
        _statQuads.inc();
        _statBusy.inc();
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

void
ColorWrite::update(Cycle cycle)
{
    _earlyIn.clock(cycle);
    _lateIn.clock(cycle);
    _retire.clock(cycle);
    _ctrl.clock(cycle);
    _ack.clock(cycle);
    _mem.clock(cycle);

    processControl(cycle);
    if (_ctrlPhase == CtrlPhase::None) {
        processQuads(cycle);
        _cache.clock(cycle, _mem, MemClient::ColorCache);
    }
    tryRetire(cycle);
    _statQuads.commit();
    _statFragments.commit();
    _statBlended.commit();
    _statBusy.commit();
}

bool
ColorWrite::empty() const
{
    return _earlyIn.empty() && _lateIn.empty() &&
           _retireQueue.empty() && _ctrl.empty() &&
           _ctrlPhase == CtrlPhase::None && _cache.idle();
}

} // namespace attila::gpu
