#include "gpu/rop_surface.hh"

#include <cstring>

namespace attila::gpu
{

u32
RopBacking::fillSize(u32 lineAddr) const
{
    switch (stateOf(lineAddr)) {
      case BlockState::Cleared:
        return 0;
      case BlockState::CompHalf:
        return fbTileBytes / 2;
      case BlockState::CompQuarter:
        return fbTileBytes / 4;
      case BlockState::Uncompressed:
        break;
    }
    return fbTileBytes;
}

void
RopBacking::fillLocal(u32 lineAddr, u8* lineOut) const
{
    (void)lineAddr;
    for (u32 i = 0; i < fbTilePixels; ++i)
        std::memcpy(lineOut + i * 4, &clearWord, 4);
}

void
RopBacking::resolveTile(u32 lineAddr, const emu::GpuMemory& memory,
                        u8* lineOut) const
{
    const u32 size = fillSize(lineAddr);
    if (size == 0) {
        fillLocal(lineAddr, lineOut);
        return;
    }
    u8 stored[fbTileBytes];
    memory.read(lineAddr, size, stored);
    fillFromMemory(lineAddr, stored, size, lineOut);
}

RopSurface::RopSurface(const Kind& kind, const GpuConfig& config,
                       u32 unit, emu::GpuMemory& memory, u32 cacheKB,
                       u32 cacheWays, u32 cacheMshr,
                       sim::Statistic& hits, sim::Statistic& misses,
                       RopBacking& backing)
    : _kind(kind),
      _config(config),
      _unit(unit),
      _memory(memory),
      _backing(backing),
      _cache(kind.cacheName + std::to_string(unit),
             FbCache::Config{cacheKB, cacheWays, fbTileBytes, 4,
                             cacheMshr},
             hits, misses, &backing)
{
}

void
RopSurface::init(sim::Box& box, sim::SignalBinder& binder)
{
    const std::string id = std::to_string(_unit);
    _ctrl.init(box, binder, "cp.ctrl." + (_kind.linkName + id), 1, 1,
               2);
    _ack.init(box, binder, "ack." + (_kind.linkName + id), 1, 1, 2);
    _mem.init(box, binder, "mc." + (_kind.cacheName + id),
              _config.memoryRequestQueue);
}

bool
RopSurface::acknowledge(Cycle cycle)
{
    if (!_ack.canSend(cycle))
        return false;
    auto ack = std::make_shared<AckObj>();
    ack->kind = _ctrlKind;
    ack->unit = _unit;
    _ack.send(cycle, ack);
    _phase = Phase::None;
    return true;
}

RopStep
RopSurface::update(Cycle cycle)
{
    _ctrl.clock(cycle);
    _ack.clock(cycle);
    _mem.clock(cycle);

    if (_phase == Phase::Clearing) {
        return cycle >= _doneAt && acknowledge(cycle) ? RopStep::Run
                                                      : RopStep::Hold;
    }
    if (_phase == Phase::Flushing) {
        return _cache.flushStep(cycle, _mem, _kind.client) &&
                       acknowledge(cycle)
                   ? RopStep::Run
                   : RopStep::Hold;
    }
    if (_ctrl.empty())
        return RopStep::Run;
    ControlObjPtr ctrl = _ctrl.pop(cycle);
    _ctrlKind = ctrl->kind;
    if (ctrl->kind == ControlKind::Flush) {
        _phase = Phase::Flushing;
        return RopStep::Hold;
    }
    if (ctrl->kind != _kind.clear)
        panic(_kind.linkName, _unit, ": unexpected control message");
    startClear(cycle, *ctrl->state);
    _phase = Phase::Clearing;
    return RopStep::ClearStarted;
}

void
RopSurface::startClear(Cycle cycle, const RenderState& state)
{
    _backing.bufferBase = _kind.bufferOf(state);
    _backing.clearWord = _kind.clearWordOf(state);
    const u32 tiles =
        fbSurfaceBytes(state.width, state.height) / fbTileBytes;
    _cache.invalidateAll();
    if (_config.fastClear) {
        // Fast clear: flip the block states, a few cycles.
        _backing.blocks.assign(tiles, BlockState::Cleared);
        _doneAt = cycle + _config.clearCycles;
        return;
    }
    // Slow clear (ablation): write this unit's tiles (tiles
    // interleave over the ROPs).  The data movement is functional;
    // the cost models an uncontended sequential write of the
    // surface share.
    _backing.blocks.assign(tiles, BlockState::Uncompressed);
    for (u32 t = _unit; t < tiles; t += _config.numRops) {
        for (u32 w = 0; w < fbTilePixels; ++w) {
            _memory.writeAs<u32>(
                _backing.bufferBase + t * fbTileBytes + w * 4,
                _backing.clearWord);
        }
    }
    const u32 myTiles =
        (tiles + _config.numRops - 1) / _config.numRops;
    _doneAt = cycle + static_cast<Cycle>(myTiles) * fbTileBytes /
                          (_config.memoryChannels *
                           _config.channelBytesPerCycle);
}

} // namespace attila::gpu
