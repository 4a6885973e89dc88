#include "gpu/hierarchical_z.hh"

#include <algorithm>
#include <cmath>

namespace attila::gpu
{

HierarchicalZ::HierarchicalZ(sim::SignalBinder& binder,
                             sim::StatisticManager& stats,
                             const GpuConfig& config)
    : Box(binder, stats, "HierarchicalZ"),
      _config(config),
      _statTiles(stat("tiles")),
      _statCulled(stat("tilesCulled")),
      _statQuads(stat("quads")),
      _statBusy(stat("busyCycles"))
{
    _in.init(*this, binder, "fgen.hz", config.tilesPerCycle, 1,
             config.hzQueue);
    for (u32 i = 0; i < config.numRops; ++i) {
        auto tx = std::make_unique<LinkTx>();
        tx->init(*this, binder, "hz.ropz" + std::to_string(i), 16, 1,
                 16);
        _toRopz.push_back(std::move(tx));
        auto rx = std::make_unique<LinkRx<HzUpdateObj>>();
        rx->init(*this, binder, "ropz" + std::to_string(i) + ".hzupd",
                 4, 1, 32);
        _updates.push_back(std::move(rx));
    }
    _ctrl.init(*this, binder, "cp.ctrl.hz", 1, 1, 2);
    _ack.init(*this, binder, "ack.hz", 1, 1, 2);
}

u32
HierarchicalZ::ropOf(u32 tileIndex) const
{
    return tileIndex % _config.numRops;
}

u32
HierarchicalZ::ropOf(const QuadObj& quad) const
{
    return ropOf(fbTileIndex(quad.state->width,
                             static_cast<u32>(quad.x0),
                             static_cast<u32>(quad.y0)));
}

void
HierarchicalZ::processControl(Cycle cycle)
{
    if (_ctrl.empty())
        return;
    const ControlObjPtr& head = _ctrl.front();
    if (head->kind == ControlKind::HzPoison) {
        _poisoned = true;
        std::fill(_hz.begin(), _hz.end(), 255);
        _ctrl.pop(cycle);
        return;
    }
    if (head->kind == ControlKind::ClearZStencil) {
        if (!_ack.canSend(cycle))
            return;
        const RenderState& state = *head->state;
        _tilesPerRow = fbTilesPerRow(state.width);
        const u32 rows =
            (state.height + fbTileDim - 1) / fbTileDim;
        _hz.assign(_tilesPerRow * rows,
                   quantizeUp(state.clearDepth));
        _poisoned = false;
        auto ack = std::make_shared<AckObj>();
        ack->kind = head->kind;
        _ack.send(cycle, ack);
        _ctrl.pop(cycle);
        return;
    }
    panic("HierarchicalZ: unexpected control message");
}

void
HierarchicalZ::processUpdates(Cycle cycle)
{
    for (auto& rx : _updates) {
        while (!rx->empty()) {
            auto upd = rx->pop(cycle);
            if (_poisoned || upd->tileIndex >= _hz.size())
                continue;
            _hz[upd->tileIndex] = quantizeUp(upd->maxZ);
        }
    }
}

bool
HierarchicalZ::splitTile(Cycle cycle, const TileObjPtr& tile)
{
    // Build the quads lazily into the pending queue, then drain.
    if (_pendingQuads.empty()) {
        for (u32 qy = 0; qy < fbTileDim / 2; ++qy) {
            for (u32 qx = 0; qx < fbTileDim / 2; ++qx) {
                std::array<bool, 4> cover{};
                bool any = false;
                for (u32 f = 0; f < 4; ++f) {
                    const u32 dx = qx * 2 + (f % 2);
                    const u32 dy = qy * 2 + (f / 2);
                    const u32 bit = dy * fbTileDim + dx;
                    cover[f] = (tile->coverage >> bit) & 1;
                    any |= cover[f];
                }
                if (!any)
                    continue;
                auto quad = std::make_shared<QuadObj>();
                quad->batchId = tile->batchId;
                quad->state = tile->state;
                quad->triangle = tile->triangle;
                quad->x0 = tile->x0 + static_cast<s32>(qx * 2);
                quad->y0 = tile->y0 + static_cast<s32>(qy * 2);
                quad->coverage = cover;
                for (u32 f = 0; f < 4; ++f) {
                    const u32 dx = qx * 2 + (f % 2);
                    const u32 dy = qy * 2 + (f / 2);
                    quad->z[f] = tile->z[dy * fbTileDim + dx];
                }
                quad->lateZPath = !tile->state->earlyZ();
                // Winding for double-sided stencil: a triangle is
                // front facing when its rasterizer winding matches
                // the configured front face.
                quad->backFacing =
                    tile->triangle->setup.ccw !=
                    tile->state->frontFaceCcw;
                quad->setParent(*tile);
                _pendingQuads.push_back(std::move(quad));
            }
        }
    }

    while (!_pendingQuads.empty()) {
        LinkTx& out = *_toRopz[ropOf(*_pendingQuads.front())];
        if (!out.canSend(cycle))
            return false;
        out.send(cycle, std::move(_pendingQuads.front()));
        _pendingQuads.pop_front();
        _statQuads.inc();
    }
    return true;
}

void
HierarchicalZ::processTiles(Cycle cycle)
{
    // Finish a tile blocked on output backpressure first.
    if (!_pendingQuads.empty()) {
        _statBusy.inc();
        if (!splitTile(cycle, nullptr))
            return;
    }
    bool counted = false;
    for (u32 n = 0; n < _config.hzTilesPerCycle; ++n) {
        if (_in.empty())
            return;
        if (!counted) {
            _statBusy.inc();
            counted = true;
        }
        const TileObjPtr& head = _in.front();

        if (head->isMarker()) {
            // Broadcast markers to every ROPz.
            for (auto& out : _toRopz) {
                if (!out->canSend(cycle))
                    return;
            }
            auto marker = std::make_shared<QuadObj>(*_in.pop(cycle));
            for (auto& out : _toRopz)
                out->send(cycle, marker);
            continue;
        }

        _statTiles.inc();
        const RenderState& state = *head->state;
        if (_config.hzEnabled && state.hzUsable()) {
            const u32 tileIndex = fbTileIndex(
                state.width, static_cast<u32>(head->x0),
                static_cast<u32>(head->y0));
            if (tileIndex < _hz.size() &&
                quantizeDown(head->minZ) > _hz[tileIndex]) {
                _statCulled.inc();
                _in.pop(cycle);
                continue; // Entire tile hidden.
            }
        }

        TileObjPtr tile = _in.pop(cycle);
        if (!splitTile(cycle, tile))
            return; // Output stalled; resume next cycle.
    }
}

sim::Next
HierarchicalZ::update(Cycle cycle)
{
    _statBusy.tickFrom(cycle, 0);
    _in.clock(cycle);
    for (auto& out : _toRopz)
        out->clock(cycle);
    for (auto& rx : _updates)
        rx->clock(cycle);
    _ctrl.clock(cycle);
    _ack.clock(cycle);

    processControl(cycle);
    processUpdates(cycle);
    processTiles(cycle);
    // A blocked quad or marker counts a busy cycle per cycle.
    _statBusy.tickFrom(cycle + 1,
                       !_pendingQuads.empty() || !_in.empty());
    _statTiles.commit();
    _statCulled.commit();
    _statQuads.commit();
    _statBusy.commit();

    // A control message, a quad or a tile can move: a clear ack, a
    // quad and a marker broadcast wait for their credits.
    if (!_ctrl.empty() &&
        (_ctrl.front()->kind != ControlKind::ClearZStencil ||
         _ack.credits() > 0))
        return sim::Next::runs();
    if (!_pendingQuads.empty()) {
        return _toRopz[ropOf(*_pendingQuads.front())]->credits() > 0
                   ? sim::Next::runs()
                   : sim::Next::sleeps();
    }
    if (_in.empty())
        return sim::Next::sleeps();
    if (!_in.front()->isMarker())
        return sim::Next::runs();
    for (const auto& out : _toRopz) {
        if (out->credits() == 0)
            return sim::Next::sleeps();
    }
    return sim::Next::runs();
}

bool
HierarchicalZ::empty() const
{
    return _in.empty() && _pendingQuads.empty() && _ctrl.empty();
}

} // namespace attila::gpu
