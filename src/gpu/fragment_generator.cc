#include "gpu/fragment_generator.hh"

#include "emu/rasterizer_emulator.hh"
#include "gpu/framebuffer.hh"

namespace attila::gpu
{

FragmentGenerator::FragmentGenerator(sim::SignalBinder& binder,
                                     sim::StatisticManager& stats,
                                     const GpuConfig& config)
    : Box(binder, stats, "FragmentGenerator"),
      _config(config),
      _statTiles(stat("tiles")),
      _statFragments(stat("fragments")),
      _statBusy(stat("busyCycles"))
{
    _in.init(*this, binder, "setup.fgen", config.trianglesPerCycle,
             config.setupLatency, config.fragmentGenQueue);
    _out.init(*this, binder, "fgen.hz", config.tilesPerCycle, 1,
              config.hzQueue);
}

TileObjPtr
FragmentGenerator::buildTile(s32 x0, s32 y0) const
{
    using emu::RasterizerEmulator;

    const RenderState& state = *_current->state;
    auto tile = std::make_shared<TileObj>();
    tile->batchId = _current->batchId;
    tile->state = _current->state;
    tile->triangle = _current;
    tile->x0 = x0;
    tile->y0 = y0;
    tile->setParent(*_current);

    f32 minZ = 1.0f;
    u64 coverage = 0;
    for (u32 dy = 0; dy < fbTileDim; ++dy) {
        for (u32 dx = 0; dx < fbTileDim; ++dx) {
            const s32 x = x0 + static_cast<s32>(dx);
            const s32 y = y0 + static_cast<s32>(dy);
            const auto frag = RasterizerEmulator::evalFragment(
                _current->setup, x, y);
            const u32 bit = dy * fbTileDim + dx;
            tile->z[bit] = frag.z;
            if (!frag.inside)
                continue;
            // Render target bounds.
            if (x < 0 || y < 0 ||
                x >= static_cast<s32>(state.width) ||
                y >= static_cast<s32>(state.height)) {
                continue;
            }
            // Scissor rejection happens at generation (the paper
            // removes these fragments with the cull flag).
            if (state.scissor.enabled) {
                const ScissorState& sc = state.scissor;
                if (x < sc.x || y < sc.y ||
                    x >= sc.x + static_cast<s32>(sc.width) ||
                    y >= sc.y + static_cast<s32>(sc.height)) {
                    continue;
                }
            }
            coverage |= 1ull << bit;
            minZ = std::min(minZ, frag.z);
        }
    }
    tile->coverage = coverage;
    tile->minZ = minZ;
    return tile;
}

void
FragmentGenerator::startTriangle(Cycle cycle)
{
    if (_current || _in.empty())
        return;
    const TriangleObjPtr& head = _in.front();
    if (head->isMarker()) {
        if (!_out.canSend(cycle))
            return;
        _out.send(cycle, std::make_shared<TileObj>(*_in.pop(cycle)));
        return;
    }
    _current = _in.pop(cycle);
    _tiles.clear();
    auto visitor = [this](s32 x, s32 y) {
        _tiles.emplace_back(x, y);
    };
    if (_config.fragmentGen == FragmentGenKind::Recursive) {
        emu::RasterizerEmulator::traverseRecursive(
            _current->setup, _config.genTileSize, visitor);
    } else {
        emu::RasterizerEmulator::traverseScanline(
            _current->setup, _config.genTileSize, visitor);
    }
}

sim::Next
FragmentGenerator::update(Cycle cycle)
{
    _in.clock(cycle);
    _out.clock(cycle);

    startTriangle(cycle);
    if (_current) {
        // Generate up to tilesPerCycle tiles.
        u32 emitted = 0;
        for (u32 n = 0; n < _config.tilesPerCycle && !_tiles.empty();) {
            if (!_out.canSend(cycle))
                break;
            auto [x, y] = _tiles.front();
            _tiles.pop_front();
            TileObjPtr tile = buildTile(x, y);
            if (tile->coverage == 0)
                continue; // Empty candidate tile: costs nothing.
            _statTiles.inc();
            _statFragments.inc(
                static_cast<u64>(__builtin_popcountll(tile->coverage)));
            _out.send(cycle, tile);
            ++n;
            ++emitted;
        }
        if (emitted > 0)
            _statBusy.inc();
        if (_tiles.empty())
            _current.reset();
    }

    // Tiles (and batch markers) move only with an output credit; a
    // queued triangle starts without one.
    const bool moves =
        _current ? _out.credits() > 0
                 : !_in.empty() &&
                       (!_in.front()->isMarker() || _out.credits() > 0);
    return moves ? sim::Next::runs() : sim::Next::sleeps();
}

bool
FragmentGenerator::empty() const
{
    return _in.empty() && !_current;
}

} // namespace attila::gpu
