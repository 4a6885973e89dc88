#include "gpu/dac.hh"

#include <array>
#include <fstream>

namespace attila::gpu
{

void
FrameImage::writePpm(const std::string& path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("DAC: cannot open '", path, "' for writing");
    out << "P6\n" << width << ' ' << height << "\n255\n";
    // OpenGL y-up to PPM top-down.
    for (s32 y = static_cast<s32>(height) - 1; y >= 0; --y) {
        for (u32 x = 0; x < width; ++x) {
            const u32 p = pixel(x, static_cast<u32>(y));
            const char rgb[3] = {static_cast<char>(p & 0xff),
                                 static_cast<char>((p >> 8) & 0xff),
                                 static_cast<char>((p >> 16) & 0xff)};
            out.write(rgb, 3);
        }
    }
}

u64
FrameImage::diffCount(const FrameImage& other) const
{
    if (width != other.width || height != other.height)
        return static_cast<u64>(width) * height;
    u64 diff = 0;
    for (std::size_t i = 0; i < pixels.size(); ++i) {
        if (pixels[i] != other.pixels[i])
            ++diff;
    }
    return diff;
}

Dac::Dac(sim::SignalBinder& binder, sim::StatisticManager& stats,
         const GpuConfig& config, const emu::GpuMemory& memory,
         std::vector<const RopBacking*> colorBackings)
    : Box(binder, stats, "DAC"),
      _memory(memory),
      _colorBackings(std::move(colorBackings)),
      _statFrames(stat("frames")),
      _statBusy(stat("busyCycles"))
{
    _ctrl.init(*this, binder, "cp.ctrl.dac", 1, 1, 2);
    _ack.init(*this, binder, "ack.dac", 1, 1, 2);
    _mem.init(*this, binder, "mc.dac", config.memoryRequestQueue);
}

void
Dac::assembleFrame(const RenderState& state)
{
    FrameImage frame;
    frame.width = state.width;
    frame.height = state.height;
    frame.pixels.assign(static_cast<std::size_t>(state.width) *
                            state.height,
                        0);

    const u32 base = state.colorBufferAddress;
    const u32 tilesPerRow = fbTilesPerRow(state.width);
    const u32 tiles = fbSurfaceBytes(state.width, state.height) /
                      fbTileBytes;
    std::array<u32, fbTilePixels> tile;
    for (u32 t = 0; t < tiles; ++t) {
        // The ROP owning the tile holds its block state: resolve it
        // as that ROP's colour cache would fill it (a tile outside
        // the buffer the ROP cleared last is plain memory).
        _colorBackings[t % _colorBackings.size()]->resolveTile(
            base + t * fbTileBytes, _memory,
            reinterpret_cast<u8*>(tile.data()));
        const u32 x0 = (t % tilesPerRow) * fbTileDim;
        const u32 y0 = (t / tilesPerRow) * fbTileDim;
        for (u32 i = 0; i < fbTilePixels; ++i) {
            const u32 x = x0 + i % fbTileDim;
            const u32 y = y0 + i / fbTileDim;
            if (x < state.width && y < state.height)
                frame.pixels[y * state.width + x] = tile[i];
        }
    }
    if (_keepLastOnly)
        _frames.clear();
    _frames.push_back(std::move(frame));
    _statFrames.inc();
}

void
Dac::dumpStep(Cycle cycle)
{
    _statBusy.inc();
    // Issue tile reads (refresh bandwidth).
    while (_nextTile < _totalTiles && _mem.canRequest(cycle)) {
        auto txn = std::make_shared<MemTransaction>();
        txn->isRead = true;
        txn->address = _bufferBase + _nextTile * fbTileBytes;
        txn->size = fbTileBytes;
        txn->client = MemClient::Dac;
        _mem.request(cycle, txn);
        ++_nextTile;
    }
    if (_tilesLeft == 0 && _nextTile >= _totalTiles &&
        _ack.canSend(cycle)) {
        auto ack = std::make_shared<AckObj>();
        ack->kind = ControlKind::DumpFrame;
        _ack.send(cycle, ack);
        _dumping = false;
    }
}

void
Dac::startDump(Cycle cycle)
{
    ControlObjPtr ctrl = _ctrl.pop(cycle);
    if (ctrl->kind != ControlKind::DumpFrame)
        panic("DAC: unexpected control message");

    const RenderState& state = *ctrl->state;
    assembleFrame(state);
    _bufferBase = state.colorBufferAddress;
    _totalTiles = fbSurfaceBytes(state.width, state.height) /
                  fbTileBytes;
    _tilesLeft = _totalTiles;
    _nextTile = 0;
    _dumping = true;
}

sim::Next
Dac::update(Cycle cycle)
{
    _statBusy.tickFrom(cycle, 0);
    _ctrl.clock(cycle);
    _ack.clock(cycle);
    _mem.clock(cycle);

    // Drain timing reads.
    while (_mem.hasResponse()) {
        _mem.popResponse(cycle);
        --_tilesLeft;
    }

    if (_dumping)
        dumpStep(cycle);
    else if (!_ctrl.empty())
        startDump(cycle);
    // A dump waiting on its reads counts a busy cycle per cycle.
    _statBusy.tickFrom(cycle + 1, _dumping);

    // A dump step can move: a tile read with a request credit, or the
    // final ack with an ack credit.
    const bool moves = !_dumping ? !_ctrl.empty()
                       : _nextTile < _totalTiles
                           ? _mem.requestCredits() > 0
                           : _tilesLeft == 0 && _ack.credits() > 0;
    return moves ? sim::Next::runs() : sim::Next::sleeps();
}

bool
Dac::empty() const
{
    return !_dumping && _ctrl.empty();
}

} // namespace attila::gpu
