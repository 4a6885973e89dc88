/**
 * @file
 * Dac: dumps the colour buffer into an image so the rendered output
 * of the architecture can be verified against an independent
 * renderer (paper §2.2) — the Figure 10 methodology.  The screen
 * refresh bandwidth of the dump is modelled through the Memory
 * Controller.
 */

#ifndef ATTILA_GPU_DAC_HH
#define ATTILA_GPU_DAC_HH

#include <string>
#include <vector>

#include "emu/memory.hh"
#include "gpu/rop_surface.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"

namespace attila::gpu
{

/** A dumped frame: RGBA8 pixels, row-major, y = 0 at the bottom
 * (OpenGL convention). */
struct FrameImage
{
    u32 width = 0;
    u32 height = 0;
    std::vector<u32> pixels;

    u32
    pixel(u32 x, u32 y) const
    {
        return pixels[y * width + x];
    }

    /** Write as a binary PPM (alpha dropped, rows flipped). */
    void writePpm(const std::string& path) const;

    /** Number of pixels differing from @p other. */
    u64 diffCount(const FrameImage& other) const;
};

/** The DAC box. */
class Dac : public sim::Box
{
  public:
    /** @p colorBackings: the ColorWrite units' colour backings, in
     * unit order (unit i owns the tiles i, i + units, ...); they
     * must outlive the DAC. */
    Dac(sim::SignalBinder& binder, sim::StatisticManager& stats,
        const GpuConfig& config, const emu::GpuMemory& memory,
        std::vector<const RopBacking*> colorBackings);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

    const std::vector<FrameImage>& frames() const { return _frames; }

    /** Keep only the most recent frame (bounds long runs). */
    void setKeepLastOnly(bool keep) { _keepLastOnly = keep; }

  private:
    void assembleFrame(const RenderState& state);
    /** Issue tile reads; ack once every read is back. */
    void dumpStep(Cycle cycle);
    /** Start the dump a DumpFrame message asks for. */
    void startDump(Cycle cycle);

    LinkRx<ControlObj> _ctrl;
    LinkTx _ack;
    MemPort _mem;

    const emu::GpuMemory& _memory;
    const std::vector<const RopBacking*> _colorBackings;
    std::vector<FrameImage> _frames;
    bool _keepLastOnly = false;

    /** Timing: tiles left to read for the current dump. */
    bool _dumping = false;
    u32 _tilesLeft = 0;
    u32 _nextTile = 0;
    u32 _totalTiles = 0;
    u32 _bufferBase = 0;

    sim::Statistic& _statFrames;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_DAC_HH
