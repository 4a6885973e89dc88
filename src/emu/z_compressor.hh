/**
 * @file
 * ZCompressor: lossless depth-tile compression with 1:2 and 1:4
 * ratios (paper §2.2, after the ATI Hot3D presentation and patent).
 *
 * A tile is the 64 depth/stencil words covered by one 256-byte Z
 * cache line (an 8x8 pixel block).  The compressor fits a plane
 * predictor through the depth values — depth is linear across a
 * triangle's interior, so tiles covered by one or two triangles
 * compress extremely well — and stores per-sample residuals in a
 * reduced number of bits.  Compression only succeeds when it is
 * exactly reversible (lossless); otherwise the tile stays
 * uncompressed.
 */

#ifndef ATTILA_EMU_Z_COMPRESSOR_HH
#define ATTILA_EMU_Z_COMPRESSOR_HH

#include <array>

#include "sim/types.hh"

namespace attila::emu
{

/** Compression state of one framebuffer tile / cache line. */
enum class TileCompression : u8
{
    Uncompressed, ///< 256 bytes.
    Half,         ///< 1:2 — 128 bytes.
    Quarter,      ///< 1:4 — 64 bytes.
};

/** Words per tile (8x8 pixels, one u32 per pixel). */
constexpr u32 zTileWords = 64;
/** Uncompressed tile size in bytes. */
constexpr u32 zTileBytes = zTileWords * 4;

/** Stored bytes of a tile in @p mode: 64, 128 or 256. */
constexpr u32
zStoredBytes(TileCompression mode)
{
    switch (mode) {
      case TileCompression::Half: return zTileBytes / 2;
      case TileCompression::Quarter: return zTileBytes / 4;
      default: return zTileBytes;
    }
}

/** A compressed payload: room for the largest (1:2) one. */
using ZPayload = std::array<u8, zTileBytes / 2>;

/**
 * Plane-predictor depth tile compressor.  Neither direction
 * allocates: the payload lives in caller-owned storage.
 */
class ZCompressor
{
  public:
    /**
     * Try to compress @p tile (64 depth/stencil words, row-major
     * 8x8) into @p out.  Requires a uniform stencil byte across the
     * tile.  Attempts 1:4 first, then 1:2.  Returns the mode; the
     * payload is the first zStoredBytes(mode) bytes of @p out
     * (nothing when Uncompressed).
     */
    static TileCompression compress(
        const std::array<u32, zTileWords>& tile, ZPayload& out);

    /**
     * Reverse compress() on the @p size payload bytes at @p data.
     * @p mode must come from a successful compression.
     */
    static std::array<u32, zTileWords> decompress(TileCompression mode,
                                                  const u8* data,
                                                  u32 size);
};

} // namespace attila::emu

#endif // ATTILA_EMU_Z_COMPRESSOR_HH
