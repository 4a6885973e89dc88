#include "emu/z_compressor.hh"

#include <algorithm>

#include "emu/fragment_op_emulator.hh"
#include "sim/logging.hh"

namespace attila::emu
{

namespace
{

constexpr u32 headerBytes = 13; ///< stencil + d00 + dx + dy.
constexpr u32 quarterResidualBits = 6;
constexpr u32 halfResidualBits = 14;

/** Set the @p bits low bits of @p value at bit offset @p pos of a
 * zeroed buffer. */
void
putBits(u8* buf, u32& pos, u32 value, u32 bits)
{
    for (u32 i = 0; i < bits; ++i) {
        if (value & (1u << i))
            buf[(pos + i) / 8] |= static_cast<u8>(1u << ((pos + i) % 8));
    }
    pos += bits;
}

/** Read @p bits bits at offset @p pos of @p size bytes,
 * sign-extended; bits past the end read as 0. */
s32
getBitsSigned(const u8* buf, u32 size, u32& pos, u32 bits)
{
    u32 v = 0;
    for (u32 i = 0; i < bits; ++i) {
        const u32 byte = (pos + i) / 8;
        const u32 bit = (pos + i) % 8;
        if (byte < size && (buf[byte] & (1u << bit)))
            v |= 1u << i;
    }
    pos += bits;
    // Sign extend.
    if (v & (1u << (bits - 1)))
        v |= ~((1u << bits) - 1);
    return static_cast<s32>(v);
}

void
putU32(u8* buf, u32 offset, u32 v)
{
    buf[offset] = static_cast<u8>(v);
    buf[offset + 1] = static_cast<u8>(v >> 8);
    buf[offset + 2] = static_cast<u8>(v >> 16);
    buf[offset + 3] = static_cast<u8>(v >> 24);
}

u32
getU32(const u8* buf, u32 offset)
{
    return static_cast<u32>(buf[offset]) |
           (static_cast<u32>(buf[offset + 1]) << 8) |
           (static_cast<u32>(buf[offset + 2]) << 16) |
           (static_cast<u32>(buf[offset + 3]) << 24);
}

/** Try one residual width; returns true and fills the first
 * @p budgetBytes of @p out on fit. */
bool
tryCompress(const std::array<u32, zTileWords>& tile, u32 residualBits,
            u32 budgetBytes, ZPayload& out)
{
    static_assert(headerBytes * 8 + zTileWords * halfResidualBits <=
                      zStoredBytes(TileCompression::Half) * 8,
                  "a 1:2 payload fits its budget");
    static_assert(headerBytes * 8 + zTileWords * quarterResidualBits <=
                      zStoredBytes(TileCompression::Quarter) * 8,
                  "a 1:4 payload fits its budget");

    const u8 stencil = stencilOf(tile[0]);
    for (u32 w : tile) {
        if (stencilOf(w) != stencil)
            return false;
    }

    const s64 d00 = depthOf(tile[0]);
    const s64 dx = static_cast<s64>(depthOf(tile[1])) - d00;
    const s64 dy = static_cast<s64>(depthOf(tile[8])) - d00;

    const s64 lo = -(s64(1) << (residualBits - 1));
    const s64 hi = (s64(1) << (residualBits - 1)) - 1;

    std::array<s32, zTileWords> residuals;
    for (u32 y = 0; y < 8; ++y) {
        for (u32 x = 0; x < 8; ++x) {
            const u32 i = y * 8 + x;
            const s64 predicted = d00 + dx * x + dy * y;
            const s64 r =
                static_cast<s64>(depthOf(tile[i])) - predicted;
            if (r < lo || r > hi)
                return false;
            residuals[i] = static_cast<s32>(r);
        }
    }

    std::fill(out.begin(), out.begin() + budgetBytes, u8{0});
    out[0] = stencil;
    putU32(out.data(), 1, static_cast<u32>(d00));
    putU32(out.data(), 5, static_cast<u32>(static_cast<s32>(dx)));
    putU32(out.data(), 9, static_cast<u32>(static_cast<s32>(dy)));
    u32 pos = headerBytes * 8;
    for (u32 i = 0; i < zTileWords; ++i) {
        putBits(out.data(), pos,
                static_cast<u32>(residuals[i]) &
                    ((1u << residualBits) - 1),
                residualBits);
    }
    return true;
}

} // anonymous namespace

TileCompression
ZCompressor::compress(const std::array<u32, zTileWords>& tile,
                      ZPayload& out)
{
    if (tryCompress(tile, quarterResidualBits,
                    zStoredBytes(TileCompression::Quarter), out))
        return TileCompression::Quarter;
    if (tryCompress(tile, halfResidualBits,
                    zStoredBytes(TileCompression::Half), out))
        return TileCompression::Half;
    return TileCompression::Uncompressed;
}

std::array<u32, zTileWords>
ZCompressor::decompress(TileCompression mode, const u8* data, u32 size)
{
    if (mode == TileCompression::Uncompressed)
        panic("ZCompressor: decompress called on an uncompressed"
              " tile");
    if (size < headerBytes)
        panic("ZCompressor: a ", size, "-byte payload has no header");

    const u32 residualBits = mode == TileCompression::Quarter
                                 ? quarterResidualBits
                                 : halfResidualBits;

    const u8 stencil = data[0];
    const s64 d00 = getU32(data, 1);
    const s64 dx = static_cast<s32>(getU32(data, 5));
    const s64 dy = static_cast<s32>(getU32(data, 9));

    std::array<u32, zTileWords> tile;
    u32 pos = headerBytes * 8;
    for (u32 y = 0; y < 8; ++y) {
        for (u32 x = 0; x < 8; ++x) {
            const s32 r = getBitsSigned(data, size, pos, residualBits);
            const s64 depth = d00 + dx * x + dy * y + r;
            tile[y * 8 + x] = packDepthStencil(
                static_cast<u32>(depth) & maxDepthValue, stencil);
        }
    }
    return tile;
}

} // namespace attila::emu
