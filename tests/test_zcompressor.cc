/**
 * @file
 * Property tests for the lossless Z tile compressor.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "emu/fragment_op_emulator.hh"
#include "emu/z_compressor.hh"

using namespace attila;
using namespace attila::emu;

namespace
{

std::array<u32, zTileWords>
planeTile(u32 base, s32 dx, s32 dy, u8 stencil)
{
    std::array<u32, zTileWords> tile;
    for (u32 y = 0; y < 8; ++y) {
        for (u32 x = 0; x < 8; ++x) {
            const s64 depth = static_cast<s64>(base) +
                              static_cast<s64>(dx) * x +
                              static_cast<s64>(dy) * y;
            tile[y * 8 + x] = packDepthStencil(
                static_cast<u32>(depth) & maxDepthValue, stencil);
        }
    }
    return tile;
}

void
expectRoundTrip(const std::array<u32, zTileWords>& tile,
                TileCompression expected)
{
    ZPayload payload;
    const TileCompression mode = ZCompressor::compress(tile, payload);
    EXPECT_EQ(mode, expected);
    if (mode == TileCompression::Uncompressed)
        return;
    const auto back =
        ZCompressor::decompress(mode, payload.data(), zStoredBytes(mode));
    EXPECT_EQ(back, tile);
}

} // anonymous namespace

TEST(ZCompressor, UniformTileCompressesQuarter)
{
    expectRoundTrip(planeTile(0x123456, 0, 0, 0xaa),
                    TileCompression::Quarter);
}

TEST(ZCompressor, PerfectPlaneCompressesQuarter)
{
    expectRoundTrip(planeTile(1000000, 130, -42, 0),
                    TileCompression::Quarter);
}

TEST(ZCompressor, SmallResidualsStayQuarter)
{
    auto tile = planeTile(5000000, 977, 311, 3);
    // Perturb within the 6-bit signed residual budget.
    tile[27] = packDepthStencil(depthOf(tile[27]) + 30, 3);
    tile[50] = packDepthStencil(depthOf(tile[50]) - 30, 3);
    expectRoundTrip(tile, TileCompression::Quarter);
}

TEST(ZCompressor, LargerResidualsFallBackToHalf)
{
    auto tile = planeTile(5000000, 977, 311, 3);
    tile[27] = packDepthStencil(depthOf(tile[27]) + 4000, 3);
    expectRoundTrip(tile, TileCompression::Half);
}

TEST(ZCompressor, DecodesExactlyTheStoredBytes)
{
    // The payload travels through memory as its stored bytes only:
    // a copy of just those decodes to the same tile, whatever
    // follows them.
    auto tile = planeTile(5000000, 977, 311, 3);
    tile[27] = packDepthStencil(depthOf(tile[27]) + 4000, 3);
    ZPayload payload;
    const TileCompression mode = ZCompressor::compress(tile, payload);
    ASSERT_EQ(mode, TileCompression::Half);
    std::array<u8, zTileBytes> stored;
    stored.fill(0xff);
    constexpr u32 size = zStoredBytes(TileCompression::Half);
    std::copy_n(payload.begin(), size, stored.begin());
    EXPECT_EQ(ZCompressor::decompress(mode, stored.data(), size), tile);
}

TEST(ZCompressor, RandomTileUncompressible)
{
    std::array<u32, zTileWords> tile;
    u64 state = 12345;
    for (u32& w : tile) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        w = packDepthStencil(static_cast<u32>(state >> 16) &
                                 maxDepthValue,
                             7);
    }
    ZPayload payload;
    EXPECT_EQ(ZCompressor::compress(tile, payload),
              TileCompression::Uncompressed);
}

TEST(ZCompressor, MixedStencilUncompressible)
{
    auto tile = planeTile(1000, 1, 1, 0);
    tile[10] = packDepthStencil(depthOf(tile[10]), 1);
    ZPayload payload;
    EXPECT_EQ(ZCompressor::compress(tile, payload),
              TileCompression::Uncompressed);
}

/** Property sweep: random planes with bounded noise always
 * round-trip losslessly at some ratio. */
class ZCompressorSweep : public ::testing::TestWithParam<u32>
{
};

TEST_P(ZCompressorSweep, LosslessRoundTrip)
{
    u64 state = GetParam() * 0x9e3779b97f4a7c15ull + 1;
    auto rnd = [&]() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    };

    const u32 base = static_cast<u32>(rnd() % (maxDepthValue / 2)) +
                     maxDepthValue / 4;
    const s32 dx = static_cast<s32>(rnd() % 2001) - 1000;
    const s32 dy = static_cast<s32>(rnd() % 2001) - 1000;
    const u8 stencil = static_cast<u8>(rnd() & 0xff);
    auto tile = planeTile(base, dx, dy, stencil);

    // Noise within the 1:2 budget.  The plane predictor anchors on
    // the first row/column samples, so noise there is amplified by
    // up to 15x across the tile; +-250 stays within 14-bit
    // residuals.
    for (u32& w : tile) {
        const s32 noise = static_cast<s32>(rnd() % 501) - 250;
        const s64 depth =
            static_cast<s64>(depthOf(w)) + noise;
        if (depth >= 0 && depth <= maxDepthValue)
            w = packDepthStencil(static_cast<u32>(depth), stencil);
    }

    ZPayload payload;
    const TileCompression mode = ZCompressor::compress(tile, payload);
    ASSERT_NE(mode, TileCompression::Uncompressed);
    EXPECT_EQ(ZCompressor::decompress(mode, payload.data(),
                                      zStoredBytes(mode)),
              tile);
}

INSTANTIATE_TEST_SUITE_P(RandomPlanes, ZCompressorSweep,
                         ::testing::Range(0u, 32u));
