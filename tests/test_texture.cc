/**
 * @file
 * Unit tests for the texture emulator: addressing, wrap modes, DXT
 * decompression, LOD selection and filtering.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "emu/texture_emulator.hh"

using namespace attila;
using namespace attila::emu;

namespace
{

/** Build a 2D RGBA8 texture in GPU memory with given mip images
 * (tight packed). */
TextureDescriptor
makeTexture(GpuMemory& mem, u32 size,
            const std::vector<std::vector<u8>>& mips,
            TexFormat format = TexFormat::RGBA8)
{
    TextureDescriptor desc;
    desc.target = TexTarget::Tex2D;
    desc.format = format;
    desc.levels = static_cast<u32>(mips.size());
    u32 addr = 4096;
    u32 dim = size;
    for (u32 level = 0; level < mips.size(); ++level) {
        desc.mips[0][level] = {dim, dim, 1, addr};
        addr += mipStorageBytes(format, dim, dim);
        dim = std::max(1u, dim / 2);
    }
    // Upload through the device-layout path.
    dim = size;
    for (u32 level = 0; level < mips.size(); ++level) {
        TextureEmulator::uploadMip(mem, desc, 0, level,
                                   mips[level].data(),
                                   static_cast<u32>(
                                       mips[level].size()));
        dim = std::max(1u, dim / 2);
    }
    return desc;
}

/** Solid-color tight-packed RGBA8 image. */
std::vector<u8>
solid(u32 size, u8 r, u8 g, u8 b, u8 a = 255)
{
    std::vector<u8> img(size * size * 4);
    for (u32 i = 0; i < size * size; ++i) {
        img[i * 4] = r;
        img[i * 4 + 1] = g;
        img[i * 4 + 2] = b;
        img[i * 4 + 3] = a;
    }
    return img;
}

} // anonymous namespace

TEST(TextureFormats, UnitSizes)
{
    EXPECT_EQ(texFormatUnitBytes(TexFormat::RGBA8), 4u);
    EXPECT_EQ(texFormatUnitBytes(TexFormat::LUM8), 1u);
    EXPECT_EQ(texFormatUnitBytes(TexFormat::DXT1), 8u);
    EXPECT_EQ(texFormatUnitBytes(TexFormat::DXT5), 16u);
    EXPECT_TRUE(texFormatCompressed(TexFormat::DXT3));
    EXPECT_FALSE(texFormatCompressed(TexFormat::RGBA8));
}

TEST(TextureFormats, MipStorage)
{
    // 8x8 RGBA8 = one 256-byte tile.
    EXPECT_EQ(mipStorageBytes(TexFormat::RGBA8, 8, 8), 256u);
    // 16x16 -> 4 tiles.
    EXPECT_EQ(mipStorageBytes(TexFormat::RGBA8, 16, 16), 1024u);
    // Non-multiple dims round up to tiles.
    EXPECT_EQ(mipStorageBytes(TexFormat::RGBA8, 9, 9), 4 * 256u);
    // DXT1: 4x4 blocks of 8 bytes.
    EXPECT_EQ(mipStorageBytes(TexFormat::DXT1, 16, 16), 128u);
}

TEST(TextureWrap, Modes)
{
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Repeat, 5, 4), 1);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Repeat, -1, 4), 3);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Clamp, 7, 4), 3);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Clamp, -2, 4), 0);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Mirror, 4, 4), 3);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Mirror, 5, 4), 2);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Mirror, -1, 4), 0);
}

TEST(TextureFetch, TexelRoundTrip)
{
    GpuMemory mem(1 << 20);
    // Distinct texel values across a 16x16 texture.
    std::vector<u8> img(16 * 16 * 4);
    for (u32 y = 0; y < 16; ++y) {
        for (u32 x = 0; x < 16; ++x) {
            img[(y * 16 + x) * 4] = static_cast<u8>(x * 16);
            img[(y * 16 + x) * 4 + 1] = static_cast<u8>(y * 16);
            img[(y * 16 + x) * 4 + 2] = 0;
            img[(y * 16 + x) * 4 + 3] = 255;
        }
    }
    auto desc = makeTexture(mem, 16, {img});
    for (u32 y = 0; y < 16; y += 3) {
        for (u32 x = 0; x < 16; x += 3) {
            const Vec4 texel =
                TextureEmulator::fetchTexel(desc, 0, 0, x, y, mem);
            EXPECT_NEAR(texel.x, x * 16 / 255.0f, 1e-6);
            EXPECT_NEAR(texel.y, y * 16 / 255.0f, 1e-6);
        }
    }
}

TEST(TextureSample, NearestAndBilinear)
{
    GpuMemory mem(1 << 20);
    // 2x2 texture: distinct corners.
    std::vector<u8> img = {
        255, 0,   0,   255, //
        0,   255, 0,   255, //
        0,   0,   255, 255, //
        255, 255, 255, 255, //
    };
    auto desc = makeTexture(mem, 2, {img});
    desc.minFilter = MinFilter::Nearest;
    desc.magLinear = false;

    // Center of texel (0,0).
    Vec4 t = TextureEmulator::sample(desc, {0.25f, 0.25f, 0, 0},
                                     -1.0f, mem);
    EXPECT_FLOAT_EQ(t.x, 1.0f);
    EXPECT_FLOAT_EQ(t.y, 0.0f);

    // Bilinear at the exact center blends all four texels equally.
    desc.magLinear = true;
    t = TextureEmulator::sample(desc, {0.5f, 0.5f, 0, 0}, -1.0f,
                                mem);
    EXPECT_NEAR(t.x, 0.5f, 1e-5);
    EXPECT_NEAR(t.y, 0.5f, 1e-5);
    EXPECT_NEAR(t.z, 0.5f, 1e-5);
}

TEST(TextureSample, MipSelectionAndTrilinear)
{
    GpuMemory mem(1 << 20);
    auto desc = makeTexture(
        mem, 4,
        {solid(4, 255, 0, 0), solid(2, 0, 255, 0),
         solid(1, 0, 0, 255)});
    desc.minFilter = MinFilter::NearestMipNearest;

    // lod 0 -> level 0 (red).
    Vec4 t = TextureEmulator::sample(desc, {0.5f, 0.5f, 0, 0}, 0.0f,
                                     mem);
    EXPECT_FLOAT_EQ(t.x, 1.0f);
    // lod 1 -> level 1 (green).
    t = TextureEmulator::sample(desc, {0.5f, 0.5f, 0, 0}, 1.0f, mem);
    EXPECT_FLOAT_EQ(t.y, 1.0f);
    // lod clamped to the last level (blue).
    t = TextureEmulator::sample(desc, {0.5f, 0.5f, 0, 0}, 9.0f, mem);
    EXPECT_FLOAT_EQ(t.z, 1.0f);

    // Trilinear halfway between levels 0 and 1.
    desc.minFilter = MinFilter::LinearMipLinear;
    t = TextureEmulator::sample(desc, {0.5f, 0.5f, 0, 0}, 0.5f, mem);
    EXPECT_NEAR(t.x, 0.5f, 1e-5);
    EXPECT_NEAR(t.y, 0.5f, 1e-5);
}

TEST(TextureSample, QuadLodFromDerivatives)
{
    GpuMemory mem(1 << 20);
    auto desc = makeTexture(mem, 64, {solid(64, 255, 255, 255)});
    // One texel per pixel -> lod 0.
    std::array<Vec4, 4> coords = {
        Vec4{0.0f, 0.0f, 0, 0}, Vec4{1.0f / 64, 0.0f, 0, 0},
        Vec4{0.0f, 1.0f / 64, 0, 0},
        Vec4{1.0f / 64, 1.0f / 64, 0, 0}};
    EXPECT_NEAR(TextureEmulator::quadLod(desc, coords), 0.0f, 1e-4);
    // Two texels per pixel -> lod 1.
    for (auto& c : coords)
        c = c * 2.0f;
    EXPECT_NEAR(TextureEmulator::quadLod(desc, coords), 1.0f, 1e-4);
}

TEST(TextureSample, AnisotropyDetection)
{
    GpuMemory mem(1 << 20);
    auto desc = makeTexture(mem, 64, {solid(64, 1, 2, 3)});
    desc.maxAnisotropy = 8;
    // 4:1 anisotropic footprint (du/dx 4 texels, dv/dy 1 texel).
    std::array<Vec4, 4> coords = {
        Vec4{0, 0, 0, 0}, Vec4{4.0f / 64, 0, 0, 0},
        Vec4{0, 1.0f / 64, 0, 0}, Vec4{4.0f / 64, 1.0f / 64, 0, 0}};
    EXPECT_EQ(TextureEmulator::quadAniso(desc, coords), 4u);
    desc.maxAnisotropy = 2;
    EXPECT_EQ(TextureEmulator::quadAniso(desc, coords), 2u);
    desc.maxAnisotropy = 1;
    EXPECT_EQ(TextureEmulator::quadAniso(desc, coords), 1u);
}

TEST(TextureSample, BilinearOpsAccounting)
{
    GpuMemory mem(1 << 20);
    auto desc = makeTexture(
        mem, 4, {solid(4, 9, 9, 9), solid(2, 9, 9, 9),
                 solid(1, 9, 9, 9)});
    desc.minFilter = MinFilter::LinearMipLinear;

    // Magnified quad: bilinear, 1 op per fragment.
    std::array<Vec4, 4> coords = {
        Vec4{0.5f, 0.5f, 0, 0}, Vec4{0.51f, 0.5f, 0, 0},
        Vec4{0.5f, 0.51f, 0, 0}, Vec4{0.51f, 0.51f, 0, 0}};
    std::array<SamplePlan, 4> plans;
    EXPECT_EQ(TextureEmulator::planQuad(desc, coords, 0.0f, false,
                                        plans),
              4u);

    // Minified between two levels: trilinear, 2 ops per fragment
    // (paper: one trilinear sample every two cycles).
    std::array<Vec4, 4> minified = {
        Vec4{0.0f, 0.0f, 0, 0}, Vec4{0.75f, 0.0f, 0, 0},
        Vec4{0.0f, 0.75f, 0, 0}, Vec4{0.75f, 0.75f, 0, 0}};
    EXPECT_EQ(TextureEmulator::planQuad(desc, minified, 0.0f, false,
                                        plans),
              8u);
    for (const SamplePlan& plan : plans)
        EXPECT_EQ(plan.bilinearOps, 2u);
}

TEST(TextureSample, ProjectedQuadSamplesLikePreDividedCoords)
{
    // A TXP request divides each lane's coordinates by its q before
    // planning (q = 0 reads as 1), so it samples exactly what the
    // pre-divided coordinates sample.
    GpuMemory mem(1 << 20);
    std::vector<u8> img(16 * 16 * 4);
    for (u32 y = 0; y < 16; ++y) {
        for (u32 x = 0; x < 16; ++x) {
            u8* texel = &img[(y * 16 + x) * 4];
            texel[0] = static_cast<u8>(x * 16);
            texel[1] = static_cast<u8>(y * 16);
            texel[2] = static_cast<u8>((x ^ y) * 16);
            texel[3] = 255;
        }
    }
    auto desc = makeTexture(mem, 16, {img});
    desc.wrapS = desc.wrapT = WrapMode::Clamp;

    const std::array<Vec4, 4> divided = {
        Vec4{0.30f, 0.20f, 0, 1}, Vec4{0.40f, 0.20f, 0, 1},
        Vec4{0.30f, 0.35f, 0, 1}, Vec4{0.45f, 0.30f, 0, 1}};
    // Power-of-two q keeps every division exact.
    const f32 q[4] = {2.0f, 4.0f, 0.5f, 0.0f};
    std::array<Vec4, 4> raw;
    for (u32 l = 0; l < 4; ++l) {
        const f32 scale = q[l] != 0.0f ? q[l] : 1.0f;
        raw[l] = {divided[l].x * scale, divided[l].y * scale, 0, q[l]};
    }

    std::array<SamplePlan, 4> projectedPlans, dividedPlans;
    const u32 projectedOps = TextureEmulator::planQuad(
        desc, raw, 0.0f, true, projectedPlans);
    const u32 dividedOps = TextureEmulator::planQuad(
        desc, divided, 0.0f, false, dividedPlans);
    EXPECT_EQ(projectedOps, dividedOps);
    for (u32 l = 0; l < 4; ++l) {
        const Vec4 projected = TextureEmulator::executePlan(
            desc, projectedPlans[l], mem);
        EXPECT_EQ(projected, TextureEmulator::executePlan(
                                 desc, dividedPlans[l], mem))
            << "lane " << l;
        if (l > 0) {
            EXPECT_NE(projected, TextureEmulator::executePlan(
                                     desc, dividedPlans[0], mem))
                << "lane " << l;
        }
    }
}

TEST(TextureDxt, Dxt1SolidBlock)
{
    // c0 > c1 four-colour mode, all indices 0 -> c0 everywhere.
    u8 block[8] = {};
    const u16 c0 = (31 << 11); // Pure red.
    const u16 c1 = 0;
    block[0] = static_cast<u8>(c0);
    block[1] = static_cast<u8>(c0 >> 8);
    block[2] = static_cast<u8>(c1);
    block[3] = static_cast<u8>(c1 >> 8);
    Vec4 out[16];
    decodeDxt1Block(block, out);
    for (u32 i = 0; i < 16; ++i) {
        EXPECT_FLOAT_EQ(out[i].x, 1.0f);
        EXPECT_FLOAT_EQ(out[i].y, 0.0f);
        EXPECT_FLOAT_EQ(out[i].w, 1.0f);
    }
}

TEST(TextureDxt, Dxt1TransparentMode)
{
    // c0 <= c1 three-colour mode: index 3 is transparent black.
    u8 block[8] = {};
    block[4] = 0xff; // First 4 texels index 3.
    Vec4 out[16];
    decodeDxt1Block(block, out);
    EXPECT_FLOAT_EQ(out[0].w, 0.0f);
    EXPECT_FLOAT_EQ(out[1].w, 0.0f);
    EXPECT_FLOAT_EQ(out[4].w, 1.0f);
}

TEST(TextureDxt, Dxt3ExplicitAlpha)
{
    u8 block[16] = {};
    block[0] = 0xf0; // texel0 alpha 0, texel1 alpha 15.
    // Colors: both endpoints white.
    block[8] = 0xff;
    block[9] = 0xff;
    block[10] = 0xff;
    block[11] = 0xff;
    Vec4 out[16];
    decodeDxt3Block(block, out);
    EXPECT_FLOAT_EQ(out[0].w, 0.0f);
    EXPECT_FLOAT_EQ(out[1].w, 1.0f);
    EXPECT_FLOAT_EQ(out[0].x, 1.0f);
}

TEST(TextureDxt, Dxt5InterpolatedAlpha)
{
    u8 block[16] = {};
    block[0] = 255; // a0.
    block[1] = 0;   // a1: 8-alpha mode.
    // First texel index 0 (a0), second index 1 (a1).
    block[2] = 0x08; // bits: texel0 = 0, texel1 = 1.
    Vec4 out[16];
    decodeDxt5Block(block, out);
    EXPECT_FLOAT_EQ(out[0].w, 1.0f);
    EXPECT_FLOAT_EQ(out[1].w, 0.0f);
}

TEST(TextureCube, FaceSelection)
{
    u32 face;
    f32 s, t;
    TextureEmulator::cubeFace({1, 0, 0, 0}, face, s, t);
    EXPECT_EQ(face, 0u);
    EXPECT_FLOAT_EQ(s, 0.5f);
    EXPECT_FLOAT_EQ(t, 0.5f);
    TextureEmulator::cubeFace({-1, 0, 0, 0}, face, s, t);
    EXPECT_EQ(face, 1u);
    TextureEmulator::cubeFace({0, 1, 0, 0}, face, s, t);
    EXPECT_EQ(face, 2u);
    TextureEmulator::cubeFace({0, -1, 0, 0}, face, s, t);
    EXPECT_EQ(face, 3u);
    TextureEmulator::cubeFace({0, 0, 1, 0}, face, s, t);
    EXPECT_EQ(face, 4u);
    TextureEmulator::cubeFace({0, 0, -1, 0}, face, s, t);
    EXPECT_EQ(face, 5u);
}

TEST(TexturePlan, AddressesAreLineCoherent)
{
    GpuMemory mem(1 << 20);
    auto desc = makeTexture(mem, 64, {solid(64, 7, 7, 7)});
    desc.minFilter = MinFilter::Linear;
    const SamplePlan plan = TextureEmulator::planSample(
        desc, {0.5f, 0.5f, 0, 0}, 0.5f);
    ASSERT_FALSE(plan.texels.empty());
    // Bilinear footprint: four texels, weights sum to 1.
    f32 weight = 0.0f;
    for (const TexelRef& ref : plan.texels) {
        weight += ref.weight;
        EXPECT_EQ(ref.bytes, 4u);
        EXPECT_GE(ref.address, 4096u);
    }
    EXPECT_NEAR(weight, 1.0f, 1e-5);
}
