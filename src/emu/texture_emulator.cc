#include "emu/texture_emulator.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace attila::emu
{

namespace
{

constexpr u32 tileDim = 8; ///< Uncompressed textures tile as 8x8.

/** Unpack a 565 color word to a Vec4 (alpha 1). */
Vec4
unpack565(u16 c)
{
    const f32 r = static_cast<f32>((c >> 11) & 0x1f) / 31.0f;
    const f32 g = static_cast<f32>((c >> 5) & 0x3f) / 63.0f;
    const f32 b = static_cast<f32>(c & 0x1f) / 31.0f;
    return {r, g, b, 1.0f};
}

u16
readU16(const u8* p)
{
    return static_cast<u16>(p[0] | (p[1] << 8));
}

u32
readU32(const u8* p)
{
    return static_cast<u32>(p[0] | (p[1] << 8) | (p[2] << 16) |
                            (p[3] << 24));
}

} // anonymous namespace

void
decodeDxt1Block(const u8* block, Vec4 out[16])
{
    const u16 c0 = readU16(block);
    const u16 c1 = readU16(block + 2);
    const u32 bits = readU32(block + 4);
    Vec4 palette[4];
    palette[0] = unpack565(c0);
    palette[1] = unpack565(c1);
    if (c0 > c1) {
        palette[2] = palette[0] * (2.0f / 3.0f) +
                     palette[1] * (1.0f / 3.0f);
        palette[3] = palette[0] * (1.0f / 3.0f) +
                     palette[1] * (2.0f / 3.0f);
        palette[2].w = palette[3].w = 1.0f;
    } else {
        palette[2] = (palette[0] + palette[1]) * 0.5f;
        palette[2].w = 1.0f;
        palette[3] = {0.0f, 0.0f, 0.0f, 0.0f};
    }
    for (u32 i = 0; i < 16; ++i)
        out[i] = palette[(bits >> (2 * i)) & 0x3];
}

void
decodeDxt3Block(const u8* block, Vec4 out[16])
{
    // Color part: always 4-color mode.
    const u16 c0 = readU16(block + 8);
    const u16 c1 = readU16(block + 10);
    const u32 bits = readU32(block + 12);
    Vec4 palette[4];
    palette[0] = unpack565(c0);
    palette[1] = unpack565(c1);
    palette[2] =
        palette[0] * (2.0f / 3.0f) + palette[1] * (1.0f / 3.0f);
    palette[3] =
        palette[0] * (1.0f / 3.0f) + palette[1] * (2.0f / 3.0f);
    for (u32 i = 0; i < 16; ++i) {
        out[i] = palette[(bits >> (2 * i)) & 0x3];
        // Explicit 4-bit alpha.
        const u32 nibble = (block[i / 2] >> ((i % 2) * 4)) & 0xf;
        out[i].w = static_cast<f32>(nibble) / 15.0f;
    }
}

void
decodeDxt5Block(const u8* block, Vec4 out[16])
{
    const f32 a0 = static_cast<f32>(block[0]) / 255.0f;
    const f32 a1 = static_cast<f32>(block[1]) / 255.0f;
    f32 alpha[8];
    alpha[0] = a0;
    alpha[1] = a1;
    if (block[0] > block[1]) {
        for (u32 i = 1; i < 7; ++i) {
            alpha[1 + i] =
                (a0 * static_cast<f32>(7 - i) +
                 a1 * static_cast<f32>(i)) / 7.0f;
        }
    } else {
        for (u32 i = 1; i < 5; ++i) {
            alpha[1 + i] =
                (a0 * static_cast<f32>(5 - i) +
                 a1 * static_cast<f32>(i)) / 5.0f;
        }
        alpha[6] = 0.0f;
        alpha[7] = 1.0f;
    }
    // 48 bits of 3-bit indices.
    u64 abits = 0;
    for (u32 i = 0; i < 6; ++i)
        abits |= static_cast<u64>(block[2 + i]) << (8 * i);

    const u16 c0 = readU16(block + 8);
    const u16 c1 = readU16(block + 10);
    const u32 bits = readU32(block + 12);
    Vec4 palette[4];
    palette[0] = unpack565(c0);
    palette[1] = unpack565(c1);
    palette[2] =
        palette[0] * (2.0f / 3.0f) + palette[1] * (1.0f / 3.0f);
    palette[3] =
        palette[0] * (1.0f / 3.0f) + palette[1] * (2.0f / 3.0f);
    for (u32 i = 0; i < 16; ++i) {
        out[i] = palette[(bits >> (2 * i)) & 0x3];
        out[i].w = alpha[(abits >> (3 * i)) & 0x7];
    }
}

u32
texFormatUnitBytes(TexFormat fmt)
{
    switch (fmt) {
      case TexFormat::RGBA8: return 4;
      case TexFormat::LUM8: return 1;
      case TexFormat::ALPHA8: return 1;
      case TexFormat::DXT1: return 8;
      case TexFormat::DXT3: return 16;
      case TexFormat::DXT5: return 16;
    }
    return 4;
}

bool
texFormatCompressed(TexFormat fmt)
{
    return fmt == TexFormat::DXT1 || fmt == TexFormat::DXT3 ||
           fmt == TexFormat::DXT5;
}

u32
mipStorageBytes(TexFormat fmt, u32 width, u32 height)
{
    if (texFormatCompressed(fmt)) {
        const u32 bw = (width + 3) / 4;
        const u32 bh = (height + 3) / 4;
        return bw * bh * texFormatUnitBytes(fmt);
    }
    const u32 tw = (width + tileDim - 1) / tileDim;
    const u32 th = (height + tileDim - 1) / tileDim;
    return tw * th * tileDim * tileDim * texFormatUnitBytes(fmt);
}

u32
TextureEmulator::texelAddress(const TextureDescriptor& desc, u8 face,
                              u8 level, u32 x, u32 y, u32* bytes)
{
    const MipLevel& mip = desc.mips[face][level];
    const u32 unit = texFormatUnitBytes(desc.format);
    if (texFormatCompressed(desc.format)) {
        const u32 bpr = (mip.width + 3) / 4;
        if (bytes)
            *bytes = unit;
        return mip.address + ((y / 4) * bpr + (x / 4)) * unit;
    }
    const u32 tpr = (mip.width + tileDim - 1) / tileDim;
    const u32 tileBytes = tileDim * tileDim * unit;
    if (bytes)
        *bytes = unit;
    return mip.address +
           ((y / tileDim) * tpr + (x / tileDim)) * tileBytes +
           ((y % tileDim) * tileDim + (x % tileDim)) * unit;
}

s32
TextureEmulator::wrap(WrapMode mode, s32 coord, s32 size)
{
    if (size <= 0)
        return 0;
    switch (mode) {
      case WrapMode::Repeat: {
        s32 m = coord % size;
        if (m < 0)
            m += size;
        return m;
      }
      case WrapMode::Clamp:
        return std::clamp(coord, 0, size - 1);
      case WrapMode::Mirror: {
        const s32 period = 2 * size;
        s32 m = coord % period;
        if (m < 0)
            m += period;
        return m < size ? m : period - 1 - m;
      }
    }
    return 0;
}

Vec4
TextureEmulator::fetchTexel(const TextureDescriptor& desc, u8 face,
                            u8 level, s32 x, s32 y,
                            const MemoryReader& mem)
{
    const MipLevel& mip = desc.mips[face][level];
    const s32 w = static_cast<s32>(mip.width);
    const s32 h = static_cast<s32>(mip.height);
    const u32 xi = static_cast<u32>(wrap(desc.wrapS, x, w));
    const u32 yi = static_cast<u32>(wrap(desc.wrapT, y, h));

    u32 unitBytes = 0;
    const u32 addr =
        texelAddress(desc, face, level, xi, yi, &unitBytes);

    switch (desc.format) {
      case TexFormat::RGBA8: {
        u8 px[4];
        mem.read(addr, 4, px);
        return {px[0] / 255.0f, px[1] / 255.0f, px[2] / 255.0f,
                px[3] / 255.0f};
      }
      case TexFormat::LUM8: {
        u8 l;
        mem.read(addr, 1, &l);
        const f32 v = l / 255.0f;
        return {v, v, v, 1.0f};
      }
      case TexFormat::ALPHA8: {
        u8 a;
        mem.read(addr, 1, &a);
        return {0.0f, 0.0f, 0.0f, a / 255.0f};
      }
      case TexFormat::DXT1:
      case TexFormat::DXT3:
      case TexFormat::DXT5: {
        u8 block[16];
        mem.read(addr, unitBytes, block);
        Vec4 texels[16];
        if (desc.format == TexFormat::DXT1)
            decodeDxt1Block(block, texels);
        else if (desc.format == TexFormat::DXT3)
            decodeDxt3Block(block, texels);
        else
            decodeDxt5Block(block, texels);
        return texels[(yi % 4) * 4 + (xi % 4)];
      }
    }
    return Vec4();
}

void
TextureEmulator::cubeFace(const Vec4& dir, u32& face, f32& s, f32& t)
{
    const f32 ax = std::fabs(dir.x);
    const f32 ay = std::fabs(dir.y);
    const f32 az = std::fabs(dir.z);
    f32 sc, tc, ma;
    if (ax >= ay && ax >= az) {
        ma = ax;
        if (dir.x >= 0.0f) {
            face = 0; sc = -dir.z; tc = -dir.y;
        } else {
            face = 1; sc = dir.z; tc = -dir.y;
        }
    } else if (ay >= ax && ay >= az) {
        ma = ay;
        if (dir.y >= 0.0f) {
            face = 2; sc = dir.x; tc = dir.z;
        } else {
            face = 3; sc = dir.x; tc = -dir.z;
        }
    } else {
        ma = az;
        if (dir.z >= 0.0f) {
            face = 4; sc = dir.x; tc = -dir.y;
        } else {
            face = 5; sc = -dir.x; tc = -dir.y;
        }
    }
    if (ma == 0.0f)
        ma = 1e-20f;
    s = (sc / ma + 1.0f) * 0.5f;
    t = (tc / ma + 1.0f) * 0.5f;
}

namespace
{

/** Convert a sample coordinate to face + normalized (s, t). */
void
resolveCoord(const TextureDescriptor& desc, const Vec4& coord,
             u32& face, f32& s, f32& t)
{
    if (desc.target == TexTarget::Cube) {
        TextureEmulator::cubeFace(coord, face, s, t);
    } else {
        face = 0;
        s = coord.x;
        t = desc.target == TexTarget::Tex1D ? 0.5f : coord.y;
    }
}

/** Append a nearest or bilinear footprint at one mip level. */
void
appendLevelSample(const TextureDescriptor& desc, u32 face, f32 s,
                  f32 t, u8 level, bool linear, f32 weight,
                  SamplePlan& plan)
{
    const MipLevel& mip = desc.mips[face][level];
    const s32 w = static_cast<s32>(mip.width);
    const s32 h = static_cast<s32>(mip.height);
    // Cube faces clamp regardless of the wrap mode.
    const WrapMode ws = desc.target == TexTarget::Cube
                            ? WrapMode::Clamp : desc.wrapS;
    const WrapMode wt = desc.target == TexTarget::Cube
                            ? WrapMode::Clamp : desc.wrapT;

    auto push = [&](s32 x, s32 y, f32 wgt) {
        if (wgt <= 0.0f)
            return;
        TexelRef ref;
        ref.face = static_cast<u8>(face);
        ref.level = level;
        ref.x = static_cast<u16>(
            TextureEmulator::wrap(ws, x, w));
        ref.y = static_cast<u16>(
            TextureEmulator::wrap(wt, y, h));
        u32 bytes = 0;
        ref.address = TextureEmulator::texelAddress(
            desc, ref.face, level, ref.x, ref.y, &bytes);
        ref.bytes = bytes;
        ref.weight = wgt;
        plan.texels.push_back(ref);
    };

    if (!linear) {
        push(static_cast<s32>(std::floor(s * w)),
             static_cast<s32>(std::floor(t * h)), weight);
        return;
    }

    const f32 u = s * static_cast<f32>(w) - 0.5f;
    const f32 v = t * static_cast<f32>(h) - 0.5f;
    const s32 x0 = static_cast<s32>(std::floor(u));
    const s32 y0 = static_cast<s32>(std::floor(v));
    const f32 fx = u - static_cast<f32>(x0);
    const f32 fy = v - static_cast<f32>(y0);
    push(x0, y0, weight * (1.0f - fx) * (1.0f - fy));
    push(x0 + 1, y0, weight * fx * (1.0f - fy));
    push(x0, y0 + 1, weight * (1.0f - fx) * fy);
    push(x0 + 1, y0 + 1, weight * fx * fy);
}

/** Does the min filter interpolate within a level? */
bool
minFilterLinear(MinFilter f)
{
    return f == MinFilter::Linear ||
           f == MinFilter::LinearMipNearest ||
           f == MinFilter::LinearMipLinear;
}

/** Does the min filter blend two mip levels? */
bool
minFilterMipLinear(MinFilter f)
{
    return f == MinFilter::NearestMipLinear ||
           f == MinFilter::LinearMipLinear;
}

/** Does the min filter use mipmaps at all? */
bool
minFilterMipmapped(MinFilter f)
{
    return f != MinFilter::Nearest && f != MinFilter::Linear;
}

/** Mip levels and blend weights one sample touches at @p lod. */
struct LevelSelection
{
    struct LevelWeight { u8 level; f32 weight; };
    LevelWeight levels[2];
    u32 numLevels = 1;
    bool linear = true;
};

LevelSelection
selectLevels(const TextureDescriptor& desc, f32 lod)
{
    LevelSelection sel;
    const u32 maxLevel = desc.levels - 1;
    const bool magnify = lod <= 0.0f;
    sel.linear = magnify ? desc.magLinear
                         : minFilterLinear(desc.minFilter);

    if (magnify || !minFilterMipmapped(desc.minFilter)) {
        sel.levels[0] = {0, 1.0f};
    } else if (minFilterMipLinear(desc.minFilter)) {
        const f32 clamped =
            std::clamp(lod, 0.0f, static_cast<f32>(maxLevel));
        const u32 lo = static_cast<u32>(std::floor(clamped));
        const f32 f = clamped - static_cast<f32>(lo);
        if (lo >= maxLevel || f == 0.0f) {
            sel.levels[0] = {static_cast<u8>(std::min(lo, maxLevel)),
                             1.0f};
        } else {
            sel.levels[0] = {static_cast<u8>(lo), 1.0f - f};
            sel.levels[1] = {static_cast<u8>(lo + 1), f};
            sel.numLevels = 2;
        }
    } else {
        // Mip-nearest.
        const u32 l = static_cast<u32>(std::clamp(
            std::lround(lod), 0l, static_cast<long>(maxLevel)));
        sel.levels[0] = {static_cast<u8>(l), 1.0f};
    }
    return sel;
}

/** fetchTexel with DXT block-decode memoization (same texels). */
Vec4
fetchTexelCached(const TextureDescriptor& desc, u8 face, u8 level,
                 s32 x, s32 y, const MemoryReader& mem,
                 TexBlockCache* cache)
{
    if (!cache || !texFormatCompressed(desc.format)) {
        return TextureEmulator::fetchTexel(desc, face, level, x, y,
                                           mem);
    }
    const MipLevel& mip = desc.mips[face][level];
    const s32 w = static_cast<s32>(mip.width);
    const s32 h = static_cast<s32>(mip.height);
    const u32 xi = static_cast<u32>(
        TextureEmulator::wrap(desc.wrapS, x, w));
    const u32 yi = static_cast<u32>(
        TextureEmulator::wrap(desc.wrapT, y, h));
    u32 unitBytes = 0;
    const u32 addr = TextureEmulator::texelAddress(
        desc, face, level, xi, yi, &unitBytes);
    if (cache->address != addr) {
        u8 block[16];
        mem.read(addr, unitBytes, block);
        if (desc.format == TexFormat::DXT1)
            decodeDxt1Block(block, cache->texels);
        else if (desc.format == TexFormat::DXT3)
            decodeDxt3Block(block, cache->texels);
        else
            decodeDxt5Block(block, cache->texels);
        cache->address = addr;
    }
    return cache->texels[(yi % 4) * 4 + (xi % 4)];
}

} // anonymous namespace

f32
TextureEmulator::quadLod(const TextureDescriptor& desc,
                         const std::array<Vec4, 4>& coords)
{
    u32 face0;
    f32 s[4], t[4];
    for (u32 i = 0; i < 4; ++i) {
        u32 f;
        resolveCoord(desc, coords[i], f, s[i], t[i]);
        if (i == 0)
            face0 = f;
        (void)face0;
    }
    const MipLevel& base = desc.mips[0][0];
    const f32 w = static_cast<f32>(base.width);
    const f32 h = static_cast<f32>(base.height);
    const f32 dudx = (s[1] - s[0]) * w;
    const f32 dvdx = (t[1] - t[0]) * h;
    const f32 dudy = (s[2] - s[0]) * w;
    const f32 dvdy = (t[2] - t[0]) * h;
    const f32 rx = std::sqrt(dudx * dudx + dvdx * dvdx);
    const f32 ry = std::sqrt(dudy * dudy + dvdy * dvdy);
    const f32 rho = std::max(std::max(rx, ry), 1e-6f);
    return std::log2(rho);
}

u32
TextureEmulator::quadAniso(const TextureDescriptor& desc,
                           const std::array<Vec4, 4>& coords)
{
    if (desc.maxAnisotropy <= 1 ||
        desc.target == TexTarget::Tex1D) {
        return 1;
    }
    f32 s[4], t[4];
    for (u32 i = 0; i < 4; ++i) {
        u32 f;
        resolveCoord(desc, coords[i], f, s[i], t[i]);
    }
    const MipLevel& base = desc.mips[0][0];
    const f32 w = static_cast<f32>(base.width);
    const f32 h = static_cast<f32>(base.height);
    const f32 dudx = (s[1] - s[0]) * w;
    const f32 dvdx = (t[1] - t[0]) * h;
    const f32 dudy = (s[2] - s[0]) * w;
    const f32 dvdy = (t[2] - t[0]) * h;
    const f32 rx = std::sqrt(dudx * dudx + dvdx * dvdx);
    const f32 ry = std::sqrt(dudy * dudy + dvdy * dvdy);
    const f32 rmax = std::max(std::max(rx, ry), 1e-6f);
    const f32 rmin = std::max(std::min(rx, ry), 1e-6f);
    const u32 n = static_cast<u32>(std::ceil(rmax / rmin));
    return std::clamp(n, 1u, desc.maxAnisotropy);
}

SamplePlan
TextureEmulator::planSample(const TextureDescriptor& desc,
                            const Vec4& coord, f32 lod, u32 aniso,
                            const Vec4& majorAxis)
{
    SamplePlan plan;
    plan.bilinearOps = 0;

    u32 face;
    f32 s, t;
    resolveCoord(desc, coord, face, s, t);

    const LevelSelection sel = selectLevels(desc, lod);

    const u32 n = std::max(aniso, 1u);
    // One allocation for the whole footprint (4 texels per bilinear
    // level, 1 per nearest one).
    plan.texels.reserve(n * sel.numLevels * (sel.linear ? 4 : 1));
    for (u32 i = 0; i < n; ++i) {
        f32 ss = s, tt = t;
        if (n > 1) {
            const f32 offset =
                (static_cast<f32>(i) + 0.5f) / static_cast<f32>(n) -
                0.5f;
            ss += majorAxis.x * offset;
            tt += majorAxis.y * offset;
        }
        for (u32 li = 0; li < sel.numLevels; ++li) {
            appendLevelSample(desc, face, ss, tt,
                              sel.levels[li].level, sel.linear,
                              sel.levels[li].weight /
                                  static_cast<f32>(n),
                              plan);
            ++plan.bilinearOps;
        }
    }
    // Trilinear charges two bilinear ops per sub-sample, which the
    // loop above already counted (one per level).
    if (plan.bilinearOps == 0)
        plan.bilinearOps = 1;
    return plan;
}

Vec4
TextureEmulator::executePlan(const TextureDescriptor& desc,
                             const SamplePlan& plan,
                             const MemoryReader& mem,
                             TexBlockCache* cache)
{
    Vec4 acc;
    for (const TexelRef& ref : plan.texels) {
        const Vec4 texel =
            fetchTexelCached(desc, ref.face, ref.level, ref.x, ref.y,
                             mem, cache);
        acc = acc + texel * ref.weight;
    }
    return acc;
}

Vec4
TextureEmulator::sample(const TextureDescriptor& desc,
                        const Vec4& coord, f32 lod,
                        const MemoryReader& mem)
{
    return executePlan(desc, planSample(desc, coord, lod), mem);
}

void
TextureEmulator::quadFootprint(const TextureDescriptor& desc,
                               const std::array<Vec4, 4>& coords,
                               f32 lodBias, u32& aniso, f32& lod,
                               Vec4& majorAxis)
{
    aniso = quadAniso(desc, coords);
    lod = quadLod(desc, coords) + lodBias;
    majorAxis = Vec4();
    if (aniso > 1) {
        // Footprint major axis in (s, t) space, and the lod reduced
        // by the sample count along it.
        f32 s[4], t[4];
        for (u32 i = 0; i < 4; ++i) {
            u32 f;
            resolveCoord(desc, coords[i], f, s[i], t[i]);
        }
        const f32 dudx = s[1] - s[0], dvdx = t[1] - t[0];
        const f32 dudy = s[2] - s[0], dvdy = t[2] - t[0];
        const MipLevel& base = desc.mips[0][0];
        const f32 rx = std::hypot(dudx * base.width,
                                  dvdx * base.height);
        const f32 ry = std::hypot(dudy * base.width,
                                  dvdy * base.height);
        majorAxis = rx >= ry ? Vec4(dudx, dvdx, 0, 0)
                             : Vec4(dudy, dvdy, 0, 0);
        lod -= std::log2(static_cast<f32>(aniso));
    }
}

std::array<Vec4, 4>
TextureEmulator::sampleQuad(const TextureDescriptor& desc,
                            const std::array<Vec4, 4>& coords,
                            f32 lodBias, const MemoryReader& mem,
                            u32* bilinearOps)
{
    u32 aniso;
    f32 lod;
    Vec4 majorAxis;
    quadFootprint(desc, coords, lodBias, aniso, lod, majorAxis);

    u32 ops = 0;
    std::array<Vec4, 4> out;
    for (u32 i = 0; i < 4; ++i) {
        const SamplePlan plan =
            planSample(desc, coords[i], lod, aniso, majorAxis);
        out[i] = executePlan(desc, plan, mem);
        ops += plan.bilinearOps;
    }
    if (bilinearOps)
        *bilinearOps = ops;
    return out;
}

void
TextureEmulator::uploadMip(GpuMemory& mem,
                           const TextureDescriptor& desc, u8 face,
                           u8 level, const u8* src, u32 srcBytes)
{
    const MipLevel& mip = desc.mips[face][level];
    if (texFormatCompressed(desc.format)) {
        // Blocks are stored row-major on both sides: straight copy.
        const u32 expect =
            mipStorageBytes(desc.format, mip.width, mip.height);
        if (srcBytes != expect) {
            fatal("texture upload: compressed mip expects ", expect,
                  " bytes, got ", srcBytes);
        }
        mem.write(mip.address, srcBytes, src);
        return;
    }
    const u32 unit = texFormatUnitBytes(desc.format);
    if (srcBytes != mip.width * mip.height * unit) {
        fatal("texture upload: mip expects ",
              mip.width * mip.height * unit, " bytes, got ",
              srcBytes);
    }
    for (u32 y = 0; y < mip.height; ++y) {
        for (u32 x = 0; x < mip.width; ++x) {
            u32 bytes = 0;
            const u32 addr =
                texelAddress(desc, face, level, x, y, &bytes);
            mem.write(addr, unit,
                      src + (y * mip.width + x) * unit);
        }
    }
}

} // namespace attila::emu
