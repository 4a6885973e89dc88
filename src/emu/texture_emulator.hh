/**
 * @file
 * TextureEmulator: texture address computation, format conversion,
 * level-of-detail selection, filtering and compressed-texture
 * decompression (paper §3).
 *
 * The emulator is split into a *planning* step (which texels does
 * this sample touch, with which weights) and an *execution* step
 * (fetch those texels through a MemoryReader and blend).  The timing
 * TextureUnit uses the plan to drive its cache; functional paths
 * execute plans directly against GPU memory.
 */

#ifndef ATTILA_EMU_TEXTURE_EMULATOR_HH
#define ATTILA_EMU_TEXTURE_EMULATOR_HH

#include <array>
#include <vector>

#include "emu/memory.hh"
#include "emu/shader_isa.hh"
#include "emu/vector.hh"

namespace attila::emu
{

/** Texel storage formats supported in GPU memory. */
enum class TexFormat : u8
{
    RGBA8, ///< 4 bytes/texel, tiled 8x8.
    LUM8,  ///< 1 byte/texel replicated to rgb, alpha 1.
    ALPHA8,///< 1 byte/texel alpha, rgb 0.
    DXT1,  ///< 8-byte 4x4 blocks (BC1).
    DXT3,  ///< 16-byte 4x4 blocks (BC2).
    DXT5,  ///< 16-byte 4x4 blocks (BC3).
};

/** Texture coordinate wrap modes. */
enum class WrapMode : u8 { Repeat, Clamp, Mirror };

/** Minification filter (magnification uses nearest/linear only). */
enum class MinFilter : u8
{
    Nearest,
    Linear,
    NearestMipNearest,
    LinearMipNearest,
    NearestMipLinear,
    LinearMipLinear, ///< Trilinear.
};

/** One mipmap level's placement in GPU memory. */
struct MipLevel
{
    u32 width = 0;
    u32 height = 0;
    u32 depth = 1; ///< 3D textures only; slices share one level.
    u32 address = 0;
};

/** Maximum mip chain length (supports up to 4096x4096). */
constexpr u32 maxMipLevels = 13;

/**
 * GPU-level texture descriptor: everything the Texture Unit needs to
 * sample (the contents of the texture state registers).
 */
struct TextureDescriptor
{
    TexTarget target = TexTarget::Tex2D;
    TexFormat format = TexFormat::RGBA8;
    WrapMode wrapS = WrapMode::Repeat;
    WrapMode wrapT = WrapMode::Repeat;
    MinFilter minFilter = MinFilter::LinearMipLinear;
    bool magLinear = true;
    u32 maxAnisotropy = 1; ///< 1 disables anisotropic filtering.
    u32 levels = 1;        ///< Mip levels present.
    /** [face][level]; non-cube targets use face 0. */
    std::array<std::array<MipLevel, maxMipLevels>, 6> mips{};
};

/** Bytes per texel of an uncompressed format (DXT: per block). */
u32 texFormatUnitBytes(TexFormat fmt);

/** True for block-compressed formats. */
bool texFormatCompressed(TexFormat fmt);

/**
 * Size in bytes of one mip level image with the GPU memory layout
 * (8x8-texel tiles for uncompressed formats, row-major 4x4 blocks
 * for DXT).
 */
u32 mipStorageBytes(TexFormat fmt, u32 width, u32 height);

/** One texel reference inside a sample plan. */
struct TexelRef
{
    u32 address = 0; ///< Byte address of the texel (or its block).
    u32 bytes = 0;   ///< Texel or block size in bytes.
    u8 face = 0;
    u8 level = 0;
    u16 x = 0;       ///< Texel coordinates within the level.
    u16 y = 0;
    f32 weight = 0.0f;
};

/** The set of texels one filtered sample touches. */
struct SamplePlan
{
    std::vector<TexelRef> texels;
    /**
     * Number of bilinear-equivalent filter operations: 1 for
     * nearest/bilinear, 2 for trilinear, N (or 2N) for anisotropic.
     * The Texture Unit charges one cycle per bilinear operation
     * (paper: one bilinear sample per cycle, trilinear every two).
     */
    u32 bilinearOps = 1;
};

/**
 * One decoded compressed block, memoized across the texel fetches of
 * a sample or quad (bilinear corners land in the same 4x4 DXT block
 * most of the time, and the per-texel decode dominates the fetch).
 * Pure memoization: fetch results are bit-identical with or without
 * a cache.
 */
struct TexBlockCache
{
    static constexpr u32 invalidAddress = ~0u;
    u32 address = invalidAddress;
    Vec4 texels[16];
};

/**
 * Texture sampling emulation.  Stateless; all inputs are explicit.
 */
class TextureEmulator
{
  public:
    /**
     * Compute the level-of-detail for a 2x2 fragment quad from the
     * texture coordinates of its four fragments (standard derivative
     * estimate, ARB semantics).  Valid for 2D and cube targets.
     */
    static f32 quadLod(const TextureDescriptor& desc,
                       const std::array<Vec4, 4>& coords);

    /**
     * Anisotropy ratio of the quad footprint, clamped to
     * desc.maxAnisotropy (1 = isotropic).
     */
    static u32 quadAniso(const TextureDescriptor& desc,
                         const std::array<Vec4, 4>& coords);

    /**
     * Plan a filtered sample at @p coord with level-of-detail
     * @p lod (already biased).  @p aniso is the sample count along
     * the anisotropic axis (1 = isotropic); the axis is estimated
     * from @p majorAxis (du, dv per step), pass (0,0,0,0) when
     * aniso == 1.
     */
    static SamplePlan planSample(const TextureDescriptor& desc,
                                 const Vec4& coord, f32 lod,
                                 u32 aniso = 1,
                                 const Vec4& majorAxis = Vec4());

    /** Fetch and blend the texels of @p plan.  @p cache, when given,
     * memoizes the last decoded DXT block (same texels, fewer
     * decodes — share one across a quad's four plans). */
    static Vec4 executePlan(const TextureDescriptor& desc,
                            const SamplePlan& plan,
                            const MemoryReader& mem,
                            TexBlockCache* cache = nullptr);

    /**
     * Full footprint analysis of a quad: anisotropy sample count,
     * (aniso-adjusted) level-of-detail and the major axis step in
     * (s, t) space.  The Texture Unit uses this to plan the quad's
     * four samples.
     */
    static void quadFootprint(const TextureDescriptor& desc,
                              const std::array<Vec4, 4>& coords,
                              f32 lodBias, u32& aniso, f32& lod,
                              Vec4& majorAxis);

    /** Convenience: plan + execute. */
    static Vec4 sample(const TextureDescriptor& desc,
                       const Vec4& coord, f32 lod,
                       const MemoryReader& mem);

    /**
     * Full quad sample as the Texture Unit performs it: derive lod
     * and anisotropy from the quad, apply @p lodBias, sample all four
     * fragments.  Returns the total bilinear operation count in
     * @p bilinearOps (for timing).
     */
    static std::array<Vec4, 4>
    sampleQuad(const TextureDescriptor& desc,
               const std::array<Vec4, 4>& coords, f32 lodBias,
               const MemoryReader& mem, u32* bilinearOps = nullptr);

    /** Decode one texel straight from memory (nearest, no filter). */
    static Vec4 fetchTexel(const TextureDescriptor& desc, u8 face,
                           u8 level, s32 x, s32 y,
                           const MemoryReader& mem);

    /** Byte address of texel (x, y) of a mip level (uncompressed) or
     * of its 4x4 block (DXT). */
    static u32 texelAddress(const TextureDescriptor& desc, u8 face,
                            u8 level, u32 x, u32 y, u32* bytes);

    /**
     * Map a cube-map direction to (face, s, t) per the OpenGL cube
     * map rules.
     */
    static void cubeFace(const Vec4& dir, u32& face, f32& s, f32& t);

    /** Apply a wrap mode to a texel index. */
    static s32 wrap(WrapMode mode, s32 coord, s32 size);

    /**
     * Store a CPU-side image (tightly packed rows, RGBA8 or raw DXT
     * blocks) into GPU memory with the tiled/blocked device layout.
     */
    static void uploadMip(GpuMemory& mem, const TextureDescriptor& d,
                          u8 face, u8 level, const u8* src,
                          u32 srcBytes);
};

/** Decode a DXT1 block (8 bytes) into 16 RGBA texels. */
void decodeDxt1Block(const u8* block, Vec4 out[16]);
/** Decode a DXT3 block (16 bytes) into 16 RGBA texels. */
void decodeDxt3Block(const u8* block, Vec4 out[16]);
/** Decode a DXT5 block (16 bytes) into 16 RGBA texels. */
void decodeDxt5Block(const u8* block, Vec4 out[16]);

} // namespace attila::emu

#endif // ATTILA_EMU_TEXTURE_EMULATOR_HH
