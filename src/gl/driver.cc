#include "gl/driver.hh"

#include <cstring>

#include "sim/logging.hh"

namespace attila::gl
{

GpuMemoryAllocator::GpuMemoryAllocator(u32 base, u32 size)
{
    _blocks.push_back({base, size, true});
}

u32
GpuMemoryAllocator::allocate(u32 bytes)
{
    // 256-byte alignment keeps every object cache-line aligned.
    bytes = (bytes + 255u) & ~255u;
    for (auto it = _blocks.begin(); it != _blocks.end(); ++it) {
        if (!it->free || it->size < bytes)
            continue;
        const u32 addr = it->address;
        if (it->size > bytes) {
            _blocks.insert(std::next(it),
                           {addr + bytes, it->size - bytes, true});
        }
        it->size = bytes;
        it->free = false;
        _allocated += bytes;
        return addr;
    }
    fatal("GPU memory allocator: out of memory allocating ", bytes,
          " bytes (", _allocated, " allocated); raise global.memorySize");
}

void
GpuMemoryAllocator::release(u32 address)
{
    for (auto it = _blocks.begin(); it != _blocks.end(); ++it) {
        if (it->address != address || it->free)
            continue;
        it->free = true;
        _allocated -= it->size;
        // Coalesce with neighbours.
        if (auto next = std::next(it);
            next != _blocks.end() && next->free) {
            it->size += next->size;
            _blocks.erase(next);
        }
        if (it != _blocks.begin()) {
            auto prev = std::prev(it);
            if (prev->free) {
                prev->size += it->size;
                _blocks.erase(it);
            }
        }
        return;
    }
    panic("GPU memory allocator: release of unknown address ",
          address);
}

Driver::Driver(u32 memory_size, u32 fb_bytes)
    : _allocator(fb_bytes, memory_size - fb_bytes)
{
}

gpu::CommandList
Driver::takeCommands()
{
    gpu::CommandList out;
    out.swap(_commands);
    return out;
}

std::vector<u8>
Driver::tileMipImage(emu::TexFormat format, u32 width, u32 height,
                     const u8* src)
{
    const u32 total = emu::mipStorageBytes(format, width, height);
    std::vector<u8> out(total, 0);

    if (emu::texFormatCompressed(format)) {
        // DXT blocks are row-major on both sides.
        std::memcpy(out.data(), src, total);
        return out;
    }

    // Reuse the texel address math with a zero-based descriptor.
    emu::TextureDescriptor desc;
    desc.format = format;
    desc.levels = 1;
    desc.mips[0][0] = {width, height, 1, 0};
    const u32 unit = emu::texFormatUnitBytes(format);
    for (u32 y = 0; y < height; ++y) {
        for (u32 x = 0; x < width; ++x) {
            u32 bytes = 0;
            const u32 addr = emu::TextureEmulator::texelAddress(
                desc, 0, 0, x, y, &bytes);
            std::memcpy(out.data() + addr,
                        src + (y * width + x) * unit, unit);
        }
    }
    return out;
}

void
Driver::emitTextureDescriptor(u32 unit,
                              const emu::TextureDescriptor& desc)
{
    using gpu::Reg;
    using gpu::RegValue;

    writeReg(Reg::TexTarget_,
             RegValue(static_cast<u32>(desc.target)), unit);
    writeReg(Reg::TexFormat_,
             RegValue(static_cast<u32>(desc.format)), unit);
    writeReg(Reg::TexWrapS, RegValue(static_cast<u32>(desc.wrapS)),
             unit);
    writeReg(Reg::TexWrapT, RegValue(static_cast<u32>(desc.wrapT)),
             unit);
    writeReg(Reg::TexMinFilter,
             RegValue(static_cast<u32>(desc.minFilter)), unit);
    writeReg(Reg::TexMagLinear,
             RegValue(static_cast<u32>(desc.magLinear ? 1 : 0)),
             unit);
    writeReg(Reg::TexMaxAniso, RegValue(desc.maxAnisotropy), unit);
    writeReg(Reg::TexLevels, RegValue(desc.levels), unit);

    const u32 faces =
        desc.target == emu::TexTarget::Cube ? 6u : 1u;
    for (u32 face = 0; face < faces; ++face) {
        for (u32 level = 0; level < desc.levels; ++level) {
            // Index packing: (face * maxTextureUnits + unit) *
            // maxMipLevels + level (see applyRegister()).
            const u32 idx =
                (face * gpu::maxTextureUnits + unit) *
                    emu::maxMipLevels +
                level;
            const emu::MipLevel& mip = desc.mips[face][level];
            writeReg(Reg::TexMipAddress, RegValue(mip.address),
                     idx);
            writeReg(Reg::TexMipWidth, RegValue(mip.width), idx);
            writeReg(Reg::TexMipHeight, RegValue(mip.height), idx);
        }
    }
}

} // namespace attila::gl
