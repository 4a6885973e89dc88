/**
 * @file
 * Byte-addressable memory abstractions shared by the functional
 * emulators and the timing model.
 *
 * The execution-driven design keeps all rendering data (vertex
 * buffers, textures, framebuffers) in one flat GPU memory image.  The
 * timing path moves the same bytes through caches and the memory
 * controller; functional paths (reference renderer, texture
 * emulator tests) read the image directly through MemoryReader.
 *
 * The image is committed on first touch: GpuMemory takes zeroed
 * storage from std::calloc, which a C library serves for large sizes
 * from a fresh anonymous mapping whose pages the OS zero-fills when
 * they are first read or written.  Constructing a 64 MB image is
 * therefore O(1), and resident memory is roughly the pages a frame
 * actually touches.  The zero-fill page faults land inside the
 * simulated run instead of the constructor, which measured within
 * noise of simbench's sim_khz.
 */

#ifndef ATTILA_EMU_MEMORY_HH
#define ATTILA_EMU_MEMORY_HH

#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <utility>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace attila::emu
{

/** Read-only view of byte-addressable memory. */
class MemoryReader
{
  public:
    virtual ~MemoryReader() = default;

    /** Copy @p size bytes at @p addr into @p out. */
    virtual void read(u32 addr, u32 size, u8* out) const = 0;

    /** Convenience typed read. */
    template <typename T>
    T
    readAs(u32 addr) const
    {
        T v;
        read(addr, sizeof(T), reinterpret_cast<u8*>(&v));
        return v;
    }
};

/** Flat memory image: the GPU local memory.  Move-only. */
class GpuMemory : public MemoryReader
{
  public:
    /** @param size Memory size in bytes; the image reads as zero. */
    explicit GpuMemory(u32 size) : _data(allocateZeroed(size)), _size(size)
    {
    }

    /** A moved-from image is empty (size 0). */
    GpuMemory(GpuMemory&& other) noexcept
        : _data(std::move(other._data)),
          _size(std::exchange(other._size, 0))
    {
    }

    GpuMemory&
    operator=(GpuMemory&& other) noexcept
    {
        _data = std::move(other._data);
        _size = std::exchange(other._size, 0);
        return *this;
    }

    u32 size() const { return _size; }

    void
    read(u32 addr, u32 size, u8* out) const override
    {
        checkRange(addr, size);
        std::memcpy(out, _data.get() + addr, size);
    }

    /** Write @p size bytes from @p src at @p addr. */
    void
    write(u32 addr, u32 size, const u8* src)
    {
        checkRange(addr, size);
        std::memcpy(_data.get() + addr, src, size);
    }

    template <typename T>
    void
    writeAs(u32 addr, const T& v)
    {
        write(addr, sizeof(T), reinterpret_cast<const u8*>(&v));
    }

    /** Raw pointer access for bulk operations (e.g. the DAC dump). */
    const u8* data() const { return _data.get(); }
    u8* data() { return _data.get(); }

  private:
    struct Free
    {
        void operator()(u8* p) const { std::free(p); }
    };

    static std::unique_ptr<u8[], Free>
    allocateZeroed(u32 size)
    {
        // calloc(0) may return null; one byte keeps the pointer valid.
        auto* p = static_cast<u8*>(std::calloc(size ? size : 1, 1));
        if (!p)
            throw std::bad_alloc();
        return std::unique_ptr<u8[], Free>(p);
    }

    void
    checkRange(u32 addr, u32 size) const
    {
        if (addr + static_cast<u64>(size) > _size) {
            panic("GPU memory access out of range: addr ", addr,
                  " size ", size, " memory ", _size);
        }
    }

    std::unique_ptr<u8[], Free> _data;
    u32 _size;
};

} // namespace attila::emu

#endif // ATTILA_EMU_MEMORY_HH
