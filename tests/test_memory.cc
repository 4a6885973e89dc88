/**
 * @file
 * Tests for the GPU memory image (emu::GpuMemory): zeroed initial
 * contents, range checks, and that the image is committed on first
 * touch rather than when it is constructed.
 */

#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <unistd.h>

#include "emu/memory.hh"
#include "gpu/gpu.hh"

using namespace attila;
using namespace attila::emu;

namespace
{

/** Resident pages of this process from /proc/self/statm, or -1. */
long
residentPages()
{
    std::ifstream statm("/proc/self/statm");
    long size = 0;
    long resident = 0;
    if (!(statm >> size >> resident))
        return -1;
    return resident;
}

/** The SimError text thrown by @p access, or "" if it did not throw. */
template <typename F>
std::string
panicText(F access)
{
    try {
        access();
    } catch (const SimError& e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(GpuMemory, FreshImageReadsZero)
{
    const u32 size = 1u << 20;
    GpuMemory mem(size);
    EXPECT_EQ(mem.size(), size);
    EXPECT_EQ(mem.readAs<u8>(0), 0u);
    EXPECT_EQ(mem.readAs<u8>(size / 2), 0u);
    EXPECT_EQ(mem.readAs<u8>(size - 1), 0u);
    EXPECT_EQ(mem.readAs<u32>(size - 4), 0u);
}

TEST(GpuMemory, RoundTripAtLastValidAddress)
{
    const u32 size = 4096;
    GpuMemory mem(size);
    mem.writeAs<u32>(size - 4, 0xdeadbeefu);
    EXPECT_EQ(mem.readAs<u32>(size - 4), 0xdeadbeefu);
    mem.writeAs<u8>(size - 1, 0x5a);
    EXPECT_EQ(mem.readAs<u8>(size - 1), 0x5au);
    EXPECT_EQ(mem.data()[size - 1], 0x5au);
    EXPECT_EQ(mem.readAs<u8>(0), 0u);
}

TEST(GpuMemory, OutOfRangeAccessPanicsNamingAddrSizeAndMemory)
{
    GpuMemory mem(4096);
    u8 buf[8] = {};
    const std::string expected =
        "panic: GPU memory access out of range: addr 4093 size 4 "
        "memory 4096";
    EXPECT_EQ(panicText([&] { mem.read(4093, 4, buf); }), expected);
    EXPECT_EQ(panicText([&] { mem.write(4093, 4, buf); }), expected);
    // addr + size must not wrap around 32 bits.
    EXPECT_NE(panicText([&] { mem.read(0xffffffffu, 2, buf); }), "");
    EXPECT_NE(panicText([&] { mem.write(4096, 1, buf); }), "");
}

TEST(GpuMemory, ZeroSizeImageConstructs)
{
    std::unique_ptr<GpuMemory> mem;
    ASSERT_NO_THROW(mem = std::make_unique<GpuMemory>(0));
    EXPECT_EQ(mem->size(), 0u);
    u8 byte = 0;
    EXPECT_NE(panicText([&] { mem->read(0, 1, &byte); }), "");
}

TEST(GpuMemory, MoveLeavesSourceEmpty)
{
    GpuMemory a(4096);
    a.writeAs<u32>(8, 42);
    GpuMemory b(std::move(a));
    EXPECT_EQ(b.size(), 4096u);
    EXPECT_EQ(b.readAs<u32>(8), 42u);
    EXPECT_EQ(a.size(), 0u);
    u8 byte = 0;
    EXPECT_NE(panicText([&] { a.read(8, 1, &byte); }), "");
}

TEST(GpuMemory, ConstructingGpuDoesNotCommitTheImage)
{
    if (residentPages() < 0)
        GTEST_SKIP() << "/proc/self/statm is not available";
    const gpu::GpuConfig config;
    ASSERT_EQ(config.memorySize, 64u << 20);
    // Warm up once so code pages and allocator arenas the constructor
    // touches for the first time are already resident.
    { gpu::Gpu warm(config); }

    const long before = residentPages();
    gpu::Gpu gpu(config);
    const long after = residentPages();
    const long page = sysconf(_SC_PAGESIZE);
    EXPECT_LT((after - before) * page, 8l << 20)
        << "constructing a Gpu with a " << (config.memorySize >> 20)
        << " MB image made " << (after - before) << " pages resident";
    EXPECT_EQ(gpu.memory().readAs<u32>(config.memorySize - 4), 0u);
}
