/**
 * @file
 * Unit tests for the memory controller and the framebuffer caches,
 * driven through a harness box.
 */

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <gtest/gtest.h>

#include "gpu/cache.hh"
#include "gpu/color_write.hh"
#include "gpu/z_stencil_test.hh"
#include "gpu/memory_controller.hh"
#include "sim/simulator.hh"

using namespace attila;
using namespace attila::gpu;

namespace
{

/** Heap allocations made through operator new in this program. */
std::atomic<u64> gAllocations{0};

} // anonymous namespace

// The replacements stay out of line: inlined into a caller, GCC sees
// free() release memory that came from operator new and warns
// (-Wmismatched-new-delete), though both ends are these functions.
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

/** Host box owning a MemPort (and optionally a cache). */
class ClientBox : public sim::Box
{
  public:
    ClientBox(sim::SignalBinder& binder, sim::StatisticManager& stats,
              const GpuConfig& config, const std::string& port)
        : Box(binder, stats, "client")
    {
        mem.init(*this, binder, port, config.memoryRequestQueue);
        wake();
    }

    sim::Next
    update(Cycle cycle) override
    {
        mem.clock(cycle);
        if (tick)
            tick(cycle);
        return sim::Next::runs();
    }

    MemPort mem;
    std::function<void(Cycle)> tick;
};

struct McHarness
{
    explicit McHarness(GpuConfig cfg = GpuConfig::baseline())
        : config(cfg), memory(1 << 20)
    {
        client = std::make_unique<ClientBox>(
            sim.binder(), sim.stats(), config, "mc.test");
        mc = std::make_unique<MemoryController>(
            sim.binder(), sim.stats(), config, memory,
            std::vector<std::string>{"mc.test"});
        sim.addBox(client.get());
        sim.addBox(mc.get());
    }

    GpuConfig config;
    emu::GpuMemory memory;
    sim::Simulator sim;
    std::unique_ptr<ClientBox> client;
    std::unique_ptr<MemoryController> mc;
};

} // anonymous namespace

TEST(MemoryController, WriteThenReadRoundTrip)
{
    McHarness h;

    std::array<u8, memMaxTransactionBytes> payload;
    for (u32 i = 0; i < 256; ++i)
        payload[i] = static_cast<u8>(i ^ 0x5a);

    MemTransactionPtr response;
    h.client->tick = [&](Cycle cycle) {
        static bool wroteSent = false;
        static bool readSent = false;
        while (h.client->mem.hasResponse()) {
            auto txn = h.client->mem.popResponse(cycle);
            if (txn->isRead)
                response = txn;
        }
        if (!wroteSent && h.client->mem.canRequest(cycle)) {
            auto txn = std::make_shared<MemTransaction>();
            txn->isRead = false;
            txn->address = 0x1000;
            txn->size = 256;
            txn->data = payload;
            h.client->mem.request(cycle, txn);
            wroteSent = true;
        } else if (wroteSent && !readSent && response == nullptr &&
                   h.client->mem.idle() &&
                   h.client->mem.canRequest(cycle)) {
            auto txn = std::make_shared<MemTransaction>();
            txn->isRead = true;
            txn->address = 0x1000;
            txn->size = 256;
            h.client->mem.request(cycle, txn);
            readSent = true;
        }
    };

    for (u32 i = 0; i < 500 && !response; ++i)
        h.sim.step();
    ASSERT_NE(response, nullptr);
    EXPECT_EQ(response->data, payload);
    // Functional memory also holds the bytes.
    u8 probe = 0;
    h.memory.read(0x1000 + 17, 1, &probe);
    EXPECT_EQ(probe, static_cast<u8>(17 ^ 0x5a));
}

TEST(MemoryController, BandwidthBound)
{
    // Reading N bytes through C channels of B bytes/cycle takes at
    // least N / (C*B) cycles.
    McHarness h;
    const u32 totalBytes = 16 * 256;
    u32 responses = 0;
    u32 sent = 0;
    h.client->tick = [&](Cycle cycle) {
        while (h.client->mem.hasResponse()) {
            h.client->mem.popResponse(cycle);
            ++responses;
        }
        while (sent < 16 && h.client->mem.canRequest(cycle)) {
            auto txn = std::make_shared<MemTransaction>();
            txn->isRead = true;
            txn->address = sent * 256;
            txn->size = 256;
            h.client->mem.request(cycle, txn);
            ++sent;
        }
    };
    u64 cycles = 0;
    while (responses < 16 && cycles < 5000) {
        h.sim.step();
        ++cycles;
    }
    ASSERT_EQ(responses, 16u);
    const u64 minCycles = totalBytes /
                          (h.config.memoryChannels *
                           h.config.channelBytesPerCycle);
    EXPECT_GE(cycles, minCycles);
    // And not paying more than ~4x overhead for page/turnaround.
    EXPECT_LE(cycles, minCycles * 6);
    EXPECT_EQ(h.mc->totalBytes(), totalBytes);
}

TEST(MemoryController, ChannelInterleaving)
{
    McHarness h;
    // Consecutive 256-byte stripes map to consecutive channels.
    const auto* stat =
        h.sim.stats().find("MemoryController.pageOpens");
    ASSERT_NE(stat, nullptr);
    // (Smoke check through the stat interface; detailed mapping is
    // architectural: addr / 256 % channels.)
    GpuConfig cfg;
    EXPECT_EQ((0 / cfg.channelInterleave) % cfg.memoryChannels, 0u);
    EXPECT_EQ((256 / cfg.channelInterleave) % cfg.memoryChannels,
              1u);
    EXPECT_EQ((1024 / cfg.channelInterleave) % cfg.memoryChannels,
              0u);
}

// ===== FbCache ======================================================

namespace
{

struct CacheHarness
{
    explicit CacheHarness(
        FbCache::Config cfg = FbCache::Config{16, 4, 256, 4, 4})
        : h(),
          cache("testcache", cfg,
                h.sim.stats().get("cache", "hits"),
                h.sim.stats().get("cache", "misses"))
    {
        h.client->tick = [this](Cycle cycle) {
            cache.clock(cycle, h.client->mem, MemClient::ZCache);
            if (step)
                step(cycle);
        };
    }

    void
    run(u32 cycles)
    {
        for (u32 i = 0; i < cycles; ++i)
            h.sim.step();
    }

    McHarness h;
    FbCache cache;
    std::function<void(Cycle)> step;
};

} // anonymous namespace

TEST(FbCache, Geometry)
{
    CacheHarness ch;
    EXPECT_EQ(ch.cache.lineCount(), 64u); // 16KB / 256B.
    EXPECT_EQ(ch.cache.sets(), 16u);
    EXPECT_EQ(ch.cache.ways(), 4u);
}

TEST(FbCache, MissThenHit)
{
    CacheHarness ch;
    // Seed memory.
    for (u32 i = 0; i < 256; ++i)
        ch.h.memory.data()[0x2000 + i] = static_cast<u8>(i);

    CacheAccess first = CacheAccess::Blocked;
    CacheAccess eventual = CacheAccess::Blocked;
    ch.step = [&](Cycle cycle) {
        const CacheAccess a = ch.cache.access(cycle, 0x2010, false);
        if (first == CacheAccess::Blocked)
            first = a;
        eventual = a;
    };
    ch.run(100);
    EXPECT_EQ(first, CacheAccess::Miss);
    EXPECT_EQ(eventual, CacheAccess::Hit);
    EXPECT_EQ(*ch.cache.wordPtr(0x2010), 0x10);
}

TEST(FbCache, WritebackOnEviction)
{
    CacheHarness ch;
    // Fill one set beyond its ways with dirty lines; evicted dirty
    // data must land in memory.
    // Lines mapping to set 0: addresses k * 16 * 256.
    std::vector<u32> addrs;
    for (u32 k = 0; k < 6; ++k)
        addrs.push_back(k * 16 * 256);

    u32 phase = 0;
    ch.step = [&](Cycle cycle) {
        if (phase >= addrs.size())
            return;
        const CacheAccess a =
            ch.cache.access(cycle, addrs[phase], true);
        if (a == CacheAccess::Hit) {
            *ch.cache.wordPtr(addrs[phase]) =
                static_cast<u8>(0xc0 + phase);
            ch.cache.markDirty(addrs[phase]);
            ++phase;
        }
    };
    ch.run(600);
    ASSERT_EQ(phase, addrs.size());
    // Wait for pending writebacks.
    ch.step = nullptr;
    ch.run(200);
    // The first two lines were evicted (6 > 4 ways): their bytes
    // must be in memory now.
    EXPECT_EQ(ch.h.memory.data()[addrs[0]], 0xc0);
    EXPECT_EQ(ch.h.memory.data()[addrs[1]], 0xc1);
}

TEST(FbCache, FlushWritesAllDirtyLines)
{
    CacheHarness ch;
    u32 phase = 0;
    bool flushed = false;
    ch.step = [&](Cycle cycle) {
        if (phase < 3) {
            const u32 addr = phase * 256;
            if (ch.cache.access(cycle, addr, true) ==
                CacheAccess::Hit) {
                *ch.cache.wordPtr(addr) = static_cast<u8>(9 + phase);
                ch.cache.markDirty(addr);
                ++phase;
            }
        } else if (!flushed) {
            flushed = ch.cache.flushStep(cycle, ch.h.client->mem,
                                         MemClient::ZCache);
        }
    };
    ch.run(800);
    ASSERT_TRUE(flushed);
    EXPECT_EQ(ch.h.memory.data()[0], 9);
    EXPECT_EQ(ch.h.memory.data()[256], 10);
    EXPECT_EQ(ch.h.memory.data()[512], 11);
}

TEST(FbCache, PortLimit)
{
    CacheHarness ch;
    bool done = false;
    ch.step = [&](Cycle cycle) {
        if (done)
            return;
        // Warm one line.
        if (ch.cache.access(cycle, 0, false) != CacheAccess::Hit)
            return;
        // 4 ports: the 4th extra access this cycle must block.
        EXPECT_EQ(ch.cache.access(cycle, 0, false),
                  CacheAccess::Hit);
        EXPECT_EQ(ch.cache.access(cycle, 0, false),
                  CacheAccess::Hit);
        EXPECT_EQ(ch.cache.access(cycle, 0, false),
                  CacheAccess::Hit);
        EXPECT_EQ(ch.cache.access(cycle, 0, false),
                  CacheAccess::Blocked);
        done = true;
    };
    ch.run(100);
    EXPECT_TRUE(done);
}

TEST(FbCache, ClearedBlockBackingNeedsNoMemory)
{
    // A ZStencilBacking with a cleared block state fills lines
    // locally.
    McHarness h;
    ZStencilBacking backing;
    backing.bufferBase = 0;
    backing.clearWord = emu::packDepthStencil(12345, 7);
    backing.blocks.assign(64, BlockState::Cleared);
    FbCache cache("zc", FbCache::Config{16, 4, 256, 4, 4},
                  h.sim.stats().get("zc", "hits"),
                  h.sim.stats().get("zc", "misses"), &backing);

    bool hit = false;
    h.client->tick = [&](Cycle cycle) {
        cache.clock(cycle, h.client->mem, MemClient::ZCache);
        if (!hit &&
            cache.access(cycle, 0x100, false) == CacheAccess::Hit) {
            hit = true;
            u32 word;
            std::memcpy(&word, cache.wordPtr(0x100), 4);
            EXPECT_EQ(word, backing.clearWord);
        }
    };
    for (u32 i = 0; i < 50 && !hit; ++i)
        h.sim.step();
    EXPECT_TRUE(hit);
    // No memory traffic for the cleared fill.
    EXPECT_EQ(h.mc->totalBytes(), 0u);
}

TEST(FbCache, CompressedWritebackShrinksTraffic)
{
    McHarness h;
    ZStencilBacking backing;
    backing.bufferBase = 0;
    backing.clearWord = emu::packDepthStencil(1000, 0);
    backing.blocks.assign(64, BlockState::Cleared);
    backing.compressionEnabled = true;

    FbCache cache("zc", FbCache::Config{16, 4, 256, 4, 4},
                  h.sim.stats().get("zc", "hits"),
                  h.sim.stats().get("zc", "misses"), &backing);

    u32 phase = 0;
    bool flushed = false;
    h.client->tick = [&](Cycle cycle) {
        cache.clock(cycle, h.client->mem, MemClient::ZCache);
        if (phase == 0) {
            if (cache.access(cycle, 0, true) == CacheAccess::Hit) {
                // A uniform (clear-value) tile: compresses 1:4.
                cache.markDirty(0);
                phase = 1;
            }
        } else if (!flushed) {
            flushed = cache.flushStep(cycle, h.client->mem,
                                      MemClient::ZCache);
        }
    };
    for (u32 i = 0; i < 400 && !flushed; ++i)
        h.sim.step();
    ASSERT_TRUE(flushed);
    // 64 bytes written, not 256.
    EXPECT_EQ(h.mc->totalBytes(), 64u);
    EXPECT_EQ(backing.stateOf(0), BlockState::CompQuarter);
    ASSERT_EQ(backing.hzUpdates.size(), 1u);
    EXPECT_EQ(backing.hzUpdates.front().tileIndex, 0u);
    EXPECT_NEAR(backing.hzUpdates.front().maxZ,
                1000.0f / emu::maxDepthValue, 1e-6);
}

TEST(FbCache, SteadyStateCompressedZAllocatesNothing)
{
    // The Z backing's writeback (compress) and fill (decompress) work
    // in the cache's buffers: once the refinement ring has its
    // storage, a stream of compressed writebacks and fills makes no
    // heap allocation at all.
    ZStencilBacking backing;
    backing.bufferBase = 0;
    backing.blocks.assign(2, BlockState::Uncompressed);
    backing.compressionEnabled = true;

    std::array<std::array<u32, emu::zTileWords>, 2> tiles;
    for (u32 i = 0; i < emu::zTileWords; ++i) {
        const u32 depth = 100000 + 37 * (i % 8) + 11 * (i / 8);
        tiles[0][i] = emu::packDepthStencil(depth, 5);
        tiles[1][i] = tiles[0][i];
    }
    // A residual too wide for 1:4: the second tile stores at 1:2.
    tiles[1][27] =
        emu::packDepthStencil(emu::depthOf(tiles[1][27]) + 4000, 5);

    std::array<u8, fbTileBytes> stored;
    std::array<u8, fbTileBytes> line;
    bool decodedAlike = true;
    auto round = [&] {
        for (u32 t = 0; t < 2; ++t) {
            const u32 addr = t * fbTileBytes;
            const auto* data = reinterpret_cast<const u8*>(tiles[t].data());
            const u32 size = backing.writeback(addr, data, stored.data());
            backing.fillFromMemory(addr, stored.data(), size,
                                   line.data());
            decodedAlike &=
                std::memcmp(line.data(), data, fbTileBytes) == 0;
            backing.hzUpdates.pop_front();
        }
    };
    round(); // Warm-up.
    const u64 before = gAllocations.load();
    for (u32 i = 0; i < 100; ++i)
        round();
    EXPECT_EQ(gAllocations.load() - before, 0u);
    EXPECT_TRUE(decodedAlike);
    EXPECT_EQ(backing.stateOf(0), BlockState::CompQuarter);
    EXPECT_EQ(backing.stateOf(fbTileBytes), BlockState::CompHalf);
}

TEST(FbCache, ColorTileDecodesAlikeInEveryBlockState)
{
    // One uniform colour tile stored three ways: fast-cleared (no
    // memory backing), written back at 1:4 (one stored word) and
    // uncompressed.  The colour cache's fill and the DAC's
    // resolveTile() share the backing's fill path; every state must
    // decode to the same 64 words through both.
    McHarness h;
    const u32 base = 0x1000;
    const u32 colour = 0x80402010u;
    const u32 stale = 0xdeadbeefu;
    ColorBacking backing;
    backing.bufferBase = base;
    backing.clearWord = colour;
    backing.blocks.assign(3, BlockState::Cleared);
    backing.blocks[1] = BlockState::CompQuarter;
    backing.blocks[2] = BlockState::Uncompressed;
    for (u32 w = 0; w < fbTilePixels; ++w) {
        h.memory.writeAs<u32>(base + w * 4, stale);
        h.memory.writeAs<u32>(base + fbTileBytes + w * 4,
                              w == 0 ? colour : stale);
        h.memory.writeAs<u32>(base + 2 * fbTileBytes + w * 4, colour);
    }
    std::array<u32, fbTilePixels> expected;
    expected.fill(colour);

    for (u32 block = 0; block < 3; ++block) {
        std::array<u32, fbTilePixels> tile{};
        backing.resolveTile(base + block * fbTileBytes, h.memory,
                            reinterpret_cast<u8*>(tile.data()));
        EXPECT_EQ(tile, expected) << "resolved block " << block;
    }

    FbCache cache("cc", FbCache::Config{16, 4, fbTileBytes, 4, 4},
                  h.sim.stats().get("cc", "hits"),
                  h.sim.stats().get("cc", "misses"), &backing);
    u32 block = 0;
    h.client->tick = [&](Cycle cycle) {
        cache.clock(cycle, h.client->mem, MemClient::ColorCache);
        const u32 lineAddr = base + block * fbTileBytes;
        if (block < 3 && cache.access(cycle, lineAddr, false) ==
                             CacheAccess::Hit) {
            std::array<u32, fbTilePixels> line;
            std::memcpy(line.data(), cache.wordPtr(lineAddr),
                        fbTileBytes);
            EXPECT_EQ(line, expected) << "cached block " << block;
            ++block;
        }
    };
    for (u32 i = 0; i < 400 && block < 3; ++i)
        h.sim.step();
    EXPECT_EQ(block, 3u);
    // Only the 1:4 word block and the uncompressed tile are fetched.
    EXPECT_EQ(h.mc->totalBytes(), fbTileBytes / 4 + fbTileBytes);
}

TEST(FbCache, MaxOutstandingSaturationBlocks)
{
    // maxOutstanding = 4: a 5th concurrent miss must report Blocked
    // until a fill slot frees up, then succeed.
    CacheHarness ch;
    bool checked = false;
    bool fifthServed = false;
    ch.step = [&](Cycle cycle) {
        if (!checked) {
            // 5 distinct lines in 5 distinct sets; misses consume
            // MSHR slots, not ports.
            EXPECT_EQ(ch.cache.access(cycle, 0x000, false),
                      CacheAccess::Miss);
            EXPECT_EQ(ch.cache.access(cycle, 0x100, false),
                      CacheAccess::Miss);
            EXPECT_EQ(ch.cache.access(cycle, 0x200, false),
                      CacheAccess::Miss);
            EXPECT_EQ(ch.cache.access(cycle, 0x300, false),
                      CacheAccess::Miss);
            EXPECT_EQ(ch.cache.access(cycle, 0x400, false),
                      CacheAccess::Blocked);
            checked = true;
        } else if (!fifthServed) {
            fifthServed = ch.cache.access(cycle, 0x400, false) ==
                          CacheAccess::Hit;
        }
    };
    ch.run(200);
    EXPECT_TRUE(checked);
    EXPECT_TRUE(fifthServed);
}

TEST(FbCache, EvictionNeverPicksFillingLine)
{
    // 8 fill slots but only 4 ways: once every way of a set is
    // Filling, a further miss to that set must block rather than
    // steal a line whose fill is still in flight.
    CacheHarness ch(FbCache::Config{16, 4, 256, 4, 8});
    for (u32 k = 0; k < 4; ++k) {
        for (u32 i = 0; i < 256; ++i) {
            ch.h.memory.data()[k * 16 * 256 + i] =
                static_cast<u8>(0xa0 + k);
        }
    }
    bool checked = false;
    u32 hits = 0;
    ch.step = [&](Cycle cycle) {
        if (!checked) {
            // 4 misses filling every way of set 0...
            for (u32 k = 0; k < 4; ++k) {
                EXPECT_EQ(
                    ch.cache.access(cycle, k * 16 * 256, false),
                    CacheAccess::Miss);
            }
            // ...leave no victim for a 5th line of the same set.
            EXPECT_EQ(ch.cache.access(cycle, 4 * 16 * 256, false),
                      CacheAccess::Blocked);
            checked = true;
            return;
        }
        // Every fill must complete with its own data intact.
        hits = 0;
        for (u32 k = 0; k < 4; ++k) {
            if (ch.cache.access(cycle, k * 16 * 256, false) ==
                CacheAccess::Hit) {
                EXPECT_EQ(*ch.cache.wordPtr(k * 16 * 256),
                          static_cast<u8>(0xa0 + k));
                ++hits;
            }
        }
    };
    ch.run(300);
    EXPECT_TRUE(checked);
    EXPECT_EQ(hits, 4u);
}

TEST(FbCache, FlushRoundTripLeavesCacheIdle)
{
    // Dirty lines -> flush -> cache idle, memory holds the data and
    // a re-access misses cleanly and refills the written values.
    CacheHarness ch;
    u32 phase = 0;
    bool flushed = false;
    bool refilled = false;
    ch.step = [&](Cycle cycle) {
        if (phase < 2) {
            const u32 addr = phase * 256;
            if (ch.cache.access(cycle, addr, true) ==
                CacheAccess::Hit) {
                *ch.cache.wordPtr(addr) =
                    static_cast<u8>(0x40 + phase);
                ch.cache.markDirty(addr);
                ++phase;
            }
        } else if (!flushed) {
            flushed = ch.cache.flushStep(cycle, ch.h.client->mem,
                                         MemClient::ZCache);
            if (flushed) {
                EXPECT_TRUE(ch.cache.idle());
            }
        } else if (!refilled) {
            refilled =
                ch.cache.access(cycle, 0, false) == CacheAccess::Hit;
            if (refilled) {
                EXPECT_EQ(*ch.cache.wordPtr(0), 0x40);
            }
        }
    };
    ch.run(800);
    ASSERT_TRUE(flushed);
    EXPECT_EQ(ch.h.memory.data()[0], 0x40);
    EXPECT_EQ(ch.h.memory.data()[256], 0x41);
    EXPECT_TRUE(refilled);
    // A second flush with nothing dirty completes immediately-ish
    // and leaves the cache idle again.
    bool flushed2 = false;
    ch.step = [&](Cycle cycle) {
        if (!flushed2) {
            flushed2 = ch.cache.flushStep(cycle, ch.h.client->mem,
                                          MemClient::ZCache);
        }
    };
    ch.run(100);
    EXPECT_TRUE(flushed2);
    EXPECT_TRUE(ch.cache.idle());
}

TEST(FbCache, WriteAllocateDirtyTracking)
{
    // A line allocated forWrite is written back on flush; a line
    // only read (never marked dirty) is not.
    CacheHarness ch;
    for (u32 i = 0; i < 256; ++i) {
        ch.h.memory.data()[0x0000 + i] = 0x11;
        ch.h.memory.data()[0x8000 + i] = 0x22;
    }
    u32 phase = 0;
    bool flushed = false;
    ch.step = [&](Cycle cycle) {
        if (phase == 0) {
            if (ch.cache.access(cycle, 0x0000, true) ==
                CacheAccess::Hit) {
                *ch.cache.wordPtr(0x0000) = 0x77;
                ++phase;
            }
        } else if (phase == 1) {
            if (ch.cache.access(cycle, 0x8000, false) ==
                CacheAccess::Hit) {
                // Poke the clean line behind the cache's back: the
                // flush must NOT write it out.
                *ch.cache.wordPtr(0x8000) = 0x99;
                ++phase;
            }
        } else if (!flushed) {
            flushed = ch.cache.flushStep(cycle, ch.h.client->mem,
                                         MemClient::ZCache);
        }
    };
    ch.run(800);
    ASSERT_TRUE(flushed);
    // Write-allocated line landed in memory; clean line did not.
    EXPECT_EQ(ch.h.memory.data()[0x0000], 0x77);
    EXPECT_EQ(ch.h.memory.data()[0x8000], 0x22);
}

TEST(FbCache, InvalidateAllCancelsInFlightFills)
{
    // Regression: invalidateAll() while a fill is in flight must not
    // let the eventual memory response resurrect a stale line.
    CacheHarness ch;
    for (u32 i = 0; i < 256; ++i)
        ch.h.memory.data()[0x3000 + i] = 0x5c;

    u32 phase = 0;
    bool probed = false;
    bool refilled = false;
    ch.step = [&](Cycle cycle) {
        switch (phase) {
          case 0:
            // Start the miss; the fill goes out to memory.
            EXPECT_EQ(ch.cache.access(cycle, 0x3000, false),
                      CacheAccess::Miss);
            phase = 1;
            break;
          case 1:
            // Wait until the fill is issued, then clear.
            if (!ch.cache.idle() && ch.cache.cancelledFills() == 0) {
                ch.cache.invalidateAll();
                EXPECT_EQ(ch.cache.cancelledFills(), 1u);
                EXPECT_FALSE(ch.cache.idle());
                phase = 2;
            }
            break;
          case 2:
            // Drain: the cancelled fill's response arrives and is
            // discarded.  No accesses here — a probe would start a
            // fresh (legitimate) fill and muddy the check below.
            if (ch.cache.cancelledFills() == 0 && ch.cache.idle())
                phase = 3;
            break;
          case 3:
            // Had the discarded response resurrected the line, this
            // first access would Hit on stale data.  It must Miss,
            // then refill with the real memory contents.
            if (!refilled) {
                const CacheAccess a =
                    ch.cache.access(cycle, 0x3000, false);
                if (!probed) {
                    EXPECT_EQ(a, CacheAccess::Miss);
                    probed = true;
                }
                if (a == CacheAccess::Hit) {
                    EXPECT_EQ(*ch.cache.wordPtr(0x3000), 0x5c);
                    refilled = true;
                }
            }
            break;
        }
    };
    ch.run(400);
    EXPECT_EQ(ch.cache.cancelledFills(), 0u);
    EXPECT_TRUE(probed);
    EXPECT_TRUE(refilled);
}

TEST(FbCache, SteadyStateMissesAllocateOncePerTransaction)
{
    // A fill or writeback transaction carries its line inline, so
    // once the cache's and the memory controller's queues have their
    // storage, each transaction costs exactly one heap allocation
    // (the object and its shared_ptr control block together).
    CacheHarness ch;
    u32 round = 0;
    u32 phase = 0;
    u64 allocsAtRound2 = 0;
    u64 allocsAtRound6 = 0;
    ch.step = [&](Cycle cycle) {
        if (round >= 6)
            return;
        // Walk all 64 lines, dirtying each: every round after the
        // first evicts and refills the whole cache, 64 fills and 64
        // writebacks.
        const u32 addr = (round & 1 ? 0x20000 : 0) + phase * 256;
        if (ch.cache.access(cycle, addr, true) == CacheAccess::Hit) {
            ch.cache.markDirty(addr);
            if (++phase == 64) {
                phase = 0;
                ++round;
                if (round == 2)
                    allocsAtRound2 = gAllocations.load();
                if (round == 6)
                    allocsAtRound6 = gAllocations.load();
            }
        }
    };
    ch.run(60000);
    ASSERT_GE(round, 6u);
    // Rounds 2 to 5: four rounds of 64 fills and 64 writebacks.
    EXPECT_EQ(allocsAtRound6 - allocsAtRound2, 4u * (64 + 64));
}
