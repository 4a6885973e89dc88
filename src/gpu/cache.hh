/**
 * @file
 * FbCache: the set-associative caches attached to the pipeline boxes
 * (Z cache, Color cache, Texture cache — Table 2).
 *
 * As in the paper, caches use a method-based (non-signal) interface
 * attached to their parent box, modelling single-cycle tag and data
 * access.  Misses and writebacks move through the parent's MemPort
 * with full memory controller timing.
 *
 * A LineBacking policy customizes how lines are filled from and
 * written back to memory; this is where the Z compression and fast
 * clear algorithms plug in (the ROPz backing compresses on eviction
 * and services cleared blocks without memory traffic).
 *
 * Host-side layout (not modeled state): line data lives in one
 * contiguous arena and the tag metadata in flat parallel arrays
 * (state / dirty / address / last-use), so the tag walk on the hit
 * path touches a handful of adjacent words instead of pointer-rich
 * Line structs.  Pending fills occupy a fixed MSHR-style slot table
 * with a per-line back-pointer, replacing the linear pending-fill
 * scans, and miss/writeback transactions are recycled through a
 * sharded ObjectPool so steady-state misses allocate nothing.
 */

#ifndef ATTILA_GPU_CACHE_HH
#define ATTILA_GPU_CACHE_HH

#include <cstring>
#include <vector>

#include "gpu/memory_controller.hh"
#include "sim/event_trace.hh"
#include "sim/object_pool.hh"
#include "sim/statistics.hh"

namespace attila::gpu
{

/** Per-block compression / clear state (paper §2.2). */
enum class BlockState : u8
{
    Cleared,      ///< Fast-cleared; no memory backing yet.
    Uncompressed, ///< 256 bytes in memory.
    CompHalf,     ///< 128 bytes (1:2).
    CompQuarter,  ///< 64 bytes (1:4).
};

/** The on-chip block state memory of a ROP unit. */
class BlockStateTable
{
  public:
    void
    reset(u32 blocks, BlockState initial)
    {
        _states.assign(blocks, initial);
    }

    /** Set every block to @p state (the fast clear operation). */
    void
    clearAll(BlockState state)
    {
        std::fill(_states.begin(), _states.end(), state);
    }

    BlockState
    get(u32 block) const
    {
        return block < _states.size() ? _states[block]
                                      : BlockState::Uncompressed;
    }

    void
    set(u32 block, BlockState state)
    {
        if (block < _states.size())
            _states[block] = state;
    }

    u32 blocks() const { return static_cast<u32>(_states.size()); }

  private:
    std::vector<BlockState> _states;
};

/** Fill/writeback policy of a cache. */
class LineBacking
{
  public:
    virtual ~LineBacking() = default;

    /**
     * Bytes to fetch from memory to fill the line at @p lineAddr.
     * Return 0 for lines needing no memory access (cleared blocks);
     * fillLocal() is called instead.
     */
    virtual u32
    fillSize(u32 lineAddr)
    {
        (void)lineAddr;
        return _lineBytes;
    }

    /** Decode @p size fetched bytes into the line. */
    virtual void
    fillFromMemory(u32 lineAddr, const u8* memBytes, u32 size,
                   u8* lineOut)
    {
        (void)lineAddr;
        (void)size;
        std::memcpy(lineOut, memBytes, _lineBytes);
    }

    /** Fill a line that needs no memory traffic. */
    virtual void
    fillLocal(u32 lineAddr, u8* lineOut)
    {
        (void)lineAddr;
        std::memset(lineOut, 0, _lineBytes);
    }

    /**
     * Encode a dirty line for writeback into @p out (at least
     * _lineBytes large); return the byte count to write (the Z
     * compressor returns 64/128/256).
     */
    virtual u32
    writeback(u32 lineAddr, const u8* lineData, u8* out)
    {
        (void)lineAddr;
        std::memcpy(out, lineData, _lineBytes);
        return _lineBytes;
    }

    void setLineBytes(u32 bytes) { _lineBytes = bytes; }

  protected:
    u32 _lineBytes = 256;
};

/** Outcome of a cache access attempt. */
enum class CacheAccess : u8
{
    Hit,     ///< Line resident; data available this cycle.
    Miss,    ///< Fill started (or already pending); retry later.
    Blocked, ///< No resource (ports, victims, memory queue).
};

/** A set-associative, write-back cache with pluggable backing. */
class FbCache
{
  public:
    struct Config
    {
        u32 sizeKB = 16;
        u32 ways = 4;
        u32 lineBytes = 256;
        u32 ports = 4;          ///< Accesses per cycle.
        u32 maxOutstanding = 4; ///< Concurrent misses.
    };

    FbCache(std::string name, const Config& config,
            sim::Statistic& hits, sim::Statistic& misses,
            LineBacking* backing = nullptr);

    /**
     * Request the line containing @p addr.  On Hit, lineData() is
     * valid this cycle.  @p forWrite allocates and marks dirty.
     */
    CacheAccess access(Cycle cycle, u32 addr, bool forWrite);

    /** Pointer to the 4-byte word at @p addr (line must be
     * resident). */
    u8* wordPtr(u32 addr);

    /** Mark the resident line containing @p addr dirty. */
    void markDirty(u32 addr);

    /** Pump fills and writebacks through @p port; call every
     * cycle. */
    void clock(Cycle cycle, MemPort& port, MemClient client);

    /**
     * Write all dirty lines back to memory.  Call every cycle until
     * it returns true; no access() calls may interleave.
     */
    bool flushStep(Cycle cycle, MemPort& port, MemClient client);

    /**
     * Drop every line (after a fast clear).  Safe while fills are in
     * flight: unissued fills are dropped and issued fills are
     * cancelled — their eventual response is discarded, so a stale
     * line can never be resurrected into the cleared cache.
     */
    void invalidateAll();

    /** True when no fills or writebacks are in flight. */
    bool idle() const;

    u32 lineBytes() const { return _config.lineBytes; }
    u32 lineCount() const { return _lineCount; }
    u32 ways() const { return _config.ways; }
    u32 sets() const { return _sets; }

    /** Fills awaiting a (discarded) response after invalidateAll();
     * exposed for tests. */
    u32 cancelledFills() const { return _cancelled; }

    /** Transactions ever heap-allocated by the internal pool; the
     * zero-steady-state-allocation check watches this plateau. */
    u64 txnAllocations() const { return _txnPool.allocated(); }

    /**
     * Attach the structured event trace under cache unit id @p id.
     * Hit/miss events are emitted exactly where the hit/miss
     * statistics increment, so trace aggregates and statistics agree
     * by construction.
     */
    void
    setEventTrace(sim::EventTrace* trace, u16 id)
    {
        _eventTrace = trace;
        _eventTraceId = id;
    }

  private:
    enum class LineState : u8 { Invalid, Filling, Valid };

    /** One MSHR slot: a miss in flight towards memory. */
    struct FillSlot
    {
        u32 addr = 0;
        u32 lineIndex = 0;
        bool localOnly = false;
        bool issued = false;
        bool cancelled = false;
    };

    /** A dirty line travelling back to memory.  The payload is
     * encoded straight into the pooled transaction at eviction. */
    struct WbEntry
    {
        u32 addr = 0;
        MemTransactionPtr txn;
        bool issued = false;
        bool done = false;
    };

    u32
    lineAddrOf(u32 addr) const
    {
        return _pow2 ? addr & ~_lineMask
                     : addr - addr % _config.lineBytes;
    }

    u32
    setOf(u32 lineAddr) const
    {
        return _pow2 ? (lineAddr >> _lineShift) & _setMask
                     : (lineAddr / _config.lineBytes) % _sets;
    }

    u8* lineData(u32 lineIndex)
    {
        return _arena.data() +
               static_cast<std::size_t>(lineIndex) *
                   _config.lineBytes;
    }

    /** Tag walk: resident (non-Invalid) line index or -1. */
    s32 findLine(u32 lineAddr);
    s32 pickVictim(u32 set);
    void queueWriteback(Cycle unusedCycle, u32 lineIndex);
    u8 allocFillSlot();
    void removeFillAt(u32 orderPos);
    void commitStats();

    std::string _name;
    Config _config;
    LineBacking _defaultBacking;
    LineBacking* _backing;
    u32 _sets;
    u32 _lineCount;
    bool _pow2;      ///< lineBytes and sets both powers of two.
    u32 _lineMask = 0;
    u32 _lineShift = 0;
    u32 _setMask = 0;

    // SoA tag metadata + one arena for all line data.
    std::vector<LineState> _state;
    std::vector<u8> _dirty;
    std::vector<u32> _addr;
    std::vector<u64> _lastUse;
    std::vector<u8> _arena;

    // MSHR table: fixed slots + FIFO issue order ring.
    std::vector<FillSlot> _slots;
    u32 _freeSlots = 0; ///< Bitmask of free slot indices.
    std::vector<u8> _order;
    u32 _ordMask = 0;
    u32 _ordHead = 0;
    u32 _ordCount = 0;
    u32 _cancelled = 0;

    // Writeback FIFO: vector-with-cursor, entries completing out of
    // order are tombstoned (done) until the head drains.
    std::vector<WbEntry> _writebacks;
    u32 _wbHead = 0;
    u32 _wbLive = 0;

    sim::ObjectPool<MemTransaction> _txnPool;

    u32 _accessesThisCycle = 0;
    Cycle _currentCycle = ~0ull;
    u64 _useCounter = 0;
    u32 _flushScan = 0;
    sim::BatchedStat _hits;
    sim::BatchedStat _misses;
    sim::EventTrace* _eventTrace = nullptr;
    u16 _eventTraceId = 0;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_CACHE_HH
