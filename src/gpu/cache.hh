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
 * written back to memory; this is where the ROP surfaces' fast clear
 * and compression plug in (gpu/rop_surface.hh: cleared blocks fill
 * without memory traffic, dirty tiles compress on eviction).
 *
 * Host-side layout (not modeled state): line data lives in one
 * contiguous arena and the tag metadata in flat parallel arrays
 * (state / dirty / address / last-use), so the tag walk on the hit
 * path touches a handful of adjacent words instead of pointer-rich
 * Line structs.  Pending fills occupy a fixed MSHR-style slot table
 * with a per-line back-pointer, replacing the linear pending-fill
 * scans.  A miss or writeback transaction carries its line inline,
 * so each costs one heap allocation.
 */

#ifndef ATTILA_GPU_CACHE_HH
#define ATTILA_GPU_CACHE_HH

#include <vector>

#include "gpu/memory_controller.hh"
#include "sim/event_trace.hh"
#include "sim/statistics.hh"

namespace attila::gpu
{

/** Fill/writeback policy of a cache whose lines are not plain
 * copies of memory (the ROP surfaces' block-state backings). */
class LineBacking
{
  public:
    virtual ~LineBacking() = default;

    /** Bytes to fetch to fill the line at @p lineAddr; 0 when
     * fillLocal() fills it without memory traffic. */
    virtual u32 fillSize(u32 lineAddr) const = 0;

    /** Decode @p size fetched bytes into the line. */
    virtual void fillFromMemory(u32 lineAddr, const u8* memBytes,
                                u32 size, u8* lineOut) const = 0;

    /** Fill a line that needs no memory traffic. */
    virtual void fillLocal(u32 lineAddr, u8* lineOut) const = 0;

    /** Encode a dirty line into @p out (one line large); return the
     * byte count to write (the Z compressor returns 64/128/256). */
    virtual u32 writeback(u32 lineAddr, const u8* lineData,
                          u8* out) = 0;
};

/** Outcome of a cache access attempt. */
enum class CacheAccess : u8
{
    Hit,     ///< Line resident; data available this cycle.
    Miss,    ///< Fill started (or already pending); retry later.
    Blocked, ///< No resource (ports, victims, memory queue).
};

/** A set-associative, write-back cache with pluggable backing
 * (none: lines are plain copies of memory). */
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

    /**
     * True when access(@p addr) in a new cycle would change the
     * cache: a hit, or a miss that starts a fill.  False when it
     * would only wait, on a fill under way or for a free MSHR or
     * victim; a fill response or a writeback ack ends the wait.
     */
    bool accessWouldProgress(u32 addr) const;

    /**
     * True when clock() could change the cache without a memory
     * response: a local fill to complete, or an unissued writeback
     * or fill with a request credit on @p port to issue it.
     */
    bool clockWouldProgress(const MemPort& port) const;

    u32 lineBytes() const { return _config.lineBytes; }
    u32 lineCount() const { return _lineCount; }
    u32 ways() const { return _config.ways; }
    u32 sets() const { return _sets; }

    /** Fills awaiting a (discarded) response after invalidateAll();
     * exposed for tests. */
    u32 cancelledFills() const { return _cancelled; }

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
    s32 findLine(u32 lineAddr) const;
    s32 pickVictim(u32 set) const;
    /** A writeback of @p lineAddr is still in flight. */
    bool writebackPending(u32 lineAddr) const;
    void queueWriteback(Cycle unusedCycle, u32 lineIndex);
    u8 allocFillSlot();
    void removeFillAt(u32 orderPos);
    void commitStats();

    std::string _name;
    Config _config;
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
