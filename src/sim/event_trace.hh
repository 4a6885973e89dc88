/**
 * @file
 * EventTrace: low-overhead structured binary event recording.
 *
 * The simulator's one trace system: it records fixed-size 32-byte
 * events into per-thread chunks with no lock on the hot path, and
 * its SignalWrite events drive the Signal Trace Visualizer
 * (examples/signal_trace_visualizer).  Workers under the partitioned
 * parallel scheduler each append to their own chunk; collect() merges
 * the chunks and sorts by cycle, so the trace works identically under
 * serial and parallel clocking.
 *
 * Four event families are recorded:
 *  - box activity spans (Span) from the scheduler's clock/skip
 *    decisions, one event per span when it closes — unit
 *    utilization timelines;
 *  - signal occupancy (SignalWrite), one event per object published
 *    into a wire, carrying the object's id and parent id so the
 *    fragment→triangle→batch lineage survives into the trace;
 *  - cache transactions (CacheHit/CacheMiss) from the framebuffer and
 *    texture caches;
 *  - shader thread-slot lifecycles (ThreadBegin/ThreadEnd).
 *
 * The whole facility compiles out when ATTILA_TRACE_EVENTS is defined
 * to 0 (hook sites are `if constexpr` guarded), and costs one
 * predictable null-check per hook when compiled in but disabled.
 * Recording never mutates model state, so cycles, statistics and
 * framebuffer contents are bit-identical with tracing on or off.
 */

#ifndef ATTILA_SIM_EVENT_TRACE_HH
#define ATTILA_SIM_EVENT_TRACE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/dynamic_object.hh"
#include "sim/types.hh"

/** Compile-time master switch; define to 0 to compile every hook
 * site out of the model entirely. */
#ifndef ATTILA_TRACE_EVENTS
#define ATTILA_TRACE_EVENTS 1
#endif

namespace attila::sim
{

/** True when the event-trace hook sites are compiled in. */
inline constexpr bool kEventTraceCompiled = ATTILA_TRACE_EVENTS != 0;

/** Event type discriminator (u16 in the record). */
enum class EventKind : u16 {
    Span = 1,       ///< Box active over [cycle, id); unit = box id.
    SignalWrite = 3, ///< Object published into a wire; unit = signal.
    CacheHit = 4,   ///< Cache access hit; unit = cache, arg = address.
    CacheMiss = 5,  ///< Fresh cache miss; unit = cache, arg = address.
    ThreadBegin = 6, ///< Shader thread slot allocated; arg = slot.
    ThreadEnd = 7,  ///< Shader thread slot retired; arg = slot.
};

/**
 * One recorded event.  Fixed 32-byte POD so chunks are cache-friendly
 * and the binary file format is a raw dump.
 */
struct TraceEvent
{
    u64 cycle;  ///< Simulated cycle of the event.
    u64 id;     ///< DynamicObject id (kNoTraceId when not applicable);
                ///< a Span's exclusive end cycle.
    u64 parent; ///< Parent object id (kNoTraceId when root).
    u32 arg;    ///< Kind-specific payload (color, address, slot).
    u16 unit;   ///< Registered unit id (box / signal / cache / shader).
    u16 kind;   ///< EventKind.
};

static_assert(sizeof(TraceEvent) == 32,
              "TraceEvent must stay a packed 32-byte record");

/**
 * A merged, self-describing snapshot of a trace: the four unit name
 * tables (indexed by TraceEvent::unit) and the events sorted by
 * cycle.  This is what the binary file stores and what the exporter
 * and aggregator consume.
 */
struct EventTraceData
{
    std::vector<std::string> boxes;
    std::vector<std::string> signals;
    std::vector<std::string> caches;
    std::vector<std::string> shaders;
    std::vector<TraceEvent> events;
    u64 dropped = 0; ///< Events discarded by an event limit.
};

/**
 * The recording sink.  Unit name registration and collect() run on
 * the simulator thread (enable time / between cycles); emit() may run
 * from any worker thread concurrently with other emitters, never
 * concurrently with collect().  The scheduler's end-of-cycle barrier
 * provides that separation for free.
 */
class EventTrace
{
  public:
    /** Events per per-thread chunk (256 KiB of records). */
    static constexpr std::size_t kChunkEvents = 8192;

    EventTrace();
    ~EventTrace() = default;

    EventTrace(const EventTrace&) = delete;
    EventTrace& operator=(const EventTrace&) = delete;

    // ===== Unit registration (sim thread) ==========================

    /** Register a box name; returns the id used in Span events. */
    u16 registerBox(const std::string& name);
    /** Register a signal name; returns the id for SignalWrite. */
    u16 registerSignal(const std::string& name);
    /** Register a cache name; returns the id for CacheHit/Miss. */
    u16 registerCache(const std::string& name);
    /** Register a shader name; returns the id for ThreadBegin/End. */
    u16 registerShader(const std::string& name);

    // ===== Recording (any thread) ==================================

    /**
     * Append one event to the calling thread's chunk.  Lock-free on
     * the hot path: the chunk is owned by this thread until collect()
     * runs, and collect() only runs when no emitter is active.
     */
    void
    emit(EventKind kind, Cycle cycle, u16 unit, u32 arg = 0,
         u64 id = kNoTraceId, u64 parent = kNoTraceId)
    {
        Chunk* chunk = cachedChunk();
        if (!chunk || chunk->events.size() >= kChunkEvents)
            [[unlikely]]
            chunk = freshChunk();
        if (chunk->discard) [[unlikely]] {
            _dropped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        chunk->events.push_back({cycle, id, parent, arg, unit,
                                 static_cast<u16>(kind)});
    }

    /**
     * Cap the number of retained events; once every chunk slot is
     * spoken for, further emits are counted in dropped() and thrown
     * away (rounded up to whole chunks).  Default: unlimited.
     */
    void setEventLimit(u64 limit) { _limitEvents = limit; }

    // ===== Collection (sim thread, no concurrent emitters) =========

    /**
     * Merge every thread's chunk into one snapshot sorted by cycle
     * (ties broken on kind/unit/id so the result is a deterministic
     * function of the recorded multiset, independent of thread
     * interleaving).  Drains the chunks; recording may continue
     * afterwards into fresh chunks.
     */
    EventTraceData collect();

    /** Events currently buffered across all chunks. */
    u64 eventCount() const;

    /** Events discarded because of the event limit. */
    u64 dropped() const
    {
        return _dropped.load(std::memory_order_relaxed);
    }

  private:
    struct Chunk
    {
        std::vector<TraceEvent> events;
        bool discard = false;
    };

    /** TLS chunk-cache associativity (power of two). */
    static constexpr std::size_t kTlsWays = 8;

    struct TlsEntry
    {
        u64 serial = 0; ///< 0 = empty (live serials start at 1).
        Chunk* chunk = nullptr;
    };

    /**
     * Per-thread chunk cache, keyed by the trace's globally unique
     * serial so entries from a destroyed (or merely different)
     * EventTrace can never alias this one.  Direct-mapped: a
     * collision between two live traces just re-acquires a chunk.
     */
    static TlsEntry&
    tlsEntry(u64 serial)
    {
        thread_local TlsEntry entries[kTlsWays];
        return entries[serial & (kTlsWays - 1)];
    }

    Chunk*
    cachedChunk() const
    {
        const TlsEntry& entry = tlsEntry(_serial);
        return entry.serial == _serial ? entry.chunk : nullptr;
    }

    /** Slow path: allocate (or hand out the discard sentinel) and
     * cache a chunk for the calling thread. */
    Chunk* freshChunk();

    u16 registerName(std::vector<std::string>& table,
                     const std::string& name, const char* what);

    const u64 _serial;
    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<Chunk>> _chunks;
    std::vector<std::string> _boxes;
    std::vector<std::string> _signals;
    std::vector<std::string> _caches;
    std::vector<std::string> _shaders;
    u64 _limitEvents = ~u64{0};
    std::atomic<u64> _dropped{0};
};

// ===== Binary trace files ==========================================

/**
 * Write @p data as an .evtrace binary file: a magic/version header,
 * the four name tables, the raw 32-byte events and a trailing FNV-1a
 * checksum.  Throws FatalError on I/O failure.
 */
void writeEventTraceBinary(const EventTraceData& data,
                           const std::string& path);

/**
 * Parse an .evtrace file back.  Corrupt input (bad magic, truncated
 * tables or events, checksum mismatch) is a diagnostic FatalError
 * naming the file and offset, never a raw exception or a crash.
 */
EventTraceData readEventTraceBinary(const std::string& path);

} // namespace attila::sim

#endif // ATTILA_SIM_EVENT_TRACE_HH
