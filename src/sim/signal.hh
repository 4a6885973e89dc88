/**
 * @file
 * Signal: the "wire" connecting boxes.
 *
 * A signal has a bandwidth (writes per cycle) and a latency (cycles
 * between write and read).  All communication between boxes happens
 * in a message-passing style through signals, which both transport
 * the data and *verify* the modelled communication constraints: a
 * write beyond the configured bandwidth, or data that reaches the
 * reader's cycle without being read, terminates the simulation with a
 * diagnostic (SimError).  This is what keeps timing bugs loud instead
 * of silent.
 *
 * Two kinds of wire share those checks:
 *  - object wires carry DynamicObjects (write()/read());
 *  - token wires carry bare counted tokens (writeToken()/
 *    readTokens()).  They model flow-control credits, where only the
 *    number of arrivals matters, so nothing is allocated per write.
 *    A token still counts as one write for the bandwidth check, the
 *    data-loss check, the "signal.<name>.writes" statistic, the text
 *    trace and the event trace.
 * Both ends declare the kind at registration and the binder rejects
 * a mismatch; using the other kind's API on a wire panics.
 *
 * Two-phase (buffered) mode: when a signal is owned by a Simulator,
 * writes issued during the update phase are staged in a pending
 * buffer and only published into the delivery slots by commit(),
 * which the writer box runs in its propagate phase.  Because every
 * latency is >= 1 this does not change the modelled timing, but it
 * removes every same-cycle ordering hazard between boxes, which is
 * what makes parallel clocking safe.  Standalone signals (unit
 * tests) default to immediate mode, where a write publishes
 * directly.
 *
 * Per-box bookkeeping, wired by the SignalBinder at registration:
 *  - staging a write sets this signal's bit in the writer box's
 *    dirty-output mask, so the box's propagate phase commits only the
 *    outputs that were written this cycle;
 *  - publishing adds to, and reading subtracts from, the reader box's
 *    live-input counter, so the scheduler's idle test is one load
 *    instead of a scan over the box's inputs.
 *
 * Threading contract: a signal has one writer box and one reader
 * box.  Only the writer's thread stages and commits; only the
 * reader's thread reads.  Under the partitioned parallel engine a
 * writer's commit (phase B) may overlap the reader's phase A on
 * another thread.  The delivery slots stay disjoint (a commit at
 * cycle c lands at c + latency >= c + 1, never the slot read at c),
 * so the only shared words are the counters: this signal's write
 * and read totals, whose difference is the number of live
 * (committed, unread) objects, and the reader box's live-input
 * counter.  All are relaxed atomics.  The two totals each have a
 * single writing thread, so they advance with a load and a store;
 * the box counter has one writer thread per input and takes a
 * read-modify-write.
 */

#ifndef ATTILA_SIM_SIGNAL_HH
#define ATTILA_SIM_SIGNAL_HH

#include <atomic>
#include <string>
#include <vector>

#include "sim/dynamic_object.hh"
#include "sim/types.hh"

namespace attila::sim
{

class EventTrace;
class SignalTraceWriter;
class Statistic;

/** What a signal transports. */
enum class SignalKind : u8
{
    Object, ///< DynamicObjects: write() / read().
    Token,  ///< Counted tokens (credits): writeToken() / readTokens().
};

/** Printable name of a signal kind (for diagnostics). */
inline const char*
signalKindName(SignalKind kind)
{
    return kind == SignalKind::Token ? "token" : "object";
}

/**
 * Latency- and bandwidth-modelled communication wire between two
 * boxes.
 */
class Signal
{
  public:
    /**
     * @param name Unique signal name (assigned by the SignalBinder).
     * @param bandwidth Maximum writes per cycle (>= 1).
     * @param latency Cycles between write and availability (>= 1).
     * @param kind Object or token wire.
     */
    Signal(std::string name, u32 bandwidth, u32 latency,
           SignalKind kind = SignalKind::Object);

    const std::string& name() const { return _name; }
    u32 bandwidth() const { return _bandwidth; }
    u32 latency() const { return _latency; }
    SignalKind kind() const { return _kind; }

    /**
     * Write an object into the signal at @p cycle; it becomes
     * readable at cycle + latency.  Throws SimError when the cycle's
     * bandwidth is exceeded or when undelivered data would be
     * overwritten.  In buffered mode the object is staged and only
     * published by commit(); the bandwidth check still fires here,
     * the data-loss check fires at commit time.  Object wires only.
     */
    void write(Cycle cycle, DynamicObjectPtr obj);

    /**
     * Write one token at @p cycle; the token-wire counterpart of
     * write(), with the same checks and diagnostics.  Token wires
     * only.
     */
    void writeToken(Cycle cycle);

    /**
     * True when writing another object (or token) at @p cycle would
     * not exceed the signal bandwidth.
     */
    bool
    canWrite(Cycle cycle) const
    {
        if (_buffered)
            return canWriteBuffered(cycle);
        const Cycle arrival = cycle + _latency;
        const Slot& slot = _slots[arrival & _slotMask];
        const u32 used = slotWrites(slot);
        if (used == 0 || slot.arrival != arrival)
            return true;
        return used < _bandwidth;
    }

    /**
     * Read one object arriving at @p cycle.  Returns nullptr when no
     * (more) objects arrive this cycle.  Object wires only.
     *
     * Inline with a live() == 0 early-out: the link layer polls every
     * input signal every cycle and the overwhelming majority of polls
     * find an empty wire, so the common case must be a load and a
     * branch, not an out-of-line call.
     */
    DynamicObjectPtr
    read(Cycle cycle)
    {
        if (_kind != SignalKind::Object) [[unlikely]]
            wrongKind("read");
        if (live() == 0)
            return nullptr;
        Slot& slot = _slots[cycle & _slotMask];
        if (slot.objects.empty() || slot.arrival != cycle ||
            slot.drained()) {
            return nullptr;
        }
        DynamicObjectPtr obj = std::move(slot.objects[slot.readIndex]);
        ++slot.readIndex;
        consumed(1);
        if (slot.drained()) {
            slot.objects.clear();
            slot.readIndex = 0;
        }
        return obj;
    }

    /**
     * Take every token arriving at @p cycle; returns how many (0 when
     * none).  Token wires only.
     */
    u32
    readTokens(Cycle cycle)
    {
        if (_kind != SignalKind::Token) [[unlikely]]
            wrongKind("readTokens");
        if (live() == 0)
            return 0;
        Slot& slot = _slots[cycle & _slotMask];
        if (slot.tokens == 0 || slot.arrival != cycle)
            return 0;
        const u32 n = slot.tokens;
        slot.tokens = 0;
        consumed(n);
        return n;
    }

    /** Number of unread objects (or tokens) arriving at @p cycle. */
    u32
    pendingAt(Cycle cycle) const
    {
        if (live() == 0)
            return 0;
        const Slot& slot = _slots[cycle & _slotMask];
        if (slotWrites(slot) == 0 || slot.arrival != cycle)
            return 0;
        return slotWrites(slot) - slot.readIndex;
    }

    /**
     * Enable or disable two-phase buffered writes.  Disabling
     * publishes any still-staged writes first.
     */
    void setBuffered(bool buffered);
    bool buffered() const { return _buffered; }

    /**
     * Publish all writes staged since the last commit.  Called by the
     * writer box's propagate phase (only for outputs whose dirty bit
     * is set); only the writer's thread may call this.  Throws
     * SimError on the data-loss check.  Inline no-op when nothing is
     * staged.
     */
    void
    commit()
    {
        if (_staged != 0)
            commitPending();
    }

    /** Writes (objects or tokens) staged but not yet committed. */
    u32 pendingWrites() const { return _staged; }

    /**
     * Objects or tokens somewhere inside the wire: committed but
     * unread, plus staged writes.  Used by the drain detector — a
     * model is only quiescent when every signal is empty.  O(1):
     * maintained as a live counter, not a slot walk.
     */
    u64 inFlight() const;

    /**
     * True when no committed-but-unread object or token is inside
     * the wire.  Staged (uncommitted) writes are deliberately *not*
     * counted: they belong to the writer's in-progress cycle and only
     * become observable once the writer commits.  A racy load under
     * the parallel engine can only miss a same-cycle commit, whose
     * data is unreadable this cycle anyway — results stay
     * deterministic.
     */
    bool
    fastEmpty() const
    {
        return live() == 0;
    }

    /**
     * Binder hook: every staged write sets @p bit in @p mask (the
     * writer box's dirty-output mask).
     */
    void
    bindWriterDirty(u64* mask, u64 bit)
    {
        _writerDirty = mask;
        _dirtyBit = bit;
    }

    /**
     * Binder hook: mirror this wire's live count into @p counter
     * (the reader box's live-input counter), including anything
     * already live.
     */
    void
    bindReaderLive(std::atomic<u64>* counter)
    {
        _readerLive = counter;
        counter->fetch_add(live(), std::memory_order_relaxed);
    }

    /** Attach a trace writer; every write is then recorded. */
    void setTracer(SignalTraceWriter* tracer) { _tracer = tracer; }

    /** Attach a statistic counting writes. */
    void setWriteStat(Statistic* stat) { _writeStat = stat; }

    /**
     * Attach the structured event trace under unit id @p id; every
     * published object or token then emits one SignalWrite event.
     * Unlike the text tracer this records into the publishing
     * thread's chunk, so it is safe under the parallel scheduler.
     */
    void
    setEventTrace(EventTrace* trace, u16 id)
    {
        _eventTrace = trace;
        _eventTraceId = id;
    }

    /** Lifetime statistics. */
    u64
    totalWrites() const
    {
        return _totalWrites.load(std::memory_order_relaxed);
    }
    u64
    totalReads() const
    {
        return _totalReads.load(std::memory_order_relaxed);
    }

  private:
    struct Slot
    {
        Cycle arrival = 0;
        std::vector<DynamicObjectPtr> objects; ///< Object wires.
        u32 readIndex = 0;                     ///< Object wires.
        u32 tokens = 0; ///< Token wires: published, unread tokens.

        bool
        drained() const
        {
            return readIndex >= objects.size();
        }
    };

    struct PendingWrite
    {
        Cycle cycle = 0;
        DynamicObjectPtr obj;
    };

    struct PendingTokens
    {
        Cycle cycle = 0;
        u32 count = 0;
    };

    /** Writes published into @p slot for its arrival cycle and not
     * yet cleared (an object wire keeps read objects until the slot
     * drains; a token wire clears its count on read). */
    u32
    slotWrites(const Slot& slot) const
    {
        return _kind == SignalKind::Token
                   ? slot.tokens
                   : static_cast<u32>(slot.objects.size());
    }

    /** Committed-but-unread objects or tokens across all slots. */
    u64
    live() const
    {
        return totalWrites() - totalReads();
    }

    /** Advance a counter that only the calling thread writes. */
    static void
    bump(std::atomic<u64>& counter, u64 n)
    {
        counter.store(counter.load(std::memory_order_relaxed) + n,
                      std::memory_order_relaxed);
    }

    /** Bookkeeping for @p n objects or tokens read. */
    void
    consumed(u32 n)
    {
        bump(_totalReads, n);
        if (_readerLive)
            _readerLive->fetch_sub(n, std::memory_order_relaxed);
    }

    /** Bookkeeping for one staged write: per-cycle bandwidth check
     * and the writer's dirty bit. */
    void stage(Cycle cycle);

    /** Make @p slot ready to take writes arriving at @p arrival;
     * runs the data-loss check. */
    void claimSlot(Slot& slot, Cycle arrival, Cycle cycle);

    [[noreturn]] void bandwidthExceeded(Cycle cycle) const;
    [[noreturn]] void wrongKind(const char* op) const;

    /** Publish one object (the pre-two-phase write body). */
    void publish(Cycle cycle, DynamicObjectPtr obj);

    /** Publish @p count tokens written at @p cycle. */
    void publishTokens(Cycle cycle, u32 count);

    /** Shared per-write bookkeeping of publish/publishTokens. */
    void published(u32 n);

    /** canWrite() when buffered: counts the staged writes. */
    bool canWriteBuffered(Cycle cycle) const;

    /** Staged writes for @p cycle. */
    u32 stagedAt(Cycle cycle) const;

    /** commit() slow path: publishes the staged writes. */
    void commitPending();

    std::string _name;
    u32 _bandwidth;
    u32 _latency;
    SignalKind _kind;
    bool _buffered = false;
    std::vector<Slot> _slots;
    /** _slots.size() - 1; the slot count is rounded up to a power of
     * two so the per-poll ring index is a mask, not a division. */
    Cycle _slotMask = 0;
    std::vector<PendingWrite> _pending;        ///< Object wires.
    std::vector<PendingTokens> _pendingTokens; ///< Token wires.
    u32 _staged = 0;
    u64* _writerDirty = nullptr;
    u64 _dirtyBit = 0;
    std::atomic<u64>* _readerLive = nullptr;
    SignalTraceWriter* _tracer = nullptr;
    Statistic* _writeStat = nullptr;
    EventTrace* _eventTrace = nullptr;
    u16 _eventTraceId = 0;
    /** Lifetime totals; see the file comment for the threading
     * contract.  Only the writer's thread advances _totalWrites
     * (publish) and only the reader's thread _totalReads (read);
     * cross-thread observers only ever use their difference as a
     * conservative emptiness hint. */
    std::atomic<u64> _totalWrites{0};
    std::atomic<u64> _totalReads{0};
};

} // namespace attila::sim

#endif // ATTILA_SIM_SIGNAL_HH
