/**
 * @file
 * Box: base class for every simulated pipeline unit.
 *
 * A box abstracts a "large enough" piece of the pipeline (the
 * Clipper, the Fragment Generator, ...).  Boxes model resource
 * restrictions and control/data flow; signals model latency and
 * bandwidth.
 *
 * Each cycle a box goes through an explicit two-phase lifecycle:
 *
 *  - update(cycle)    (phase A): read input signals, advance local
 *                     state (registers and queues) and *stage* output
 *                     signal writes.  No other box observes these
 *                     writes yet, so phase A has no ordering hazards
 *                     between boxes and may run concurrently for all
 *                     boxes.  It returns the box's next step (Next):
 *                     clock me next cycle, sleep until an input
 *                     arrives, or sleep until a cycle or an input.
 *  - propagate(cycle) (phase B): publish the staged writes into the
 *                     signals' delivery slots.  Each signal has a
 *                     single writer box, so phase B is also free of
 *                     cross-box hazards.
 *
 * The scheduler (see sim/scheduler.hh) runs phase A for every box,
 * then phase B for every box.  clock() bundles both phases
 * for single-box harnesses and tests.
 *
 * Two per-box words make the per-cycle framework cost follow the
 * traffic rather than the wiring.  Both are maintained by the box's
 * signals, which the SignalBinder wires to the box at registration:
 *
 *  - the dirty-output mask: staging a write sets the output's bit
 *    (its registration index; outputs past the 63rd share bit 63), so
 *    propagate() commits only the outputs written this cycle, lowest
 *    index first — the same order as committing every output;
 *  - the live-input counter: objects and tokens committed into the
 *    box's inputs and not yet read, so idleAt() is one load.
 *
 * Threading: the mask is touched only in this box's phase A and
 * phase B, which the scheduler orders (same thread, or the
 * partition's release/acquire update counter).  The live-input
 * counter is a relaxed atomic for the same reason a signal's
 * counters are: under the partitioned engine a writer's phase-B
 * commit on one thread can overlap this box's phase-A reads on
 * another.  The
 * scheduler reads it in its skip pass, on the simulator thread,
 * before any worker is dispatched.
 */

#ifndef ATTILA_SIM_BOX_HH
#define ATTILA_SIM_BOX_HH

#include <atomic>
#include <bit>
#include <string>
#include <vector>

#include "sim/event_trace.hh"
#include "sim/signal_binder.hh"
#include "sim/statistics.hh"
#include "sim/types.hh"

namespace attila::sim
{

/** Sentinel cycle: never. */
inline constexpr Cycle NoWake = ~Cycle{0};

/**
 * A box's next step, as its update() states it.  Either way an
 * input arriving clocks the box (see Box::idleAt()).
 *
 *  - runs():     clock the box next cycle;
 *  - sleeps():   skip it until an input arrives;
 *  - until(c):   skip it until cycle c or an input, whichever comes
 *                first; until(NoWake) is sleeps().
 */
class Next
{
  public:
    static constexpr Next runs() { return Next(0); }
    static constexpr Next sleeps() { return Next(NoWake); }
    static constexpr Next until(Cycle cycle) { return Next(cycle); }

    /** The first cycle the box is due without an input: 0 for
     * runs(), NoWake for sleeps(). */
    constexpr Cycle wake() const { return _wake; }

    constexpr bool operator==(const Next&) const = default;

  private:
    constexpr explicit Next(Cycle wake) : _wake(wake) {}

    Cycle _wake;
};

/** Base class for all simulated pipeline units. */
class Box
{
  public:
    /**
     * @param binder Signal name server used to register this box's
     *               interface.
     * @param stats Statistic name server.
     * @param name Unique box instance name.
     */
    Box(SignalBinder& binder, StatisticManager& stats,
        std::string name)
        : _binder(binder), _stats(stats), _name(std::move(name))
    {}
    virtual ~Box() = default;

    Box(const Box&) = delete;
    Box& operator=(const Box&) = delete;

    const std::string& name() const { return _name; }

    /**
     * Phase A: read inputs, advance internal state, stage output
     * writes, and say when the box must run next.  Must not touch
     * state owned by another box.
     */
    virtual Next update(Cycle cycle) = 0;

    /**
     * Phase B: publish the output writes staged during update(),
     * committing only the outputs whose dirty bit is set, lowest
     * registration index first.  Bit 63 stands for every output from
     * index 63 on; those are committed in index order when written.
     */
    void
    propagate(Cycle cycle)
    {
        (void)cycle;
        u64 dirty = _dirtyOutputs;
        _dirtyOutputs = 0;
        while (dirty != 0) {
            const u32 bit = static_cast<u32>(std::countr_zero(dirty));
            dirty &= dirty - 1;
            if (bit < kSharedDirtyBit) [[likely]] {
                _outputSignals[bit]->commit();
                continue;
            }
            for (std::size_t i = kSharedDirtyBit;
                 i < _outputSignals.size(); ++i) {
                if (_outputSignals[i]->pendingWrites() != 0)
                    _outputSignals[i]->commit();
            }
        }
    }

    /** Run both phases; for single-box harnesses and tests. */
    void
    clock(Cycle cycle)
    {
        _next = update(cycle);
        propagate(cycle);
    }

    /**
     * True when the box holds no in-flight work.  Used by the
     * simulator's drain detection.
     */
    virtual bool empty() const { return true; }

    // ===== Activity contract (idle skipping) =======================
    //
    // A box is *asleep* at a cycle when its update() would be a
    // semantic no-op: nothing it holds can move without a new input,
    // and no timer it runs is due.  The scheduler then skips both
    // phases for the cycle without changing any observable (cycle
    // counts, statistics, signal traffic) — the basis for the
    // engine's activity-driven clocking.  A box that holds work but
    // is blocked sleeps too: the stall reason is also the wake
    // condition.
    //
    // Contract for implementors:
    //  - update() returns the box's whole next step.  Next::runs()
    //    means "the next update can change state, a statistic or an
    //    output without a new input".  A box blocked on an output
    //    credit, a memory fill, a retire or an ack sleeps(): those
    //    arrive on input wires, and every input signal holding an
    //    object or token keeps its reader awake automatically
    //    (signal delivery marks the consumer active).  Work that
    //    becomes possible at a known future cycle (a delay queue's
    //    head, a bus transfer, a filter or DRAM bank timer) is
    //    until() that cycle.  The returned value replaces the last
    //    one, so every update re-derives its timers.
    //  - A box starts asleep.  Work handed to it outside update()
    //    (a command stream, a toy box's first step) wakes it through
    //    wake().
    //  - A statistic that a blocked update() would advance every
    //    cycle (busy or stall cycles) is ticked instead: the update
    //    switches the tick off for its own cycle (tickFrom(cycle, 0))
    //    and, when it ends, sets the per-cycle count its blocked
    //    successor would add (tickFrom(cycle + 1, n)), so sleeping
    //    cycles count exactly what clocked ones would have.
    //  - The sleep oracle (Scheduler::setSleepOracle, tests only)
    //    checks all of this: it clocks every box that is skipped
    //    while !empty() and panics if that update staged a write,
    //    changed one of the box's statistics, or returned a step
    //    that runs the box before the stored one would.

    /** The step the last update() returned (sleeps() before the
     * first, unless wake() was called). */
    Next next() const { return _next; }

    /**
     * True when the scheduler may skip this box at @p cycle: its
     * last step is not due, and no object or token is in flight on
     * any input signal.  An object is counted from the moment its
     * writer commits until it is read, so a sleeping consumer is
     * clocked throughout the delivery window and can never miss an
     * arrival (which would otherwise trip the signal's data-loss
     * check).
     */
    bool
    idleAt(Cycle cycle) const
    {
        return liveInputs() == 0 && cycle < _next.wake();
    }

    /**
     * Objects and tokens committed into this box's inputs and not
     * yet read: the sum of fastEmpty()'s counters over
     * inputSignals(), kept as one counter.
     */
    u64
    liveInputs() const
    {
        return _liveInputs.load(std::memory_order_relaxed);
    }

    /** Scheduler entry point for phase A: runs update() and stores
     * the step it returns. */
    void
    beginUpdate(Cycle cycle)
    {
        if constexpr (kEventTraceCompiled) {
            // Activity span bookkeeping.  The fields are only ever
            // touched by the one thread clocking this box this cycle
            // (phase A) or by the simulator thread during the skip
            // pass / at trace finish, when no worker is inside a
            // phase — the scheduler's end-of-cycle barrier orders
            // the two.
            if (_eventTrace) [[unlikely]] {
                if (!_spanOpen) {
                    _spanBegin = cycle;
                    _spanOpen = true;
                }
                _spanLast = cycle;
            }
        }
        _next = update(cycle);
    }

    /**
     * Per-cycle skip latch, written by the scheduler's skip pass
     * before any box is clocked and read back in phase B so a
     * skipped box also skips propagate().  Under the partitioned
     * parallel engine the decisions are made on the simulator thread
     * before the workers are dispatched (and any error-path write by
     * a worker is ordered by the partition's update counter), so the
     * latch needs no synchronization of its own.
     */
    void
    markSkipped(bool skipped)
    {
        if constexpr (kEventTraceCompiled) {
            if (_eventTrace && skipped) [[unlikely]]
                finishEventSpan();
        }
        _skipped = skipped;
    }
    bool skipped() const { return _skipped; }

    // ===== Structured event tracing ================================

    /**
     * Install the event trace sink and this box's registered id
     * (Simulator::enableEventTrace).  Activity spans are recorded
     * from the scheduler's clock/skip decisions without any help
     * from the subclass.
     */
    void
    installEventTrace(EventTrace* trace, u16 id)
    {
        _eventTrace = trace;
        _eventTraceId = id;
        _spanOpen = false;
    }

    /**
     * Hook for boxes with unit-level event sources (caches, shader
     * thread slots): register names with @p trace and wire internal
     * emitters.  Called once, after installEventTrace().
     */
    virtual void attachEventTrace(EventTrace& trace) { (void)trace; }

    /**
     * Close an open activity span one cycle past the last clocked
     * cycle and record it as one Span event.  Called on the
     * simulator thread when the box is skipped and at trace
     * collection, so spans of boxes that never go idle still
     * terminate.
     */
    void
    finishEventSpan()
    {
        if constexpr (kEventTraceCompiled) {
            if (_eventTrace && _spanOpen) {
                _eventTrace->emit(EventKind::Span, _spanBegin,
                                  _eventTraceId, 0, _spanLast + 1);
                _spanOpen = false;
            }
        }
    }

    /** Statistics registered through stat(), in registration order
     * (the sleep oracle compares them around a skipped update). */
    const std::vector<Statistic*>& ownStatistics() const
    {
        return _ownStats;
    }

    /** True when update() staged an output write that propagate()
     * has not committed yet. */
    bool hasStagedWrites() const { return _dirtyOutputs != 0; }

    /** Input signals registered for this box (read-only). */
    const std::vector<Signal*>& inputSignals() const
    {
        return _inputSignals;
    }

    /** Output signals registered for this box (read-only); with the
     * binder's single-reader rule this is what lets the scheduler
     * recover the box connectivity graph at bind time. */
    const std::vector<Signal*>& outputSignals() const
    {
        return _outputSignals;
    }

  protected:
    /** Outputs from this registration index on share one dirty bit. */
    static constexpr u32 kSharedDirtyBit = 63;

    /** Register an input signal of this box. */
    Signal*
    input(const std::string& signal_name, u32 bandwidth, u32 latency)
    {
        return _binder.registerSignal(this, signal_name, Direction::In,
                                      bandwidth, latency);
    }

    /** Register an output signal of this box. */
    Signal*
    output(const std::string& signal_name, u32 bandwidth, u32 latency)
    {
        return _binder.registerSignal(this, signal_name,
                                      Direction::Out, bandwidth,
                                      latency);
    }

    /** Get (or create) a statistic scoped to this box. */
    Statistic&
    stat(const std::string& stat_name)
    {
        Statistic& s = _stats.get(_name, stat_name);
        _ownStats.push_back(&s);
        return s;
    }

    /** Clock this box next cycle: for work handed to it outside
     * update(). */
    void wake() { _next = Next::runs(); }

    SignalBinder& binder() { return _binder; }
    StatisticManager& statistics() { return _stats; }

  private:
    // The binder appends every signal this box writes or reads,
    // regardless of whether registration went through
    // input()/output() or a helper (links, memory ports) talking to
    // the binder directly.
    friend class SignalBinder;

    SignalBinder& _binder;
    StatisticManager& _stats;
    std::string _name;
    std::vector<Signal*> _outputSignals;
    std::vector<Signal*> _inputSignals;
    std::vector<Statistic*> _ownStats;
    /** Bit i: output i (i < 63) has staged writes; bit 63: some
     * output with index >= 63 has. */
    u64 _dirtyOutputs = 0;
    /** See liveInputs() and the file comment. */
    std::atomic<u64> _liveInputs{0};
    Next _next = Next::sleeps();
    bool _skipped = false;
    EventTrace* _eventTrace = nullptr;
    u16 _eventTraceId = 0;
    bool _spanOpen = false;
    Cycle _spanBegin = 0;
    Cycle _spanLast = 0;
};

} // namespace attila::sim

#endif // ATTILA_SIM_BOX_HH
