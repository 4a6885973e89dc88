/**
 * @file
 * Simulator: the clock loop driving boxes and signals.
 *
 * The simulator owns the signal binder, the statistic manager, the
 * list of boxes it clocks, and the scheduler that advances them.
 * The whole model runs on one clock: every box sees the same cycle
 * counter.  Because every inter-box signal has latency >= 1 and boxes
 * follow the two-phase update/propagate lifecycle, the order in
 * which boxes are clocked within a cycle does not affect the
 * modelled behaviour — which is what lets the scheduler clock them
 * serially or across a worker pool with bit-identical results.
 *
 * Statistics window bookkeeping runs after phase B on the simulator
 * thread, so counters are only ever touched by one thread at a
 * time.
 */

#ifndef ATTILA_SIM_SIMULATOR_HH
#define ATTILA_SIM_SIMULATOR_HH

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "sim/box.hh"
#include "sim/event_trace.hh"
#include "sim/scheduler.hh"
#include "sim/signal_binder.hh"
#include "sim/statistics.hh"

namespace attila::sim
{

/** Owns the simulation infrastructure and runs the clock loop. */
class Simulator
{
  public:
    Simulator()
        : _scheduler(std::make_unique<SerialScheduler>())
    {
        // Simulator-driven models always use the two-phase write
        // protocol; standalone binders (unit tests) stay immediate.
        _binder.setBuffered(true);
    }

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    SignalBinder& binder() { return _binder; }
    StatisticManager& stats() { return _stats; }

    /** Register a box to be clocked each cycle (not owned). */
    void addBox(Box* box) { _boxes.push_back(box); }

    /** Every registered box, in registration order. */
    const std::vector<Box*>& boxes() const { return _boxes; }

    /**
     * The boxes grouped by clock domain.  The model has one clock, so
     * this is a one-element view of the simulator itself.  It stays
     * only because the host-performance benchmark in simbench/ still
     * counts boxes through it, and that benchmark changes only in a
     * benchmark revision.  New code uses boxes().
     */
    std::array<const Simulator*, 1> domains() const { return {this}; }

    /**
     * Install the engine that clocks the boxes.  Defaults to
     * SerialScheduler.
     */
    void
    setScheduler(std::unique_ptr<Scheduler> scheduler)
    {
        if (!scheduler)
            fatal("setScheduler: null scheduler");
        _scheduler = std::move(scheduler);
        _scheduler->setIdleSkip(_idleSkip);
        _scheduler->setSleepOracle(_sleepOracle);
    }

    Scheduler& scheduler() { return *_scheduler; }

    /**
     * Enable or disable activity-driven clocking (default on):
     * per-box idle skipping in the scheduler plus the whole-model
     * fast-forward in run().  Off restores the always-clock
     * reference path; observables are identical either way.
     */
    void
    setIdleSkip(bool enable)
    {
        _idleSkip = enable;
        _scheduler->setIdleSkip(enable);
    }

    bool idleSkip() const { return _idleSkip; }

    /**
     * Test-only sleep oracle (Scheduler::setSleepOracle): every box
     * skipped while it holds work is clocked and checked for a
     * no-op update.  Whole-model fast-forward stays off while a box
     * holds work, so no such cycle goes unchecked.
     */
    void
    setSleepOracle(bool enable)
    {
        _sleepOracle = enable;
        _scheduler->setSleepOracle(enable);
    }

    /**
     * Enable structured event tracing: register every box (span
     * events come from the scheduler's clock/skip decisions), give
     * each box the chance to wire unit-level emitters
     * (attachEventTrace), and attach the trace to every signal.
     * Call after all boxes are registered; boxes and signals
     * added later are still picked up via the binder and explicit
     * attachment, but ids assigned here are deterministic.  It runs
     * under any scheduler.
     */
    void
    enableEventTrace()
    {
        if (_eventTrace)
            return;
        _eventTrace = std::make_unique<EventTrace>();
        for (Box* box : _boxes) {
            box->installEventTrace(
                _eventTrace.get(), _eventTrace->registerBox(box->name()));
            box->attachEventTrace(*_eventTrace);
        }
        _binder.setEventTrace(_eventTrace.get());
    }

    EventTrace* eventTrace() { return _eventTrace.get(); }

    /**
     * Close all open activity spans at the current cycle and return
     * the merged, cycle-sorted trace snapshot.  Run between steps on
     * the simulator thread (no worker is inside a phase then);
     * recording continues afterwards if the model keeps running.
     */
    EventTraceData
    finishEventTrace()
    {
        if (!_eventTrace)
            fatal("finishEventTrace: event tracing is not enabled");
        for (Box* box : _boxes)
            box->finishEventSpan();
        return _eventTrace->collect();
    }

    /** Cycles elapsed. */
    Cycle cycle() const { return _cycle; }

    /** Advance the whole model one cycle. */
    void
    step()
    {
        _lastAllIdle = _scheduler->clock(_boxes, _cycle);
        ++_cycle;
        _stats.cycle(_cycle);
    }

    /** Run for @p cycles cycles. */
    void
    run(u64 cycles)
    {
        for (u64 i = 0; i < cycles; ++i) {
            step();
            if (_idleSkip && i + 1 < cycles)
                i += fastForward(cycles - i - 1);
        }
    }

    /**
     * Whole-model fast-forward: when the last step skipped every box
     * and no object is anywhere inside a wire, nothing can change
     * state before the earliest scheduled box wakeup — so skip up to
     * @p maxCycles cycles in bulk, performing only the per-cycle
     * bookkeeping (cycle counter, statistics windows) the skipped
     * steps would have done.  Returns the cycles skipped (0 when the
     * model is not provably idle).  Observables stay bit-identical:
     * the skipped steps would have clocked no box and closed the
     * same statistics windows, whose only counts are the ticks of
     * boxes asleep while blocked (StatisticManager::skipCycles folds
     * them at each boundary).
     */
    u64
    fastForward(u64 maxCycles)
    {
        if (maxCycles == 0 || !_lastAllIdle ||
            _binder.totalInFlight() != 0)
            return 0;
        if (_sleepOracle && !allEmpty())
            return 0;
        Cycle wake = NoWake;
        for (const Box* box : _boxes)
            wake = std::min(wake, box->next().wake());
        if (wake <= _cycle)
            return 0; // Wakeup due at the very next cycle.
        const u64 skip =
            wake == NoWake ? maxCycles
                                : std::min<u64>(maxCycles, wake - _cycle);
        _stats.skipCycles(_cycle, _cycle + skip);
        _cycle += skip;
        return skip;
    }

    /** True when every box reports no in-flight work. */
    bool
    allEmpty() const
    {
        for (const Box* box : _boxes) {
            if (!box->empty())
                return false;
        }
        return true;
    }

    /**
     * True when every box is empty *and* no signal holds in-flight
     * objects: the model is fully drained.  O(boxes + signals); poll
     * sparingly.
     *
     * Drain conservation check: a drained model must also leave
     * every box's live-input counter at 0, since each counter is the
     * sum of its input wires' live counts.  A nonzero counter means
     * the idle-skip bookkeeping leaked; throws SimError naming the
     * box and the count.
     */
    bool
    quiescent() const
    {
        if (!allEmpty() || _binder.totalInFlight() != 0)
            return false;
        for (const Box* box : _boxes) {
            if (box->liveInputs() != 0) {
                panic("drain check: box '", box->name(),
                      "' still counts ", box->liveInputs(),
                      " live input(s) although every box is empty",
                      " and no signal holds data");
            }
        }
        return true;
    }

  private:
    SignalBinder _binder;
    StatisticManager _stats;
    std::vector<Box*> _boxes;
    std::unique_ptr<Scheduler> _scheduler;
    std::unique_ptr<EventTrace> _eventTrace;
    Cycle _cycle = 0;
    /** The last step() skipped every box (fast-forward guard). */
    bool _lastAllIdle = false;
    bool _idleSkip = true;
    bool _sleepOracle = false;
};

} // namespace attila::sim

#endif // ATTILA_SIM_SIMULATOR_HH
