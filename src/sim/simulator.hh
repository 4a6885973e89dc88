/**
 * @file
 * Simulator: the clock loop driving boxes and signals.
 *
 * The simulator owns the signal binder, the statistic manager, the
 * clock domains grouping the boxes, and the scheduler that advances
 * them.  Because every inter-box signal has latency >= 1 and boxes
 * follow the two-phase update/propagate lifecycle, the order in
 * which boxes are clocked within a cycle does not affect the
 * modelled behaviour — which is what lets the scheduler clock them
 * serially or across a worker pool with bit-identical results.
 *
 * Each master tick advances every clock domain whose divider
 * matches; statistics window bookkeeping runs after phase B on the
 * simulator thread, so counters are only ever touched by one thread
 * at a time.
 */

#ifndef ATTILA_SIM_SIMULATOR_HH
#define ATTILA_SIM_SIMULATOR_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/box.hh"
#include "sim/clock_domain.hh"
#include "sim/event_trace.hh"
#include "sim/scheduler.hh"
#include "sim/signal_binder.hh"
#include "sim/signal_trace.hh"
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

    /**
     * Find or create the clock domain @p name.  The divider is fixed
     * at creation; re-requesting an existing domain with a different
     * divider is a configuration error.
     */
    ClockDomain&
    domain(const std::string& name, u32 divider = 1)
    {
        for (auto& d : _domains) {
            if (d->name() == name) {
                if (d->divider() != divider)
                    fatal("clock domain '", name,
                          "': divider mismatch (", d->divider(),
                          " vs ", divider, ")");
                return *d;
            }
        }
        _domains.push_back(
            std::make_unique<ClockDomain>(name, divider));
        return *_domains.back();
    }

    const std::vector<std::unique_ptr<ClockDomain>>&
    domains() const
    {
        return _domains;
    }

    /**
     * Register a box to be clocked each cycle (not owned); shorthand
     * for adding to the master-rate "default" domain.
     */
    void
    addBox(Box* box)
    {
        domain("default").addBox(box);
    }

    /**
     * Install the engine that clocks the domains.  Defaults to
     * SerialScheduler.
     */
    void
    setScheduler(std::unique_ptr<Scheduler> scheduler)
    {
        if (!scheduler)
            fatal("setScheduler: null scheduler");
        _scheduler = std::move(scheduler);
        _scheduler->setIdleSkip(_idleSkip);
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

    /** Enable signal tracing into @p path. */
    void
    enableTracing(const std::string& path)
    {
        _tracer = std::make_unique<SignalTraceWriter>(path);
        _binder.setTracer(_tracer.get());
    }

    SignalTraceWriter* tracer() { return _tracer.get(); }

    /**
     * Enable structured event tracing: register every box (span
     * events come from the scheduler's clock/skip decisions), give
     * each box the chance to wire unit-level emitters
     * (attachEventTrace), and attach the trace to every signal.
     * Call after all boxes are in their domains; boxes and signals
     * added later are still picked up via the binder and explicit
     * attachment, but ids assigned here are deterministic.  Unlike
     * the text signal trace this does not constrain the scheduler.
     */
    void
    enableEventTrace()
    {
        if (_eventTrace)
            return;
        _eventTrace = std::make_unique<EventTrace>();
        for (auto& d : _domains) {
            for (Box* box : d->boxes()) {
                box->installEventTrace(
                    _eventTrace.get(),
                    _eventTrace->registerBox(box->name()));
                box->attachEventTrace(*_eventTrace);
            }
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
        for (auto& d : _domains) {
            for (Box* box : d->boxes())
                box->finishEventSpan();
        }
        return _eventTrace->collect();
    }

    /** Master ticks elapsed (the rate of divider-1 domains). */
    Cycle cycle() const { return _tick; }

    /** Advance the whole model one master tick. */
    void
    step()
    {
        for (auto& d : _domains) {
            if (d->ticksAt(_tick))
                _scheduler->clockDomain(*d, d->cycle());
        }
        for (auto& d : _domains) {
            if (d->ticksAt(_tick))
                d->advance();
        }
        ++_tick;
        _stats.cycle(_tick);
    }

    /** Run for @p cycles master ticks. */
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
     * Whole-model fast-forward: when the last step skipped every
     * box of every domain and no object is anywhere inside a wire,
     * nothing can change state before the earliest scheduled box
     * wakeup — so skip up to @p maxTicks master ticks in bulk,
     * performing only the per-tick bookkeeping (domain cycle
     * counters, statistics windows) the skipped steps would have
     * done.  Returns the ticks skipped (0 when the model is not
     * provably idle).  Observables stay bit-identical: the skipped
     * steps would have clocked no box and closed the same all-zero
     * statistics windows.
     */
    u64
    fastForward(u64 maxTicks)
    {
        if (maxTicks == 0)
            return 0;
        for (const auto& d : _domains) {
            if (!d->lastAllIdle())
                return 0;
        }
        // The per-domain flags can be stale for slow domains between
        // their ticks (and say nothing about wires between domains),
        // so additionally require every signal empty.  With no box
        // busy and nothing in flight, the only future event is the
        // earliest wakeup.
        if (_binder.totalInFlight() != 0)
            return 0;
        u64 skip = maxTicks;
        for (const auto& d : _domains) {
            const Cycle wake = d->nextWake();
            if (wake == Box::NoWake)
                continue;
            const Cycle local = d->cycle();
            if (wake <= local)
                return 0; // Wakeup due at the very next tick.
            // Master tick running domain cycle `wake`: the next tick
            // where the domain fires, plus (wake - local) periods.
            const u64 div = d->divider();
            const u64 rem = _tick % div;
            const u64 firstFire = rem == 0 ? _tick : _tick + div - rem;
            const u64 wakeTick = firstFire + (wake - local) * div;
            skip = std::min(skip, wakeTick - _tick);
        }
        if (skip == 0)
            return 0;
        for (auto& d : _domains) {
            const u64 div = d->divider();
            const u64 rem = _tick % div;
            const u64 firstFire = rem == 0 ? _tick : _tick + div - rem;
            if (firstFire < _tick + skip) {
                d->advanceBy((_tick + skip - 1 - firstFire) / div +
                             1);
            }
        }
        _stats.skipCycles(_tick, _tick + skip);
        _tick += skip;
        return skip;
    }

    /** True when every box reports no in-flight work. */
    bool
    allEmpty() const
    {
        for (const auto& d : _domains) {
            if (!d->allEmpty())
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
        for (const auto& d : _domains) {
            for (const Box* box : d->boxes()) {
                if (box->liveInputs() != 0) {
                    panic("drain check: box '", box->name(),
                          "' still counts ", box->liveInputs(),
                          " live input(s) although every box is empty",
                          " and no signal holds data");
                }
            }
        }
        return true;
    }

  private:
    SignalBinder _binder;
    StatisticManager _stats;
    std::vector<std::unique_ptr<ClockDomain>> _domains;
    std::unique_ptr<Scheduler> _scheduler;
    std::unique_ptr<SignalTraceWriter> _tracer;
    std::unique_ptr<EventTrace> _eventTrace;
    Cycle _tick = 0;
    bool _idleSkip = true;
};

} // namespace attila::sim

#endif // ATTILA_SIM_SIMULATOR_HH
