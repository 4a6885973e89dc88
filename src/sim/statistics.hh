/**
 * @file
 * Statistics collection.
 *
 * Every statistic is registered with the StatisticManager under a
 * "box.stat" name.  Besides lifetime totals, the manager samples each
 * statistic over fixed cycle windows (10K cycles in the paper's
 * figures) so time-series such as per-frame texture cache hit rate or
 * unit utilization can be produced, and dumps everything as CSV —
 * the paper's statistics file.
 */

#ifndef ATTILA_SIM_STATISTICS_HH
#define ATTILA_SIM_STATISTICS_HH

#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace attila::sim
{

/**
 * A monotonically accumulating counter with windowed sampling.
 *
 * Besides inc(), a statistic can *tick*: tickFrom(cycle, n) counts n
 * events for that cycle and for every later cycle until the next
 * tickFrom() call changes the rate.  A box that sleeps while blocked
 * uses it for counters that advance once per blocked cycle (busy
 * cycles, stall cycles): it sets the rate its blocked update would
 * count before it goes to sleep, and switches it off when it is
 * next clocked.  Pending ticks are folded in exactly: at every window
 * close (at the window's boundary cycle) and whenever total() or
 * windowValue() is read, up to the owning StatisticManager's current
 * cycle.  So totals and window samples are the ones a per-cycle inc()
 * would have produced.
 */
class Statistic
{
  public:
    /** @param clock the owning manager's current cycle (see
     *  StatisticManager::now()); a free-standing statistic has none
     *  and folds pending ticks only when tickFrom() changes the rate
     *  or a window closes. */
    explicit Statistic(std::string name, const Cycle* clock = nullptr)
        : _name(std::move(name)), _clock(clock)
    {}

    const std::string& name() const { return _name; }

    /** Accumulate @p n events. */
    void
    inc(u64 n = 1)
    {
        _total += n;
        _window += n;
    }

    /**
     * Count @p perCycle events for cycle @p cycle and every later
     * cycle, until the next call changes the rate; 0 stops ticking.
     * Cycles before @p cycle keep the previous rate.  Calls must not
     * go back before an earlier call's cycle.
     */
    void
    tickFrom(Cycle cycle, u64 perCycle)
    {
        if (perCycle == _tickRate)
            return;
        fold(cycle);
        _tickRate = perCycle;
    }

    /** Events counted per cycle while ticking (0: not ticking). */
    u64 tickRate() const { return _tickRate; }

    /** Lifetime total, including ticks up to the manager's current
     *  cycle. */
    u64 total() const { return _total + ticksBefore(now()); }

    /** Value accumulated in the current (unclosed) window. */
    u64 windowValue() const { return _window + ticksBefore(now()); }

    /** Lifetime total with ticks counted up to, not including, cycle
     *  @p end (for checks that look one cycle ahead). */
    u64 totalBefore(Cycle end) const { return _total + ticksBefore(end); }

    /** Per-window samples closed so far. */
    const std::vector<u64>& samples() const { return _samples; }

    /** Close the current window at the manager's current cycle,
     *  pushing it onto the sample list. */
    void
    closeWindow()
    {
        fold(now());
        _samples.push_back(_window);
        _window = 0;
    }

  private:
    Cycle now() const { return _clock ? *_clock : _tickSince; }

    /** Ticks pending for the cycles in [_tickSince, end). */
    u64
    ticksBefore(Cycle end) const
    {
        return _tickRate != 0 && end > _tickSince
                   ? (end - _tickSince) * _tickRate
                   : 0;
    }

    /** Move the ticks of [_tickSince, end) into the counters. */
    void
    fold(Cycle end)
    {
        const u64 n = ticksBefore(end);
        _total += n;
        _window += n;
        if (end > _tickSince)
            _tickSince = end;
    }

    std::string _name;
    const Cycle* _clock;
    u64 _total = 0;
    u64 _window = 0;
    Cycle _tickSince = 0;
    u64 _tickRate = 0;
    std::vector<u64> _samples;
};

/**
 * Deferred accumulator for hot-loop counting.
 *
 * Incrementing a Statistic from an inner loop chases the reference
 * and touches two u64s per event.  A BatchedStat accumulates into a
 * plain local counter and folds the sum into the Statistic once per
 * clock (commit() at the end of the owning box's update), which is
 * observably identical as long as commits happen before the
 * StatisticManager closes the cycle's sampling window — the
 * simulator closes windows between master ticks, after every box
 * has updated.
 */
class BatchedStat
{
  public:
    explicit BatchedStat(Statistic& stat) : _stat(stat) {}

    void inc(u64 n = 1) { _pending += n; }

    /** Statistic::tickFrom(); ticks bypass the batch. */
    void tickFrom(Cycle cycle, u64 perCycle)
    {
        _stat.tickFrom(cycle, perCycle);
    }

    /** Events accumulated since the last commit. */
    u64 pending() const { return _pending; }

    /** Committed total plus pending events — what total() will
     * read after the next commit. */
    u64 liveTotal() const { return _stat.total() + _pending; }

    void
    commit()
    {
        if (_pending) {
            _stat.inc(_pending);
            _pending = 0;
        }
    }

  private:
    Statistic& _stat;
    u64 _pending = 0;
};

/**
 * Name server that registers, samples and dumps statistics.
 *
 * Threading contract under the parallel scheduler: every method that
 * touches the registry map (get(), find(), names(), the CSV dumps
 * and closeAllWindows()) takes the registry mutex, so lookups may
 * run from any thread concurrently with worker-side registration.
 * The *contents* of a Statistic are not locked: each Statistic is
 * incremented only by the box that registered it (one owner per
 * counter, signal write counters belong to the signal's single
 * writer), and window closing / CSV dumping runs on the simulator
 * thread between cycles, when no worker is inside a phase — so a
 * pointer returned by find() is safe to read only under that same
 * quiescence rule.
 */
class StatisticManager
{
  public:
    /** Get or create the statistic "box.stat". */
    Statistic& get(const std::string& box_name,
                   const std::string& stat_name);

    /** Look up an existing statistic; nullptr when absent. */
    const Statistic* find(const std::string& full_name) const;

    /** Set the sampling window in cycles (0 disables sampling). */
    void setWindow(Cycle window) { _window = window; }
    Cycle window() const { return _window; }

    /**
     * Advance the sampling clock; closes a window on every multiple
     * of the window size.
     */
    void
    cycle(Cycle now)
    {
        _now = now;
        if (_window == 0)
            return;
        if (now != 0 && now % _window == 0)
            closeAllWindows();
    }

    /**
     * Bulk form of cycle() for the simulator's whole-model
     * fast-forward: closes exactly the windows that per-tick calls
     * for every cycle in (@p from, @p to] would have closed, each at
     * its boundary cycle.  The skipped cycles accumulated nothing but
     * the ticks of ticking statistics, which each close folds up to
     * its boundary, so the CSV rows come out bit-identical to
     * stepping through them.
     */
    void
    skipCycles(Cycle from, Cycle to)
    {
        if (_window != 0) {
            for (Cycle b = (from / _window + 1) * _window; b <= to;
                 b += _window) {
                _now = b;
                closeAllWindows();
            }
        }
        _now = to;
    }

    /** The current cycle as the simulator last reported it: the
     *  first cycle not yet simulated.  Ticking statistics count up to
     *  it. */
    Cycle now() const { return _now; }

    /** Close the current window on every statistic, at now(). */
    void closeAllWindows();

    /** Number of windows closed so far. */
    std::size_t sampleCount() const { return _sampleCount; }

    /** All registered statistic names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Dump one row per closed window, one column per statistic, as
     * CSV with a header row.
     */
    void writeCsv(std::ostream& os) const;

    /** Dump lifetime totals as "name,total" CSV. */
    void writeTotalsCsv(std::ostream& os) const;

  private:
    std::map<std::string, std::unique_ptr<Statistic>> _stats;
    mutable std::mutex _registry;
    Cycle _window = 0;
    Cycle _now = 0;
    std::size_t _sampleCount = 0;
};

} // namespace attila::sim

#endif // ATTILA_SIM_STATISTICS_HH
