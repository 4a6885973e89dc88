/**
 * @file
 * Scheduler: pluggable engine that clocks the simulator's boxes.
 *
 * The two-phase box lifecycle (Box::update staging writes, then
 * Box::propagate publishing them) guarantees that boxes of one cycle
 * never observe each other's same-cycle effects, so the scheduler is
 * free to run each phase in any order — or concurrently.  Two
 * backends exist:
 *
 *  - SerialScheduler: phase A over all boxes, then phase B; the
 *    reference engine, behaviour-identical to the classic single
 *    clock loop.
 *  - ParallelScheduler: a dependency-aware partitioned engine.  At
 *    bind time the box connectivity graph (recovered from each
 *    box's registered input/output signals) is partitioned into one
 *    cluster per worker, minimizing the signal traffic that crosses
 *    partitions.  Each cycle the simulator thread runs the
 *    idle-skip pass serially (decisions identical to the serial
 *    engine), then the workers update the active boxes — stealing
 *    whole boxes from loaded neighbours when their own partition
 *    runs dry — and each partition's owner commits its boxes in
 *    canonical box-index order.  One barrier per cycle, none at all
 *    when at most one partition has active boxes.
 *
 * A SimError raised inside a box (signal bandwidth/data-loss checks)
 * is rethrown on the simulator thread; when several boxes fail in
 * the same cycle the earliest phase and then the lowest-indexed box
 * wins, matching the serial engine's first-failure semantics.
 */

#ifndef ATTILA_SIM_SCHEDULER_HH
#define ATTILA_SIM_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/box.hh"
#include "sim/types.hh"

namespace attila::sim
{

/** Engine that advances the boxes by one cycle. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual const char* name() const = 0;

    /** Worker threads used (1 for the serial engine). */
    virtual u32 threadCount() const { return 1; }

    /**
     * Run cycle @p cycle of @p boxes: phase A (update) for every
     * box, then phase B (propagate).  With idle skipping enabled,
     * boxes that are provably idle (Box::idleAt) skip both phases.
     * Returns true when idle skipping skipped every box, which is
     * what the simulator's fast-forward check needs.
     */
    virtual bool clock(const std::vector<Box*>& boxes, Cycle cycle) = 0;

    /**
     * Enable or disable idle skipping (default on).  Disabling
     * restores the always-clock reference path: every box runs both
     * phases every cycle, exactly as before the activity contract
     * existed.  Observables are identical either way; the switch
     * exists for debugging and A/B benchmarking.
     */
    void setIdleSkip(bool enable) { _idleSkip = enable; }
    bool idleSkip() const { return _idleSkip; }

  private:
    bool _idleSkip = true;
};

/** Reference single-threaded engine. */
class SerialScheduler final : public Scheduler
{
  public:
    const char* name() const override { return "serial"; }

    bool
    clock(const std::vector<Box*>& boxes, Cycle cycle) override
    {
        if (!idleSkip()) {
            // Always-clock reference path; beginUpdate still
            // retires expired wake hints so toggling the mode
            // mid-run cannot leave stale ones behind.
            for (Box* box : boxes)
                box->beginUpdate(cycle);
            for (Box* box : boxes)
                box->propagate(cycle);
            return false;
        }
        bool allIdle = true;
        for (Box* box : boxes) {
            const bool skip = box->idleAt(cycle);
            box->markSkipped(skip);
            if (!skip) {
                allIdle = false;
                box->beginUpdate(cycle);
            }
        }
        for (Box* box : boxes) {
            if (!box->skipped())
                box->propagate(cycle);
        }
        return allIdle;
    }
};

/**
 * Dependency-aware partitioned worker-pool engine.
 *
 * Bind time (first clock of a box list): the box connectivity
 * graph is built from the binder's recorded wiring — every signal
 * has one writer and one reader box — weighted by signal bandwidth,
 * and greedily clustered into one partition per worker so that the
 * heaviest edges stay partition-internal.  The GPU pipeline is
 * nearly linear, so the cut is small and the clusters follow the
 * pipeline stages.
 *
 * Cycle time: the simulator thread makes every skip decision
 * serially (bit-identical to SerialScheduler), builds each
 * partition's active-box list, and dispatches the pool only when
 * two or more partitions have active boxes — a quiescent or
 * single-partition cycle runs inline with no synchronization at
 * all.  Workers drain their own partition's active list through an
 * atomic cursor and then steal whole boxes from other partitions'
 * lists; updates are data-race-free under any assignment because a
 * box's update only touches its own state, its inputs' delivery
 * slots and its outputs' staging buffers.  Each partition's owner
 * then waits for its own update count (stolen boxes included) and
 * commits its boxes in canonical box-index order, preserving the
 * per-signal write order regardless of who ran the updates.  One
 * end-of-cycle barrier joins the pool.
 *
 * Determinism: skip decisions, update effects and per-signal commit
 * order are all independent of the steal schedule, so results are
 * bit-identical to the serial engine (tests/test_determinism.cc).
 */
class ParallelScheduler final : public Scheduler
{
  public:
    /** Partitioning / stealing knobs (gpu_config `engine.*`). */
    struct Options
    {
        /** Idle workers steal active boxes from loaded partitions. */
        bool workSteal = true;
        /** Partition size cap as a percentage of perfect balance
         * (ceil(boxes/threads)); 100 forbids any imbalance from
         * clustering, larger values keep heavy edges uncut. */
        u32 slackPercent = 125;
    };

    /** @param threads Worker threads; 0 picks hardware_concurrency. */
    explicit ParallelScheduler(u32 threads = 0);
    ParallelScheduler(u32 threads, Options options);
    ~ParallelScheduler() override;

    const char* name() const override { return "parallel"; }
    u32 threadCount() const override { return _threads; }
    const Options& schedulerOptions() const { return _options; }

    bool clock(const std::vector<Box*>& boxes, Cycle cycle) override;

    /**
     * Introspection for tests and tools: the partition index of
     * every box of @p boxes in registration order.  Builds (and
     * caches) the same plan the engine runs with.
     */
    std::vector<u32> partitionAssignment(const std::vector<Box*>& boxes);

    /** Signals among @p boxes whose writer and reader land in
     * different partitions (the edge cut, in wires). */
    u32 crossSignals(const std::vector<Box*>& boxes);

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
    u32 _threads;
    Options _options;
};

/**
 * Build a scheduler by name: "serial" or "parallel".  Throws
 * FatalError for unknown kinds.
 */
std::unique_ptr<Scheduler> makeScheduler(
    const std::string& kind, u32 threads = 0,
    ParallelScheduler::Options options = {});

} // namespace attila::sim

#endif // ATTILA_SIM_SCHEDULER_HH
