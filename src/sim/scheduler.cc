#include "sim/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/box.hh"
#include "sim/logging.hh"

namespace attila::sim
{

namespace
{

/**
 * One worker's share of the boxes: a cluster of boxes chosen so
 * that the heaviest signal edges stay internal.  The per-cycle fields
 * (active list, cursor, update counter) are reset by the simulator
 * thread before each dispatch; the atomics live on their own cache
 * lines because they are the only words hammered cross-thread.
 */
struct Partition
{
    /** Member boxes in canonical (registration) order. */
    std::vector<Box*> boxes;
    /** Global box index of boxes[i]; for error attribution. */
    std::vector<u32> indices;
    /** This cycle's non-skipped members, as offsets into boxes. */
    std::vector<u32> active;
    /** Next active entry to update; thieves fetch_add past the end
     * harmlessly. */
    alignas(64) std::atomic<u32> cursor{0};
    /** Updates still outstanding this cycle (stolen ones included);
     * the owner may only commit once this hits zero. */
    alignas(64) std::atomic<u32> updatesLeft{0};
};

/** Cached execution plan for one box list. */
struct Plan
{
    const std::vector<Box*>* boxes = nullptr;
    std::size_t boxCount = 0;
    /** Box index -> partition index. */
    std::vector<u32> partitionOf;
    /** Box index -> offset inside its partition's boxes vector. */
    std::vector<u32> offsetOf;
    /** deque: Partition holds atomics and must never relocate. */
    std::deque<Partition> parts;
    /** Signals whose writer and reader land in different
     * partitions (the edge cut). */
    u32 crossSignals = 0;
};

/**
 * Build the execution plan for @p boxes: recover the box
 * connectivity graph from the registered signal wiring, cluster it
 * greedily so the heaviest edges stay partition-internal, and place
 * the clusters on min(threads, boxes) partitions longest-first.
 * Fully deterministic: ties break towards the lowest box index at
 * every step, so the same graph always yields the same partitions.
 */
void
buildPlan(Plan& plan, const std::vector<Box*>& boxes, u32 threads,
          u32 slackPercent)
{
    const u32 n = static_cast<u32>(boxes.size());
    const u32 partCount = std::min(threads, std::max(1u, n));

    plan.boxes = &boxes;
    plan.boxCount = n;
    plan.partitionOf.assign(n, 0);
    plan.offsetOf.assign(n, 0);
    plan.parts.clear();
    for (u32 p = 0; p < partCount; ++p)
        plan.parts.emplace_back();
    plan.crossSignals = 0;
    if (n == 0)
        return;

    // Reader lookup: the binder enforces a single reader per signal,
    // so each box's registered inputs invert into a signal -> reader
    // map.  Signals whose reader is not in the list simply
    // contribute no edge.
    std::unordered_map<const Signal*, u32> readerOf;
    for (u32 i = 0; i < n; ++i) {
        for (const Signal* s : boxes[i]->inputSignals())
            readerOf.emplace(s, i);
    }

    // Box-pair edge weights: the modelled per-cycle traffic capacity
    // (sum of signal bandwidths) between the two boxes, both
    // directions folded into one undirected edge.
    std::map<std::pair<u32, u32>, u64> edges;
    for (u32 i = 0; i < n; ++i) {
        for (const Signal* s : boxes[i]->outputSignals()) {
            auto it = readerOf.find(s);
            if (it == readerOf.end() || it->second == i)
                continue;
            const u32 j = it->second;
            edges[{std::min(i, j), std::max(i, j)}] += s->bandwidth();
        }
    }

    // Greedy agglomerative clustering.  Every box starts as its own
    // cluster; repeatedly merge the heaviest-edge cluster pair whose
    // merged size respects the balance cap.  A cluster's id is its
    // lowest member box index (merges keep the smaller id), which
    // makes the tie-break "lowest id pair wins" well-defined.
    const u32 ideal = (n + partCount - 1) / partCount;
    const u32 cap = std::max<u32>(
        1, static_cast<u32>(static_cast<u64>(ideal) * slackPercent /
                            100));

    std::vector<u32> clusterOf(n);
    std::vector<u32> clusterSize(n, 1);
    std::vector<bool> alive(n, true);
    for (u32 i = 0; i < n; ++i)
        clusterOf[i] = i;
    u32 aliveCount = n;

    while (aliveCount > partCount) {
        // Re-accumulate cluster-pair weights from the box edges; the
        // graph is pipeline-sized, so the rescan is trivial.
        std::map<std::pair<u32, u32>, u64> cw;
        for (const auto& [pair, weight] : edges) {
            u32 a = clusterOf[pair.first];
            u32 b = clusterOf[pair.second];
            if (a == b)
                continue;
            cw[{std::min(a, b), std::max(a, b)}] += weight;
        }
        bool merged = false;
        std::pair<u32, u32> best{0, 0};
        u64 bestWeight = 0;
        for (const auto& [pair, weight] : cw) {
            if (clusterSize[pair.first] + clusterSize[pair.second] >
                cap) {
                continue;
            }
            // Strict > : equal weights keep the earlier (lower id)
            // pair thanks to std::map iteration order.
            if (!merged || weight > bestWeight) {
                merged = true;
                best = pair;
                bestWeight = weight;
            }
        }
        if (!merged)
            break;
        for (u32 i = 0; i < n; ++i) {
            if (clusterOf[i] == best.second)
                clusterOf[i] = best.first;
        }
        clusterSize[best.first] += clusterSize[best.second];
        alive[best.second] = false;
        --aliveCount;
    }

    // Place clusters on partitions longest-processing-time first:
    // biggest cluster to the least-loaded partition.  Deterministic
    // ties again: equal sizes order by cluster id, equal loads pick
    // the lowest partition index.
    std::vector<u32> order;
    for (u32 c = 0; c < n; ++c) {
        if (alive[c])
            order.push_back(c);
    }
    std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
        if (clusterSize[a] != clusterSize[b])
            return clusterSize[a] > clusterSize[b];
        return a < b;
    });
    std::vector<u32> load(partCount, 0);
    std::vector<u32> partitionOfCluster(n, 0);
    for (u32 c : order) {
        u32 target = 0;
        for (u32 p = 1; p < partCount; ++p) {
            if (load[p] < load[target])
                target = p;
        }
        partitionOfCluster[c] = target;
        load[target] += clusterSize[c];
    }

    for (u32 i = 0; i < n; ++i)
        plan.partitionOf[i] = partitionOfCluster[clusterOf[i]];

    // Fill the partitions in canonical box order; the offset table
    // lets the per-cycle skip pass append to active lists in O(1).
    for (u32 i = 0; i < n; ++i) {
        Partition& part = plan.parts[plan.partitionOf[i]];
        plan.offsetOf[i] = static_cast<u32>(part.boxes.size());
        part.boxes.push_back(boxes[i]);
        part.indices.push_back(i);
        part.active.reserve(part.boxes.size());
    }

    for (u32 i = 0; i < n; ++i) {
        for (const Signal* s : boxes[i]->outputSignals()) {
            auto it = readerOf.find(s);
            if (it == readerOf.end())
                continue;
            if (plan.partitionOf[i] != plan.partitionOf[it->second])
                ++plan.crossSignals;
        }
    }
}

} // namespace

/**
 * Shared state between the simulator thread and the worker pool.
 *
 * One job per dispatched cycle (quiescent and single-partition
 * cycles never reach the pool): the simulator thread publishes the
 * job with a generation bump, acts as worker 0 itself, and the whole
 * pool joins one end-of-cycle barrier.  Inside the job, phase A is a
 * cursor race over each partition's active list (with stealing) and
 * phase B is each owner committing its own partition in canonical
 * order once its update counter drains.
 */
struct ParallelScheduler::Impl
{
    Impl(u32 thread_count, bool steal, u32 slack)
        : threads(thread_count), workSteal(steal),
          slackPercent(std::max(100u, slack))
    {
        // The simulator thread is worker 0; the pool provides the
        // other threads - 1.
        workers.reserve(threads - 1);
        for (u32 w = 1; w < threads; ++w)
            workers.emplace_back([this, w] { workerMain(w); });
    }

    ~Impl()
    {
        {
            std::lock_guard<std::mutex> lock(wakeMutex);
            stop.store(true, std::memory_order_relaxed);
        }
        wakeCv.notify_all();
        for (std::thread& t : workers)
            t.join();
    }

    /** The cached plan for @p boxes, rebuilt when the list or its
     * population changes. */
    Plan&
    planFor(const std::vector<Box*>& boxes)
    {
        if (cachedPlan.boxes != &boxes ||
            cachedPlan.boxCount != boxes.size())
            buildPlan(cachedPlan, boxes, threads, slackPercent);
        return cachedPlan;
    }

    void
    recordError(int phase_rank, u32 box_index)
    {
        std::lock_guard<std::mutex> lock(errorMutex);
        errors.push_back(
            {phase_rank, box_index, std::current_exception()});
    }

    /**
     * Rethrow the earliest failure: lowest phase, then lowest box
     * index — the error the serial engine would have hit first.
     */
    void
    rethrowFirstError()
    {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (errors.empty())
            return;
        auto it = std::min_element(
            errors.begin(), errors.end(),
            [](const ErrorRecord& a, const ErrorRecord& b) {
                if (a.phase != b.phase)
                    return a.phase < b.phase;
                return a.boxIndex < b.boxIndex;
            });
        std::exception_ptr err = it->error;
        errors.clear();
        std::rethrow_exception(err);
    }

    /**
     * One participant's share of the dispatched cycle.  Safe under
     * any box-to-thread assignment: phase A only touches a box's own
     * state, its inputs' delivery slots and its outputs' staging
     * buffers, none of which another box's phase A can reach.
     */
    void
    runWorker(u32 w)
    {
        Plan& pl = *plan;
        const Cycle c = cycle;
        const u32 partCount = static_cast<u32>(pl.parts.size());

        // Phase A: drain the own partition first, then rotate over
        // the neighbours stealing leftover boxes.  Without stealing
        // a worker only ever sees its own partition.
        const u32 scans =
            workSteal ? partCount : (w < partCount ? 1u : 0u);
        for (u32 r = 0; r < scans; ++r) {
            Partition& p = pl.parts[(w + r) % partCount];
            for (;;) {
                const u32 slot =
                    p.cursor.fetch_add(1, std::memory_order_relaxed);
                if (slot >= p.active.size())
                    break;
                const u32 off = p.active[slot];
                Box* box = p.boxes[off];
                try {
                    box->beginUpdate(c);
                } catch (...) {
                    recordError(0, p.indices[off]);
                    // Suppress the commit of the corrupt box; the
                    // release decrement below orders this write for
                    // the owner.
                    box->markSkipped(true);
                }
                p.updatesLeft.fetch_sub(1,
                                        std::memory_order_release);
            }
        }

        // Phase B: each owner waits for its own partition's updates
        // (wherever they ran) and commits in canonical box order, so
        // the per-signal write order never depends on the steal
        // schedule.
        if (w < partCount) {
            Partition& p = pl.parts[w];
            u32 spin = 0;
            while (p.updatesLeft.load(std::memory_order_acquire) !=
                   0) {
                if ((++spin & 63u) == 0)
                    std::this_thread::yield();
            }
            for (u32 off : p.active) {
                Box* box = p.boxes[off];
                if (box->skipped())
                    continue;
                try {
                    box->propagate(c);
                } catch (...) {
                    recordError(1, p.indices[off]);
                }
            }
        }
    }

    void
    workerMain(u32 index)
    {
        u64 seen = 0;
        for (;;) {
            // Spin briefly before sleeping: the inter-cycle gap is
            // normally far shorter than a futex round trip.
            bool woke = false;
            for (u32 spin = 0; spin < 4096; ++spin) {
                if (generation.load(std::memory_order_acquire) !=
                        seen ||
                    stop.load(std::memory_order_relaxed)) {
                    woke = true;
                    break;
                }
                if ((spin & 63) == 63)
                    std::this_thread::yield();
            }
            if (!woke) {
                std::unique_lock<std::mutex> lock(wakeMutex);
                wakeCv.wait(lock, [&] {
                    return generation.load(
                               std::memory_order_acquire) != seen ||
                           stop.load(std::memory_order_relaxed);
                });
            }
            if (stop.load(std::memory_order_relaxed))
                return;
            seen = generation.load(std::memory_order_acquire);

            runWorker(index);

            if (remaining.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
                std::lock_guard<std::mutex> lock(doneMutex);
                doneCv.notify_one();
            }
        }
    }

    /** Publish the job, work as worker 0, join the end barrier. */
    void
    dispatch()
    {
        const u32 participants =
            1 + static_cast<u32>(workers.size());
        remaining.store(participants, std::memory_order_relaxed);
        {
            // The lock pairs with the workers' predicate check so a
            // generation bump can never slip between a worker's
            // check and its sleep (lost-wakeup).
            std::lock_guard<std::mutex> lock(wakeMutex);
            generation.fetch_add(1, std::memory_order_release);
        }
        wakeCv.notify_all();

        runWorker(0);

        if (remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
            for (u32 spin = 0; spin < 4096; ++spin) {
                if (remaining.load(std::memory_order_acquire) == 0)
                    return;
                if ((spin & 63) == 63)
                    std::this_thread::yield();
            }
            std::unique_lock<std::mutex> lock(doneMutex);
            doneCv.wait(lock, [&] {
                return remaining.load(std::memory_order_acquire) ==
                       0;
            });
        }
    }

    u32 threads;
    bool workSteal;
    u32 slackPercent;
    std::vector<std::thread> workers;

    // Job descriptor; written by the simulator thread before the
    // generation release-store, read by workers after the acquire.
    Plan* plan = nullptr;
    Cycle cycle = 0;

    std::atomic<u64> generation{0};
    std::atomic<u32> remaining{0};
    std::atomic<bool> stop{false};

    std::mutex wakeMutex;
    std::condition_variable wakeCv;
    std::mutex doneMutex;
    std::condition_variable doneCv;

    struct ErrorRecord
    {
        int phase;
        u32 boxIndex;
        std::exception_ptr error;
    };
    std::mutex errorMutex;
    std::vector<ErrorRecord> errors;

    Plan cachedPlan;
};

ParallelScheduler::ParallelScheduler(u32 threads)
    : ParallelScheduler(threads, Options{})
{}

ParallelScheduler::ParallelScheduler(u32 threads, Options options)
    : _threads(threads != 0
                   ? threads
                   : std::max(1u,
                              std::thread::hardware_concurrency())),
      _options(options)
{
    _impl = std::make_unique<Impl>(_threads, _options.workSteal,
                                   _options.slackPercent);
}

ParallelScheduler::~ParallelScheduler() = default;

bool
ParallelScheduler::clock(const std::vector<Box*>& boxes, Cycle cycle)
{
    Impl& im = *_impl;
    Plan& plan = im.planFor(boxes);
    const bool skipping = idleSkip();

    // Serial skip pass: every decision is made here, on this thread,
    // before any box runs — bit-identical to SerialScheduler's pass
    // and immune to mid-cycle commits from other partitions.  It
    // doubles as the active-list builder.
    for (Partition& p : plan.parts)
        p.active.clear();
    u32 activeTotal = 0;
    u32 activeParts = 0;
    for (u32 i = 0; i < boxes.size(); ++i) {
        const bool skip = skipping && boxes[i]->idleAt(cycle);
        boxes[i]->markSkipped(skip);
        if (!skip) {
            Partition& p = plan.parts[plan.partitionOf[i]];
            if (p.active.empty())
                ++activeParts;
            p.active.push_back(plan.offsetOf[i]);
            ++activeTotal;
        }
    }

    // Quiescent cycle: nothing to run, nothing to synchronize.
    if (activeTotal == 0)
        return skipping;

    // Degenerate cycles run inline: a single active partition has no
    // cross-partition traffic this cycle, and a couple of boxes are
    // cheaper to run than to hand to the pool.  The inline path is
    // exactly the serial engine (canonical order, immediate throw).
    if (im.workers.empty() || activeParts <= 1 || activeTotal <= 2) {
        for (Box* box : boxes) {
            if (!box->skipped())
                box->beginUpdate(cycle);
        }
        for (Box* box : boxes) {
            if (!box->skipped())
                box->propagate(cycle);
        }
        return false;
    }

    for (Partition& p : plan.parts) {
        p.cursor.store(0, std::memory_order_relaxed);
        p.updatesLeft.store(static_cast<u32>(p.active.size()),
                            std::memory_order_relaxed);
    }
    im.plan = &plan;
    im.cycle = cycle;
    im.dispatch();
    im.rethrowFirstError();
    return false;
}

std::vector<u32>
ParallelScheduler::partitionAssignment(const std::vector<Box*>& boxes)
{
    return _impl->planFor(boxes).partitionOf;
}

u32
ParallelScheduler::crossSignals(const std::vector<Box*>& boxes)
{
    return _impl->planFor(boxes).crossSignals;
}

std::unique_ptr<Scheduler>
makeScheduler(const std::string& kind, u32 threads,
              ParallelScheduler::Options options)
{
    if (kind == "serial")
        return std::make_unique<SerialScheduler>();
    if (kind == "parallel")
        return std::make_unique<ParallelScheduler>(threads, options);
    fatal("unknown scheduler kind '", kind,
          "' (expected 'serial' or 'parallel')");
}

} // namespace attila::sim
