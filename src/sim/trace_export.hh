/**
 * @file
 * Event trace export and aggregation.
 *
 * Two consumers of an EventTraceData snapshot:
 *
 *  - aggregateTrace() folds the event stream into per-window count
 *    series under the same names the StatisticManager uses
 *    ("signal.<name>.writes", "<cache>.cacheHits", ...), which is
 *    what regenerates the paper's Figure 8 (texture cache behaviour)
 *    and Figure 9 (unit utilization) time series from a trace alone.
 *    crossCheckStats() then proves trace and statistics agree window
 *    by window — the trace is validated against an independently
 *    collected ground truth, not against itself.
 *
 *  - writeChromeTraceJson() renders the snapshot as a Chrome-tracing
 *    / Perfetto JSON file: box activity spans become duration events
 *    on one track per box, and the aggregated series become counter
 *    tracks, so a fig10 run can be opened directly in
 *    ui.perfetto.dev.
 */

#ifndef ATTILA_SIM_TRACE_EXPORT_HH
#define ATTILA_SIM_TRACE_EXPORT_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/event_trace.hh"

namespace attila::sim
{

class StatisticManager;

/** Per-window event-count series keyed by statistic-style names. */
struct TraceSeries
{
    u64 window = 0;       ///< Cycles per bucket.
    std::size_t buckets = 0; ///< Buckets covering [0, maxCycle].
    /** Counts per bucket; missing trailing buckets are zero. */
    std::map<std::string, std::vector<u64>> counts;
};

/**
 * Aggregate @p data into @p window -cycle buckets.  Emitted series:
 *  - "signal.<name>.writes"  — SignalWrite counts;
 *  - "<cache>.cacheHits" / "<cache>.cacheMisses";
 *  - "<shader>.threads"      — thread slots allocated;
 *  - "<box>.activeCycles"    — cycles covered by activity spans
 *    (utilization; derived from spans, no statistic counterpart).
 * @p window must be >= 1.
 */
TraceSeries aggregateTrace(const EventTraceData& data, u64 window);

/**
 * Compare every series that has a StatisticManager counterpart (all
 * but "<box>.activeCycles") against the statistic's closed windows
 * and lifetime total.  Requires @p series.window to equal the
 * manager's sampling window for the per-window comparison to be
 * meaningful.  Returns human-readable mismatch descriptions; empty
 * means every comparable series matched and at least one series was
 * actually compared.
 */
std::vector<std::string>
crossCheckStats(const TraceSeries& series,
                const StatisticManager& stats);

/** Clocked cycles per box over a trace. */
struct BoxActivity
{
    /** Cycles from 0 to the end of the last event. */
    u64 runCycles = 0;
    /** Box name and the cycles its activity spans cover, in
     * registration order. */
    std::vector<std::pair<std::string, u64>> clocked;
};

/** The clocked cycles of every box of @p data, from its activity
 * spans (the scheduler opens a span when it clocks a box and closes
 * it when it skips the box). */
BoxActivity boxActivity(const EventTraceData& data);

/** Print @p activity as a table: one row per box with its clocked
 * cycles and their share of the run, then the total over all boxes
 * (box updates) and the active ratio. */
void printBoxActivity(std::ostream& os, const BoxActivity& activity);

/**
 * Render @p data as Chrome-tracing JSON ("traceEvents" array with
 * metadata, duration and counter events; timestamps are cycles
 * expressed as microseconds).  @p window sizes the counter buckets.
 */
std::string chromeTraceJson(const EventTraceData& data, u64 window);

/** chromeTraceJson() straight to @p path; FatalError on I/O error. */
void writeChromeTraceJson(const EventTraceData& data, u64 window,
                          const std::string& path);

} // namespace attila::sim

#endif // ATTILA_SIM_TRACE_EXPORT_HH
