#include "sim/trace_export.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <tuple>

#include "sim/logging.hh"
#include "sim/statistics.hh"

namespace attila::sim
{

namespace
{

const std::string&
unitName(const std::vector<std::string>& table, u16 unit,
         const char* what)
{
    if (unit >= table.size())
        fatal("event trace: corrupt snapshot — ", what, " id ", unit,
              " outside the name table (", table.size(), " entries)");
    return table[unit];
}

/** Add the span [begin, end) to a per-bucket cycle-count series. */
void
addSpan(std::vector<u64>& buckets, u64 window, Cycle begin, Cycle end)
{
    if (end <= begin)
        return;
    const std::size_t first = begin / window;
    const std::size_t last = (end - 1) / window;
    for (std::size_t k = first;
         k <= last && k < buckets.size(); ++k) {
        const Cycle lo = std::max<Cycle>(begin, k * window);
        const Cycle hi = std::min<Cycle>(end, (k + 1) * window);
        buckets[k] += hi - lo;
    }
}

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Every activity span as (box, begin, exclusive end), in event
 * order. */
std::vector<std::tuple<u16, Cycle, Cycle>>
collectSpans(const EventTraceData& data)
{
    std::vector<std::tuple<u16, Cycle, Cycle>> spans;
    for (const TraceEvent& ev : data.events) {
        if (static_cast<EventKind>(ev.kind) != EventKind::Span)
            continue;
        unitName(data.boxes, ev.unit, "box");
        if (ev.id <= ev.cycle)
            fatal("event trace: corrupt snapshot — span of box ", ev.unit,
                  " ends at cycle ", ev.id, ", not after its begin ",
                  ev.cycle);
        spans.emplace_back(ev.unit, ev.cycle, ev.id);
    }
    return spans;
}

} // anonymous namespace

TraceSeries
aggregateTrace(const EventTraceData& data, u64 window)
{
    if (window == 0)
        fatal("aggregateTrace: window must be >= 1");

    TraceSeries series;
    series.window = window;
    if (data.events.empty())
        return series;

    Cycle maxCycle = 0;
    for (const TraceEvent& ev : data.events)
        maxCycle = std::max(maxCycle, ev.cycle);
    series.buckets = static_cast<std::size_t>(maxCycle / window) + 1;

    auto bucketOf = [&](const std::string& key) -> std::vector<u64>& {
        auto& counts = series.counts[key];
        if (counts.empty())
            counts.resize(series.buckets, 0);
        return counts;
    };

    for (const TraceEvent& ev : data.events) {
        const std::size_t bucket =
            static_cast<std::size_t>(ev.cycle / window);
        switch (static_cast<EventKind>(ev.kind)) {
          case EventKind::SignalWrite:
            bucketOf("signal." +
                     unitName(data.signals, ev.unit, "signal") +
                     ".writes")[bucket] += 1;
            break;
          case EventKind::CacheHit:
            bucketOf(unitName(data.caches, ev.unit, "cache") +
                     ".cacheHits")[bucket] += 1;
            break;
          case EventKind::CacheMiss:
            bucketOf(unitName(data.caches, ev.unit, "cache") +
                     ".cacheMisses")[bucket] += 1;
            break;
          case EventKind::ThreadBegin:
            bucketOf(unitName(data.shaders, ev.unit, "shader") +
                     ".threads")[bucket] += 1;
            break;
          default:
            break;
        }
    }

    for (const auto& [box, begin, end] : collectSpans(data)) {
        addSpan(bucketOf(data.boxes[box] + ".activeCycles"), window,
                begin, end);
    }
    return series;
}

BoxActivity
boxActivity(const EventTraceData& data)
{
    BoxActivity activity;
    for (const TraceEvent& ev : data.events) {
        const bool span =
            static_cast<EventKind>(ev.kind) == EventKind::Span;
        activity.runCycles =
            std::max<u64>(activity.runCycles, span ? ev.id : ev.cycle + 1);
    }
    for (const std::string& box : data.boxes)
        activity.clocked.emplace_back(box, 0);
    for (const auto& [box, begin, end] : collectSpans(data))
        activity.clocked[box].second += end - begin;
    return activity;
}

void
printBoxActivity(std::ostream& os, const BoxActivity& activity)
{
    const auto share = [&](u64 cycles, u64 of) {
        std::ostringstream s;
        s << std::fixed << std::setprecision(2)
          << (of == 0 ? 0.0 : 100.0 * static_cast<double>(cycles) /
                                  static_cast<double>(of))
          << '%';
        return s.str();
    };
    os << "box activity (clocked cycles of " << activity.runCycles
       << "):\n"
       << "  " << std::left << std::setw(24) << "box" << std::right
       << std::setw(12) << "clocked" << std::setw(10) << "share"
       << "\n";
    u64 total = 0;
    for (const auto& [box, cycles] : activity.clocked) {
        os << "  " << std::left << std::setw(24) << box << std::right
           << std::setw(12) << cycles << std::setw(10)
           << share(cycles, activity.runCycles) << "\n";
        total += cycles;
    }
    os << "  " << std::left << std::setw(24) << "all boxes"
       << std::right << std::setw(12) << total << std::setw(10)
       << share(total, activity.runCycles * activity.clocked.size())
       << "  (box updates; active ratio)\n";
}

std::vector<std::string>
crossCheckStats(const TraceSeries& series,
                const StatisticManager& stats)
{
    std::vector<std::string> mismatches;
    std::size_t compared = 0;
    for (const auto& [key, counts] : series.counts) {
        // Utilization series are derived from spans; no statistic
        // counts "active cycles", so there is nothing to compare.
        if (endsWith(key, ".activeCycles"))
            continue;
        const Statistic* stat = stats.find(key);
        if (!stat) {
            mismatches.push_back("series '" + key +
                                 "' has no registered statistic");
            continue;
        }
        ++compared;
        const auto& samples = stat->samples();
        for (std::size_t w = 0; w < samples.size(); ++w) {
            const u64 expect = w < counts.size() ? counts[w] : 0;
            if (samples[w] != expect) {
                mismatches.push_back(
                    "series '" + key + "' window " +
                    std::to_string(w) + ": trace " +
                    std::to_string(expect) + " vs stat " +
                    std::to_string(samples[w]));
                break;
            }
        }
        const u64 sum = std::accumulate(counts.begin(), counts.end(),
                                        u64{0});
        if (sum != stat->total()) {
            mismatches.push_back(
                "series '" + key + "' total: trace " +
                std::to_string(sum) + " vs stat " +
                std::to_string(stat->total()));
        }
    }
    if (compared == 0)
        mismatches.push_back(
            "no trace series had a statistic to cross-check against");
    return mismatches;
}

std::string
chromeTraceJson(const EventTraceData& data, u64 window)
{
    if (window == 0)
        fatal("chromeTraceJson: window must be >= 1");

    std::ostringstream os;
    os << "{\"traceEvents\":[\n";
    bool firstEvent = true;
    auto next = [&]() -> std::ostringstream& {
        if (!firstEvent)
            os << ",\n";
        firstEvent = false;
        return os;
    };

    next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
              "\"args\":{\"name\":\"ATTILA GPU\"}}";
    for (std::size_t i = 0; i < data.boxes.size(); ++i) {
        next() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":"
               << i << ",\"args\":{\"name\":\""
               << jsonEscape(data.boxes[i]) << "\"}}";
    }

    // Box activity spans: one track per box, one duration event per
    // span.  Cycles map 1:1 onto microseconds.
    for (const auto& [box, begin, end] : collectSpans(data)) {
        next() << "{\"name\":\"active\",\"cat\":\"box\",\"ph\":\"X\","
                  "\"ts\":"
               << begin << ",\"dur\":" << (end - begin)
               << ",\"pid\":0,\"tid\":" << box << "}";
    }

    // Aggregated series as counter tracks (the Figure 8/9 views).
    const TraceSeries series = aggregateTrace(data, window);
    for (const auto& [key, counts] : series.counts) {
        const std::string name = jsonEscape(key);
        for (std::size_t k = 0; k < counts.size(); ++k) {
            next() << "{\"name\":\"" << name
                   << "\",\"ph\":\"C\",\"pid\":0,\"ts\":"
                   << k * window << ",\"args\":{\"value\":"
                   << counts[k] << "}}";
        }
    }

    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
          "\"window\":\""
       << window << "\",\"events\":\"" << data.events.size()
       << "\",\"dropped\":\"" << data.dropped << "\"}}\n";
    return os.str();
}

void
writeChromeTraceJson(const EventTraceData& data, u64 window,
                     const std::string& path)
{
    std::ofstream out(path);
    if (!out)
        fatal("event trace: cannot open '", path, "' for writing");
    out << chromeTraceJson(data, window);
    if (!out)
        fatal("event trace: write error on '", path, "'");
}

} // namespace attila::sim
