#include "sim/signal_binder.hh"

#include <algorithm>

#include "sim/box.hh"
#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/statistics.hh"

namespace attila::sim
{

Signal*
SignalBinder::registerSignal(Box* box, const std::string& name,
                             Direction dir, u32 bandwidth, u32 latency,
                             SignalKind kind)
{
    if (!box)
        panic("signal '", name, "': registered without a box");

    auto it = _entries.find(name);
    if (it == _entries.end()) {
        Entry entry;
        entry.signal = std::make_unique<Signal>(name, bandwidth,
                                                latency, kind);
        if (_tracer)
            entry.signal->setTracer(_tracer);
        if (_eventTrace) {
            entry.signal->setEventTrace(
                _eventTrace, _eventTrace->registerSignal(name));
        }
        if (_stats) {
            entry.signal->setWriteStat(
                &_stats->get("signal." + name, "writes"));
        }
        entry.signal->setBuffered(_buffered);
        it = _entries.emplace(name, std::move(entry)).first;
    } else {
        Signal* sig = it->second.signal.get();
        if (sig->bandwidth() != bandwidth ||
            sig->latency() != latency) {
            fatal("signal '", name, "': interface mismatch — box '",
                  box->name(), "' registered bandwidth ", bandwidth,
                  " latency ", latency, " but the signal was created",
                  " with bandwidth ", sig->bandwidth(), " latency ",
                  sig->latency());
        }
        if (sig->kind() != kind) {
            fatal("signal '", name, "': interface mismatch — box '",
                  box->name(), "' registered a ", signalKindName(kind),
                  " wire but the signal was created as a ",
                  signalKindName(sig->kind()), " wire");
        }
    }

    Entry& entry = it->second;
    if (dir == Direction::Out) {
        if (entry.writer) {
            fatal("signal '", name, "': both '",
                  entry.writer->name(), "' and '", box->name(),
                  "' registered as writer");
        }
        entry.writer = box;
        const std::size_t index = box->_outputSignals.size();
        entry.signal->bindWriterDirty(
            &box->_dirtyOutputs,
            u64{1} << std::min<std::size_t>(index,
                                            Box::kSharedDirtyBit));
        box->_outputSignals.push_back(entry.signal.get());
    } else {
        if (entry.reader) {
            fatal("signal '", name, "': both '",
                  entry.reader->name(), "' and '", box->name(),
                  "' registered as reader");
        }
        entry.reader = box;
        entry.signal->bindReaderLive(&box->_liveInputs);
        box->_inputSignals.push_back(entry.signal.get());
    }
    return entry.signal.get();
}

Signal*
SignalBinder::find(const std::string& name) const
{
    auto it = _entries.find(name);
    return it == _entries.end() ? nullptr : it->second.signal.get();
}

void
SignalBinder::checkConnectivity() const
{
    std::string dangling;
    for (const auto& [name, entry] : _entries) {
        if (!entry.writer)
            dangling += "\n  '" + name + "' has no writer";
        if (!entry.reader)
            dangling += "\n  '" + name + "' has no reader";
    }
    if (!dangling.empty())
        fatal("unconnected signals:", dangling);
}

void
SignalBinder::setBuffered(bool buffered)
{
    _buffered = buffered;
    for (auto& [name, entry] : _entries)
        entry.signal->setBuffered(buffered);
}

u64
SignalBinder::totalInFlight() const
{
    u64 count = 0;
    for (const auto& [name, entry] : _entries)
        count += entry.signal->inFlight();
    return count;
}

u64
SignalBinder::totalWrites() const
{
    u64 count = 0;
    for (const auto& [name, entry] : _entries)
        count += entry.signal->totalWrites();
    return count;
}

void
SignalBinder::setTracer(SignalTraceWriter* tracer)
{
    _tracer = tracer;
    for (auto& [name, entry] : _entries)
        entry.signal->setTracer(tracer);
}

void
SignalBinder::setEventTrace(EventTrace* trace)
{
    _eventTrace = trace;
    if (!trace)
        return;
    for (auto& [name, entry] : _entries) {
        entry.signal->setEventTrace(trace,
                                    trace->registerSignal(name));
    }
}

void
SignalBinder::attachStatistics(StatisticManager& stats)
{
    _stats = &stats;
    for (auto& [name, entry] : _entries) {
        entry.signal->setWriteStat(
            &stats.get("signal." + name, "writes"));
    }
}

std::vector<std::string>
SignalBinder::signalNames() const
{
    std::vector<std::string> out;
    out.reserve(_entries.size());
    for (const auto& [name, entry] : _entries)
        out.push_back(name);
    return out;
}

std::string
SignalBinder::writerOf(const std::string& name) const
{
    auto it = _entries.find(name);
    if (it == _entries.end() || !it->second.writer)
        return "";
    return it->second.writer->name();
}

std::string
SignalBinder::readerOf(const std::string& name) const
{
    auto it = _entries.find(name);
    if (it == _entries.end() || !it->second.reader)
        return "";
    return it->second.reader->name();
}

} // namespace attila::sim
