/**
 * @file
 * Signal trace output for the Signal Trace Visualizer.
 *
 * When enabled, every object written into a traced signal emits one
 * record: cycle, signal name, object id, cookie trail, color and info
 * string.  Every token written into a token wire (link credits)
 * emits one record too, with kTokenTraceId as its object id, an empty
 * trail, color 0 and empty info.  The SignalTraceReader parses the
 * file back and computes per-signal occupancy, which the visualizer
 * example renders as an ASCII timeline for performance debugging.
 */

#ifndef ATTILA_SIM_SIGNAL_TRACE_HH
#define ATTILA_SIM_SIGNAL_TRACE_HH

#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/dynamic_object.hh"
#include "sim/types.hh"

namespace attila::sim
{

/** Object id field of a token record (tokens have no identity). */
inline constexpr u64 kTokenTraceId = ~u64{0};

/** Streams signal activity records to a trace file. */
class SignalTraceWriter
{
  public:
    /** Opens @p path for writing; throws FatalError on failure. */
    explicit SignalTraceWriter(const std::string& path);
    ~SignalTraceWriter();

    /**
     * Record one object entering @p signal_name at @p cycle.
     * Serialized internally; note that record *order* is only
     * deterministic under the serial scheduler (the Gpu forces it
     * when tracing is enabled).
     */
    void record(Cycle cycle, const std::string& signal_name,
                const DynamicObject& obj);

    /** Record one token entering the token wire @p signal_name. */
    void recordToken(Cycle cycle, const std::string& signal_name);

    /** Flush buffered records to disk. */
    void flush();

    u64 recordCount() const { return _records; }

  private:
    std::mutex _mutex;
    std::ofstream _out;
    u64 _records = 0;
};

/** One parsed record from a signal trace file. */
struct SignalTraceRecord
{
    Cycle cycle = 0;
    std::string signal;
    u64 objectId = 0;
    std::string trail;
    u32 color = 0;
    std::string info;
};

/** Parses signal trace files and derives per-signal activity. */
class SignalTraceReader
{
  public:
    /** Parse the whole trace at @p path; throws FatalError on I/O or
     * parse errors. */
    explicit SignalTraceReader(const std::string& path);

    const std::vector<SignalTraceRecord>& records() const
    {
        return _records;
    }

    /** All signal names seen in the trace, sorted. */
    std::vector<std::string> signalNames() const;

    /**
     * Number of objects written into @p signal within
     * [@p from, @p to).
     */
    u64 activity(const std::string& signal, Cycle from, Cycle to) const;

    Cycle firstCycle() const { return _firstCycle; }
    Cycle lastCycle() const { return _lastCycle; }

  private:
    std::vector<SignalTraceRecord> _records;
    std::map<std::string, std::vector<Cycle>> _bySignal;
    Cycle _firstCycle = 0;
    Cycle _lastCycle = 0;
};

} // namespace attila::sim

#endif // ATTILA_SIM_SIGNAL_TRACE_HH
