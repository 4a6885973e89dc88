/**
 * @file
 * SignalBinder: the name server that creates signals and binds them
 * to the boxes they connect.
 *
 * A signal is registered twice — once by its writer (Direction::Out)
 * and once by its reader (Direction::In) — under the same unique
 * name.  The binder checks that both registrations agree on bandwidth,
 * latency and kind (object or token wire), which is how the model
 * guarantees that two boxes agree on their interface.  A box can then
 * be swapped for an alternative implementation as long as it
 * registers the same signals.  The binder also wires each signal to
 * its writer box's dirty-output mask and to its reader box's
 * live-input counter (see sim/box.hh).
 *
 * Unlike the paper's static class, each Simulator owns its own binder
 * so that multiple GPUs can be simulated in one process (e.g. in the
 * test suite).
 */

#ifndef ATTILA_SIM_SIGNAL_BINDER_HH
#define ATTILA_SIM_SIGNAL_BINDER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/signal.hh"

namespace attila::sim
{

class Box;
class EventTrace;
class StatisticManager;

/** Signal registration direction relative to the registering box. */
enum class Direction { In, Out };

/** Creates, names and connects signals between boxes. */
class SignalBinder
{
  public:
    /**
     * Register one end of the signal @p name for @p box.  The first
     * registration creates the signal; the second must match
     * bandwidth, latency and kind and take the opposite direction.
     * Returns the shared Signal.
     */
    Signal* registerSignal(Box* box, const std::string& name,
                           Direction dir, u32 bandwidth, u32 latency,
                           SignalKind kind = SignalKind::Object);

    /** Look a signal up by name; nullptr when absent. */
    Signal* find(const std::string& name) const;

    /**
     * Switch every signal (current and future) into two-phase
     * buffered-write mode; see Signal::setBuffered().  Enabled by the
     * Simulator, off for standalone binders in unit tests.
     */
    void setBuffered(bool buffered);
    bool buffered() const { return _buffered; }

    /** Sum of Signal::inFlight() over every signal. */
    u64 totalInFlight() const;

    /** Sum of Signal::totalWrites() over every signal. */
    u64 totalWrites() const;

    /**
     * Verify that every registered signal has both a writer and a
     * reader; throws FatalError listing the dangling ends otherwise.
     */
    void checkConnectivity() const;

    /**
     * Attach the structured event trace to every signal (current and
     * future), registering each signal's name for a unit id.  The
     * map iteration order makes the id assignment deterministic.
     */
    void setEventTrace(EventTrace* trace);

    /**
     * Register a per-signal traffic statistic
     * ("signal.<name>.writes") for every current and future signal.
     */
    void attachStatistics(StatisticManager& stats);

    /** Names of all registered signals, sorted. */
    std::vector<std::string> signalNames() const;

    /** Writer / reader box names for a signal ("" when unbound). */
    std::string writerOf(const std::string& name) const;
    std::string readerOf(const std::string& name) const;

  private:
    struct Entry
    {
        std::unique_ptr<Signal> signal;
        Box* writer = nullptr;
        Box* reader = nullptr;
    };

    std::map<std::string, Entry> _entries;
    EventTrace* _eventTrace = nullptr;
    StatisticManager* _stats = nullptr;
    bool _buffered = false;
};

} // namespace attila::sim

#endif // ATTILA_SIM_SIGNAL_BINDER_HH
