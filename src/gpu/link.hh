/**
 * @file
 * Credit-based flow control over a pair of signals.
 *
 * A Link models the paper's "queues with configurable sizes"
 * (Table 1): the producer owns a LinkTx with one credit per slot of
 * the consumer's input queue; the consumer owns a LinkRx holding the
 * queue and returns a credit through the feedback signal whenever it
 * pops an entry.  Data latency and bandwidth are modelled by the
 * forward signal; credits return with a one-cycle latency.
 *
 * The feedback signal "<name>.credit" is a token wire (see
 * sim/signal.hh): a credit is a counted token, not an object, so
 * returning one allocates nothing.  It is still one signal write for
 * the bandwidth and data-loss checks, the per-signal write statistic
 * and both traces.
 *
 * The invariant (in-flight objects + queued objects <= capacity)
 * guarantees the consumer queue can never overflow, and the signal
 * layer's own verification catches any bug violating it.
 */

#ifndef ATTILA_GPU_LINK_HH
#define ATTILA_GPU_LINK_HH

#include "gpu/work_objects.hh"
#include "sim/box.hh"
#include "sim/ring_queue.hh"

namespace attila::gpu
{

/** Producer end of a flow-controlled link. */
class LinkTx
{
  public:
    LinkTx() = default;

    /**
     * Register the producer-side signals on @p box.
     * @param capacity consumer queue size = initial credits.
     */
    void
    init(sim::Box& box, sim::SignalBinder& binder,
         const std::string& name, u32 bandwidth, u32 latency,
         u32 capacity)
    {
        _data = binder.registerSignal(&box, name, sim::Direction::Out,
                                      bandwidth, latency);
        _credit = binder.registerSignal(&box, name + ".credit",
                                        sim::Direction::In, capacity,
                                        1, sim::SignalKind::Token);
        _credits = capacity;
    }

    /** Collect returned credits; call once per cycle. */
    void
    clock(Cycle cycle)
    {
        _credits += _credit->readTokens(cycle);
    }

    /** True when a send this cycle is within credits and signal
     * bandwidth. */
    bool
    canSend(Cycle cycle) const
    {
        return _credits > 0 && _data->canWrite(cycle);
    }

    /** Send one object (consumes a credit). */
    void
    send(Cycle cycle, sim::DynamicObjectPtr obj)
    {
        if (_credits == 0)
            panic("link '", _data->name(), "': send without credit");
        --_credits;
        _data->write(cycle, std::move(obj));
    }

    u32 credits() const { return _credits; }

    /** True when every sent object has been popped downstream. */
    bool
    idle() const
    {
        return _credits == _capacityOrInit();
    }

  private:
    u32
    _capacityOrInit() const
    {
        // Initial credits equal the capacity; idle means all are
        // home.  _credit bandwidth stores the capacity.
        return _credit->bandwidth();
    }

    sim::Signal* _data = nullptr;
    sim::Signal* _credit = nullptr;
    u32 _credits = 0;
};

/** Consumer end of a flow-controlled link. */
template <typename T>
class LinkRx
{
  public:
    void
    init(sim::Box& box, sim::SignalBinder& binder,
         const std::string& name, u32 bandwidth, u32 latency,
         u32 capacity)
    {
        _data = binder.registerSignal(&box, name, sim::Direction::In,
                                      bandwidth, latency);
        _credit = binder.registerSignal(&box, name + ".credit",
                                        sim::Direction::Out, capacity,
                                        1, sim::SignalKind::Token);
        _capacity = capacity;
    }

    /** Move arrivals into the queue; call once per cycle. */
    void
    clock(Cycle cycle)
    {
        while (auto obj = _data->read(cycle)) {
            if (_queue.size() >= _capacity) {
                panic("link '", _data->name(),
                      "': queue overflow (capacity ", _capacity,
                      ")");
            }
            _queue.push_back(std::static_pointer_cast<T>(obj));
        }
    }

    bool empty() const { return _queue.empty(); }
    std::size_t size() const { return _queue.size(); }

    const std::shared_ptr<T>& front() const { return _queue.front(); }

    /** Pop the head entry, returning its credit. */
    std::shared_ptr<T>
    pop(Cycle cycle)
    {
        auto obj = _queue.pop_front();
        _credit->writeToken(cycle);
        return obj;
    }

    u32 capacity() const { return _capacity; }

  private:
    sim::Signal* _data = nullptr;
    sim::Signal* _credit = nullptr;
    sim::RingQueue<std::shared_ptr<T>> _queue;
    u32 _capacity = 0;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_LINK_HH
