/**
 * @file
 * DynamicObject: base class for everything that travels through
 * signals.
 *
 * Every object flowing between boxes derives from DynamicObject.  It
 * carries an identifier and a 'color', plus the identifier of its
 * parent, which associates related objects into a multilevel
 * hierarchy (e.g. a memory access belongs to a fragment which belongs
 * to a triangle which belongs to a batch).  The event trace records
 * the id, color and parent id of every object written into a signal
 * (sim/event_trace.hh), which is how the Signal Trace Visualizer
 * follows work through the pipeline.
 */

#ifndef ATTILA_SIM_DYNAMIC_OBJECT_HH
#define ATTILA_SIM_DYNAMIC_OBJECT_HH

#include <atomic>
#include <memory>

#include "sim/types.hh"

namespace attila::sim
{

/** Sentinel for "no object id / no parent". */
inline constexpr u64 kNoTraceId = ~u64{0};

class DynamicObject;

/** Shared ownership handle used when objects travel through signals. */
using DynamicObjectPtr = std::shared_ptr<DynamicObject>;

/**
 * Base class for all objects travelling through signals.
 */
class DynamicObject
{
  public:
    DynamicObject() : _id(nextId()) {}
    DynamicObject(const DynamicObject& other) = default;
    DynamicObject& operator=(const DynamicObject& other) = default;
    virtual ~DynamicObject() = default;

    /** Globally unique object identifier. */
    u64 id() const { return _id; }

    /** Display color used by the Signal Trace Visualizer. */
    u32 color() const { return _color; }
    void setColor(u32 color) { _color = color; }

    /** The id of the object this one was derived from, or kNoTraceId
     * for a root.  Following parents from a fragment leads to its
     * triangle and then its batch. */
    u64 parent() const { return _parent; }
    void setParent(const DynamicObject& parent) { _parent = parent._id; }

  private:
    static u64
    nextId()
    {
        static std::atomic<u64> counter{0};
        return counter.fetch_add(1, std::memory_order_relaxed);
    }

    u64 _id;
    u32 _color = 0;
    u64 _parent = kNoTraceId;
};

} // namespace attila::sim

#endif // ATTILA_SIM_DYNAMIC_OBJECT_HH
