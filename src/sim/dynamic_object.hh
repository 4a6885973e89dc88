/**
 * @file
 * DynamicObject: base class for everything that travels through
 * signals.
 *
 * Every object flowing between boxes derives from DynamicObject.  It
 * carries an identifier and a 'color', plus a cookie trail that
 * associates related objects into a multilevel hierarchy (e.g. a
 * memory access belongs to a fragment which belongs to a triangle
 * which belongs to a batch).  The event trace records the id, color
 * and innermost cookie of every object written into a signal
 * (sim/event_trace.hh), which is how the Signal Trace Visualizer
 * follows work through the pipeline.
 */

#ifndef ATTILA_SIM_DYNAMIC_OBJECT_HH
#define ATTILA_SIM_DYNAMIC_OBJECT_HH

#include <atomic>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace attila::sim
{

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

    /**
     * Cookie trail: the identifiers of the ancestors of this object,
     * outermost first.  copyTrailFrom() inherits a parent's trail plus
     * the parent's own id, forming the multilevel hierarchy described
     * in the paper.
     */
    const std::vector<u64>& cookies() const { return _cookies; }

    /** Inherit @p parent's cookie trail and append the parent itself. */
    void
    copyTrailFrom(const DynamicObject& parent)
    {
        _cookies = parent._cookies;
        _cookies.push_back(parent._id);
    }

    /**
     * Reset the base-class state for pool recycling: a recycled
     * object gets a fresh identity (so traces never conflate two
     * logical objects) while the cookie trail keeps its heap buffer
     * (clear(), not reallocation).
     */
    void
    resetDynamicState()
    {
        _id = nextId();
        _color = 0;
        _cookies.clear();
    }

  private:
    static u64
    nextId()
    {
        static std::atomic<u64> counter{0};
        return counter.fetch_add(1, std::memory_order_relaxed);
    }

    u64 _id;
    u32 _color = 0;
    std::vector<u64> _cookies;
};

} // namespace attila::sim

#endif // ATTILA_SIM_DYNAMIC_OBJECT_HH
