#include "sim/signal.hh"

#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/signal_trace.hh"
#include "sim/statistics.hh"

namespace attila::sim
{

Signal::Signal(std::string name, u32 bandwidth, u32 latency,
               SignalKind kind)
    : _name(std::move(name)), _bandwidth(bandwidth), _latency(latency),
      _kind(kind)
{
    if (_bandwidth < 1)
        fatal("signal '", _name, "': bandwidth must be >= 1");
    if (_latency < 1)
        fatal("signal '", _name, "': latency must be >= 1");
    // One slot per in-flight arrival cycle.  An object written at
    // cycle c arrives at c + latency, so at most latency + 1 distinct
    // arrival cycles are live at once.  Rounded up to a power of two
    // so the ring index on the per-cycle poll path is a mask instead
    // of a division; each slot still validates its arrival cycle, so
    // the extra slots are just never-hit ring positions.
    std::size_t slots = 1;
    while (slots < static_cast<std::size_t>(_latency) + 1)
        slots <<= 1;
    _slots.resize(slots);
    _slotMask = slots - 1;
    if (_kind == SignalKind::Object) {
        for (auto& slot : _slots)
            slot.objects.reserve(_bandwidth);
    }
}

void
Signal::bandwidthExceeded(Cycle cycle) const
{
    panic("signal '", _name, "': bandwidth exceeded at cycle ", cycle,
          " (bandwidth ", _bandwidth, ")");
}

void
Signal::wrongKind(const char* op) const
{
    panic("signal '", _name, "': ", op, "() on a ",
          signalKindName(_kind), " wire");
}

u32
Signal::stagedAt(Cycle cycle) const
{
    // All staged writes belong to the current cycle (commit runs
    // every cycle), but count per-cycle anyway so direct harness use
    // stays well-defined.
    u32 sameCycle = 0;
    if (_kind == SignalKind::Token) {
        for (const PendingTokens& p : _pendingTokens) {
            if (p.cycle == cycle)
                sameCycle += p.count;
        }
    } else {
        for (const PendingWrite& p : _pending) {
            if (p.cycle == cycle)
                ++sameCycle;
        }
    }
    return sameCycle;
}

void
Signal::stage(Cycle cycle)
{
    // Bandwidth is a per-cycle property of the wire, so it is checked
    // at write time even though publication is deferred.
    if (stagedAt(cycle) >= _bandwidth)
        bandwidthExceeded(cycle);
    ++_staged;
    if (_writerDirty)
        *_writerDirty |= _dirtyBit;
}

void
Signal::write(Cycle cycle, DynamicObjectPtr obj)
{
    if (_kind != SignalKind::Object)
        wrongKind("write");
    if (!obj)
        panic("signal '", _name, "': writing null object at cycle ",
              cycle);

    if (_buffered) {
        stage(cycle);
        _pending.push_back({cycle, std::move(obj)});
        return;
    }

    publish(cycle, std::move(obj));
}

void
Signal::writeToken(Cycle cycle)
{
    if (_kind != SignalKind::Token)
        wrongKind("writeToken");

    if (_buffered) {
        stage(cycle);
        if (!_pendingTokens.empty() &&
            _pendingTokens.back().cycle == cycle) {
            ++_pendingTokens.back().count;
        } else {
            _pendingTokens.push_back({cycle, 1});
        }
        return;
    }

    publishTokens(cycle, 1);
}

void
Signal::claimSlot(Slot& slot, Cycle arrival, Cycle cycle)
{
    const u32 writes = slotWrites(slot);
    if (writes != 0 && slot.arrival != arrival) {
        // The slot still holds data from a previous lap of the ring.
        // It arrived at its reader's cycle and was never read:
        // modelled data was lost.
        const u32 unread = writes - slot.readIndex;
        if (unread != 0) {
            panic("signal '", _name, "': data loss — ", unread,
                  " object(s) that arrived at cycle ", slot.arrival,
                  " were never read (write at cycle ", cycle, ")");
        }
        slot.objects.clear();
        slot.readIndex = 0;
    }

    if (slotWrites(slot) == 0) {
        slot.arrival = arrival;
        slot.readIndex = 0;
    }
}

void
Signal::published(u32 n)
{
    bump(_totalWrites, n);
    if (_readerLive)
        _readerLive->fetch_add(n, std::memory_order_relaxed);
    if (_writeStat)
        _writeStat->inc(n);
}

void
Signal::publish(Cycle cycle, DynamicObjectPtr obj)
{
    const Cycle arrival = cycle + _latency;
    Slot& slot = _slots[arrival & _slotMask];
    claimSlot(slot, arrival, cycle);
    if (slot.objects.size() >= _bandwidth)
        bandwidthExceeded(cycle);

    if (_tracer)
        _tracer->record(cycle, _name, *obj);

    if constexpr (kEventTraceCompiled) {
        if (_eventTrace) [[unlikely]] {
            _eventTrace->emit(EventKind::SignalWrite, cycle,
                              _eventTraceId, obj->color(), obj->id(),
                              traceParentOf(*obj));
        }
    }

    slot.objects.push_back(std::move(obj));
    published(1);
}

void
Signal::publishTokens(Cycle cycle, u32 count)
{
    const Cycle arrival = cycle + _latency;
    Slot& slot = _slots[arrival & _slotMask];
    claimSlot(slot, arrival, cycle);
    if (slot.tokens + count > _bandwidth)
        bandwidthExceeded(cycle);

    // One trace record and one event per token, exactly as if each
    // had been an object of its own.
    for (u32 i = 0; i < count; ++i) {
        if (_tracer)
            _tracer->recordToken(cycle, _name);
        if constexpr (kEventTraceCompiled) {
            if (_eventTrace) [[unlikely]] {
                _eventTrace->emit(EventKind::SignalWrite, cycle,
                                  _eventTraceId);
            }
        }
    }

    slot.tokens += count;
    published(count);
}

void
Signal::commitPending()
{
    if (_kind == SignalKind::Token) {
        for (const PendingTokens& p : _pendingTokens)
            publishTokens(p.cycle, p.count);
        _pendingTokens.clear();
    } else {
        for (PendingWrite& p : _pending)
            publish(p.cycle, std::move(p.obj));
        _pending.clear();
    }
    _staged = 0;
}

void
Signal::setBuffered(bool buffered)
{
    if (!buffered)
        commit();
    _buffered = buffered;
}

bool
Signal::canWriteBuffered(Cycle cycle) const
{
    return stagedAt(cycle) < _bandwidth;
}

u64
Signal::inFlight() const
{
    return _staged + live();
}

} // namespace attila::sim
