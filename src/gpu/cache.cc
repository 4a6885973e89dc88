#include "gpu/cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace attila::gpu
{

FbCache::FbCache(std::string name, const Config& config,
                 sim::Statistic& hits, sim::Statistic& misses,
                 LineBacking* backing)
    : _name(std::move(name)),
      _config(config),
      _backing(backing),
      _hits(hits),
      _misses(misses)
{
    // A miss or writeback carries one line in its transaction.
    if (_config.lineBytes == 0 ||
        _config.lineBytes > memMaxTransactionBytes) {
        fatal("cache '", _name, "': line of ", _config.lineBytes,
              " bytes outside [1, ", memMaxTransactionBytes, "]");
    }
    const u32 lines = (_config.sizeKB * 1024) / _config.lineBytes;
    if (lines == 0 || _config.ways == 0 ||
        lines % _config.ways != 0) {
        fatal("cache '", _name, "': bad geometry (", lines,
              " lines, ", _config.ways, " ways)");
    }
    if (_config.maxOutstanding == 0 || _config.maxOutstanding > 32) {
        fatal("cache '", _name, "': maxOutstanding ",
              _config.maxOutstanding, " outside [1, 32]");
    }
    _sets = lines / _config.ways;
    _lineCount = lines;

    _pow2 = std::has_single_bit(_config.lineBytes) &&
            std::has_single_bit(_sets);
    if (_pow2) {
        _lineMask = _config.lineBytes - 1;
        _lineShift =
            static_cast<u32>(std::countr_zero(_config.lineBytes));
        _setMask = _sets - 1;
    }

    _state.assign(lines, LineState::Invalid);
    _dirty.assign(lines, 0);
    _addr.assign(lines, 0);
    _lastUse.assign(lines, 0);
    _arena.assign(static_cast<std::size_t>(lines) *
                      _config.lineBytes,
                  0);

    _slots.resize(_config.maxOutstanding);
    _freeSlots = _config.maxOutstanding == 32
                     ? ~0u
                     : (1u << _config.maxOutstanding) - 1;
    const u32 ordCap = std::bit_ceil(_config.maxOutstanding);
    _order.assign(ordCap, 0);
    _ordMask = ordCap - 1;
}

s32
FbCache::findLine(u32 lineAddr) const
{
    const u32 base = setOf(lineAddr) * _config.ways;
    for (u32 w = 0; w < _config.ways; ++w) {
        const u32 idx = base + w;
        if (_state[idx] != LineState::Invalid &&
            _addr[idx] == lineAddr) {
            return static_cast<s32>(idx);
        }
    }
    return -1;
}

s32
FbCache::pickVictim(u32 set) const
{
    s32 best = -1;
    u64 bestUse = ~0ull;
    for (u32 w = 0; w < _config.ways; ++w) {
        const u32 idx = set * _config.ways + w;
        if (_state[idx] == LineState::Filling)
            continue;
        if (_state[idx] == LineState::Invalid)
            return static_cast<s32>(idx);
        if (_lastUse[idx] < bestUse) {
            bestUse = _lastUse[idx];
            best = static_cast<s32>(idx);
        }
    }
    return best;
}

u8
FbCache::allocFillSlot()
{
    const u32 slot =
        static_cast<u32>(std::countr_zero(_freeSlots));
    _freeSlots &= _freeSlots - 1;
    return static_cast<u8>(slot);
}

void
FbCache::removeFillAt(u32 orderPos)
{
    for (u32 j = orderPos; j + 1 < _ordCount; ++j) {
        _order[(_ordHead + j) & _ordMask] =
            _order[(_ordHead + j + 1) & _ordMask];
    }
    --_ordCount;
}

void
FbCache::queueWriteback(Cycle, u32 lineIndex)
{
    // Encode straight into the transaction's payload; an
    // intermediate staging buffer would copy the line twice.
    MemTransactionPtr txn = std::make_shared<MemTransaction>();
    txn->isRead = false;
    txn->address = _addr[lineIndex];
    u32 size = _config.lineBytes;
    if (_backing) {
        size = _backing->writeback(_addr[lineIndex],
                                   lineData(lineIndex),
                                   txn->data.data());
    } else {
        std::memcpy(txn->data.data(), lineData(lineIndex), size);
    }
    txn->size = size;
    txn->tag = (static_cast<u64>(_addr[lineIndex]) << 1) | 1;

    WbEntry entry;
    entry.addr = _addr[lineIndex];
    entry.txn = std::move(txn);
    _writebacks.push_back(std::move(entry));
    ++_wbLive;
}

CacheAccess
FbCache::access(Cycle cycle, u32 addr, bool forWrite)
{
    if (cycle != _currentCycle) {
        _currentCycle = cycle;
        _accessesThisCycle = 0;
    }
    if (_accessesThisCycle >= _config.ports)
        return CacheAccess::Blocked;

    const u32 lineAddr = lineAddrOf(addr);
    const s32 idx = findLine(lineAddr);
    if (idx >= 0) {
        if (_state[idx] == LineState::Filling)
            return CacheAccess::Miss; // Fill under way.
        ++_accessesThisCycle;
        _lastUse[idx] = ++_useCounter;
        if (forWrite)
            _dirty[idx] = 1;
        _hits.inc();
        if constexpr (sim::kEventTraceCompiled) {
            if (_eventTrace) [[unlikely]] {
                _eventTrace->emit(sim::EventKind::CacheHit, cycle,
                                  _eventTraceId, addr);
            }
        }
        return CacheAccess::Hit;
    }

    // No separate pending-fill search is needed: a live fill keeps
    // its line in Filling state with this address, so findLine()
    // above already reported it as a Miss.  (Cancelled fills have
    // no line and must not satisfy a fresh access.)

    if (_freeSlots == 0)
        return CacheAccess::Blocked; // maxOutstanding reached.

    const u32 set = setOf(lineAddr);
    const s32 victimIdx = pickVictim(set);
    if (victimIdx < 0)
        return CacheAccess::Blocked;

    const u32 victim = static_cast<u32>(victimIdx);
    if (_state[victim] == LineState::Valid && _dirty[victim])
        queueWriteback(cycle, victim);

    _state[victim] = LineState::Filling;
    _dirty[victim] = 0;
    _addr[victim] = lineAddr;
    _lastUse[victim] = ++_useCounter;

    const u8 slotIdx = allocFillSlot();
    FillSlot& slot = _slots[slotIdx];
    slot.addr = lineAddr;
    slot.lineIndex = victim;
    slot.localOnly = _backing && _backing->fillSize(lineAddr) == 0;
    slot.issued = false;
    slot.cancelled = false;
    _order[(_ordHead + _ordCount) & _ordMask] = slotIdx;
    ++_ordCount;
    _misses.inc();
    if constexpr (sim::kEventTraceCompiled) {
        if (_eventTrace) [[unlikely]] {
            _eventTrace->emit(sim::EventKind::CacheMiss, cycle,
                              _eventTraceId, addr);
        }
    }
    return CacheAccess::Miss;
}

u8*
FbCache::wordPtr(u32 addr)
{
    const u32 lineAddr = lineAddrOf(addr);
    const s32 idx = findLine(lineAddr);
    if (idx < 0 || _state[idx] != LineState::Valid)
        panic("cache '", _name, "': wordPtr on a non-resident line");
    return lineData(static_cast<u32>(idx)) + (addr - lineAddr);
}

void
FbCache::markDirty(u32 addr)
{
    const u32 lineAddr = lineAddrOf(addr);
    const s32 idx = findLine(lineAddr);
    if (idx < 0 || _state[idx] != LineState::Valid)
        panic("cache '", _name,
              "': markDirty on a non-resident line");
    _dirty[idx] = 1;
}

void
FbCache::clock(Cycle cycle, MemPort& port, MemClient client)
{
    // Service local (no memory traffic) fills immediately,
    // compacting the issue-order ring in place.
    if (_ordCount != 0) {
        const u32 n = _ordCount;
        u32 kept = 0;
        for (u32 i = 0; i < n; ++i) {
            const u8 slotIdx = _order[(_ordHead + i) & _ordMask];
            FillSlot& slot = _slots[slotIdx];
            if (slot.localOnly && !slot.issued) {
                _backing->fillLocal(slot.addr,
                                    lineData(slot.lineIndex));
                _state[slot.lineIndex] = LineState::Valid;
                _freeSlots |= 1u << slotIdx;
            } else {
                _order[(_ordHead + kept) & _ordMask] = slotIdx;
                ++kept;
            }
        }
        _ordCount = kept;
    }

    // Issue writebacks first (they free memory ordering hazards:
    // a fill of the same line must see the written data).
    for (u32 i = _wbHead; i < _writebacks.size(); ++i) {
        WbEntry& wb = _writebacks[i];
        if (wb.issued || wb.done)
            continue;
        if (!port.canRequest(cycle))
            break;
        wb.txn->client = client;
        port.request(cycle, wb.txn);
        wb.issued = true;
    }

    // Issue fills, but never while a writeback of the same address
    // is still outstanding.
    for (u32 i = 0; i < _ordCount; ++i) {
        FillSlot& slot = _slots[_order[(_ordHead + i) & _ordMask]];
        if (slot.issued || writebackPending(slot.addr))
            continue;
        if (!port.canRequest(cycle))
            break;
        MemTransactionPtr txn = std::make_shared<MemTransaction>();
        txn->isRead = true;
        txn->address = slot.addr;
        txn->size =
            _backing ? _backing->fillSize(slot.addr) : _config.lineBytes;
        txn->client = client;
        txn->tag = static_cast<u64>(slot.addr) << 1;
        port.request(cycle, txn);
        slot.issued = true;
    }

    // Handle responses.
    while (port.hasResponse()) {
        MemTransactionPtr txn = port.popResponse(cycle);
        const u32 addr = static_cast<u32>(txn->tag >> 1);
        if (!txn->isRead) {
            // Writeback acknowledged: tombstone the entry and let
            // the head cursor drain over completed ones.
            for (u32 i = _wbHead; i < _writebacks.size(); ++i) {
                WbEntry& wb = _writebacks[i];
                if (wb.issued && !wb.done && wb.addr == addr) {
                    wb.done = true;
                    wb.txn.reset();
                    --_wbLive;
                    break;
                }
            }
            while (_wbHead < _writebacks.size() &&
                   _writebacks[_wbHead].done) {
                ++_wbHead;
            }
            if (_wbLive == 0) {
                _writebacks.clear();
                _wbHead = 0;
            }
            continue;
        }
        // Fill responses match in issue (FIFO) order: at most one
        // live fill per address exists, and a cancelled fill for
        // the same address always precedes it in the ring.
        bool matched = false;
        for (u32 i = 0; i < _ordCount; ++i) {
            const u8 slotIdx = _order[(_ordHead + i) & _ordMask];
            FillSlot& slot = _slots[slotIdx];
            if (!slot.issued || slot.addr != addr)
                continue;
            if (slot.cancelled) {
                --_cancelled; // Stale data discarded.
            } else {
                u8* line = lineData(slot.lineIndex);
                if (_backing) {
                    _backing->fillFromMemory(addr, txn->data.data(),
                                             txn->size, line);
                } else {
                    std::memcpy(line, txn->data.data(),
                                _config.lineBytes);
                }
                _state[slot.lineIndex] = LineState::Valid;
            }
            removeFillAt(i);
            _freeSlots |= 1u << slotIdx;
            matched = true;
            break;
        }
        if (!matched)
            panic("cache '", _name,
                  "': fill response with no pending fill");
    }

    commitStats();
}

bool
FbCache::flushStep(Cycle cycle, MemPort& port, MemClient client)
{
    // Queue writebacks for dirty lines, a few per cycle.
    u32 queued = 0;
    while (_flushScan < _lineCount && queued < 4) {
        if (_state[_flushScan] == LineState::Valid &&
            _dirty[_flushScan]) {
            queueWriteback(cycle, _flushScan);
            _dirty[_flushScan] = 0;
            ++queued;
        }
        ++_flushScan;
    }

    clock(cycle, port, client);

    if (_flushScan >= _lineCount && idle()) {
        _flushScan = 0;
        return true;
    }
    return false;
}

void
FbCache::invalidateAll()
{
    // Drop unissued fills; flag issued ones so their response is
    // discarded rather than resurrecting a stale line.
    const u32 n = _ordCount;
    u32 kept = 0;
    for (u32 i = 0; i < n; ++i) {
        const u8 slotIdx = _order[(_ordHead + i) & _ordMask];
        FillSlot& slot = _slots[slotIdx];
        if (slot.issued) {
            if (!slot.cancelled) {
                slot.cancelled = true;
                ++_cancelled;
            }
            _order[(_ordHead + kept) & _ordMask] = slotIdx;
            ++kept;
        } else {
            _freeSlots |= 1u << slotIdx;
        }
    }
    _ordCount = kept;

    std::fill(_state.begin(), _state.end(), LineState::Invalid);
    std::fill(_dirty.begin(), _dirty.end(), u8{0});
}

bool
FbCache::idle() const
{
    return _ordCount == 0 && _wbLive == 0;
}

bool
FbCache::writebackPending(u32 lineAddr) const
{
    for (u32 w = _wbHead; w < _writebacks.size(); ++w) {
        if (!_writebacks[w].done && _writebacks[w].addr == lineAddr)
            return true;
    }
    return false;
}

bool
FbCache::accessWouldProgress(u32 addr) const
{
    const u32 lineAddr = lineAddrOf(addr);
    const s32 idx = findLine(lineAddr);
    if (idx >= 0)
        return _state[idx] != LineState::Filling;
    return _freeSlots != 0 && pickVictim(setOf(lineAddr)) >= 0;
}

bool
FbCache::clockWouldProgress(const MemPort& port) const
{
    const bool credit = port.requestCredits() > 0;
    for (u32 i = 0; i < _ordCount; ++i) {
        const FillSlot& slot = _slots[_order[(_ordHead + i) & _ordMask]];
        if (slot.issued)
            continue;
        if (slot.localOnly ||
            (credit && !writebackPending(slot.addr)))
            return true;
    }
    if (!credit)
        return false;
    for (u32 i = _wbHead; i < _writebacks.size(); ++i) {
        if (!_writebacks[i].issued && !_writebacks[i].done)
            return true;
    }
    return false;
}

void
FbCache::commitStats()
{
    _hits.commit();
    _misses.commit();
}

} // namespace attila::gpu
