#include "gpu/memory_controller.hh"

#include <algorithm>
#include <bit>

namespace attila::gpu
{

MemoryController::MemoryController(sim::SignalBinder& binder,
                                   sim::StatisticManager& stats,
                                   const GpuConfig& config,
                                   emu::GpuMemory& memory,
                                   std::vector<std::string>
                                       client_ports)
    : Box(binder, stats, "MemoryController"),
      _config(config),
      _memory(memory),
      _banked(config.memModel == MemModel::Banked),
      _timing(DramTiming::parse(config.dramTiming)),
      _statReadBytes(stat("readBytes")),
      _statWriteBytes(stat("writeBytes")),
      _statBusyCycles(stat("busyCycles")),
      _statPageOpens(stat("pageOpens")),
      _statTurnarounds(stat("turnarounds")),
      _statRowHits(stat("rowHits")),
      _statRowMisses(stat("rowMisses")),
      _statRowConflicts(stat("rowConflicts")),
      _statPrecharges(stat("precharges")),
      _statActivates(stat("activates"))
{
    _channels.resize(config.memoryChannels);
    for (auto& ch : _channels) {
        ch.queues.resize(client_ports.size());
        if (_banked)
            ch.banks.resize(_timing.nbk);
    }

    for (const std::string& port : client_ports) {
        auto client = std::make_unique<ClientPort>();
        client->name = port;
        client->req.init(*this, binder, port + ".req", 8, 1,
                         config.memoryRequestQueue);
        client->resp.init(*this, binder, port + ".resp", 8, 1,
                          config.memoryRequestQueue);
        _statClientBytes.emplace_back(stat(port + ".bytes"));
        _clients.push_back(std::move(client));
    }

    _fastAddr = std::has_single_bit(config.channelInterleave) &&
                std::has_single_bit(config.memoryChannels);
    if (_fastAddr) {
        _ilShift = static_cast<u32>(
            std::countr_zero(config.channelInterleave));
        _chanMask = config.memoryChannels - 1;
    }
    _fastPage = std::has_single_bit(config.memoryPageBytes);
    if (_fastPage) {
        _pageShift = static_cast<u32>(
            std::countr_zero(config.memoryPageBytes));
    }
    _fastCost = std::has_single_bit(config.channelBytesPerCycle);
    if (_fastCost) {
        _bpcShift = static_cast<u32>(
            std::countr_zero(config.channelBytesPerCycle));
    }
}

void
MemoryController::acceptRequests(Cycle cycle)
{
    for (u32 ci = 0; ci < _clients.size(); ++ci) {
        ClientPort& client = *_clients[ci];
        client.req.clock(cycle);
        while (!client.req.empty()) {
            MemTransactionPtr txn = client.req.pop(cycle);
            if (txn->size == 0 || txn->size > memMaxTransactionBytes) {
                panic("memory controller: transaction size ",
                      txn->size, " out of range");
            }

            // Split into bursts along channel stripes.
            u32 offset = 0;
            u32 bursts = 0;
            while (offset < txn->size) {
                const u32 addr = txn->address + offset;
                const u32 stripeEnd =
                    _fastAddr
                        ? ((addr >> _ilShift) + 1) << _ilShift
                        : (addr / _config.channelInterleave + 1) *
                              _config.channelInterleave;
                const u32 size = std::min(
                    {txn->size - offset, stripeEnd - addr,
                     _config.memoryBurstBytes});
                Burst b;
                b.txn = txn;
                b.clientIdx = ci;
                b.offset = offset;
                b.size = size;
                Channel& channel = _channels[channelOf(addr)];
                if (_banked)
                    channel.pending.push_back(std::move(b));
                else
                    channel.queues[ci].push_back(std::move(b));
                offset += size;
                ++bursts;
            }
            txn->hostBurstsLeft = bursts;
            ++_pendingTxns;
        }
    }
}

u32
MemoryController::pickPending(Channel& ch)
{
    if (_config.dramScheduler == DramSchedPolicy::Fifo)
        return 0;
    // FR-FCFS: the first row hit inside the scheduling window goes
    // first, unless the oldest burst has already been overtaken
    // frfcfsCap times (starvation cap); with no hit the policy
    // degenerates to FIFO.
    if (ch.pending.front().bypassed >= _config.frfcfsCap)
        return 0;
    const u32 window = static_cast<u32>(std::min<std::size_t>(
        ch.pending.size(), _config.frfcfsWindow));
    for (u32 i = 0; i < window; ++i) {
        const Burst& b = ch.pending.at(i);
        const u32 addr = b.txn->address + b.offset;
        const Bank& bank = ch.banks[bankOf(addr)];
        if (bank.rowOpen && bank.openRow == rowOf(addr)) {
            if (i != 0)
                ++ch.pending.front().bypassed;
            return i;
        }
    }
    return 0;
}

void
MemoryController::scheduleBanked(Cycle cycle)
{
    for (Channel& ch : _channels) {
        if (ch.hasInflight || ch.pending.empty())
            continue;
        Burst b = ch.pending.remove_at(pickPending(ch));

        const u32 addr = b.txn->address + b.offset;
        const bool isWrite = !b.txn->isRead;
        Bank& bank = ch.banks[bankOf(addr)];
        const u64 row = rowOf(addr);
        const u32 column = isWrite ? _timing.WL : _timing.CL;

        // One command sequence occupies the channel end to end; bank
        // timestamps carry the RAS/RC/RRD/WR constraints across
        // bursts, so reordering (FR-FCFS) can never violate them.
        Cycle ready = cycle;
        if (bank.rowOpen && bank.openRow == row) {
            _statRowHits.inc();
        } else if (!bank.rowOpen) {
            // Cold bank: activate the row (RCD), gated by the
            // same-bank RC and cross-bank RRD activate windows.
            Cycle actAt = cycle;
            if (bank.everActivated)
                actAt = std::max(actAt, bank.activateAt + _timing.RC);
            if (ch.everActivated) {
                actAt = std::max(actAt,
                                 ch.lastActivateAt + _timing.RRD);
            }
            ready = actAt + _timing.RCD;
            bank.rowOpen = true;
            bank.openRow = row;
            bank.everActivated = true;
            bank.activateAt = actAt;
            ch.everActivated = true;
            ch.lastActivateAt = actAt;
            _statRowMisses.inc();
            _statActivates.inc();
        } else {
            // Row conflict: precharge the open row (honouring RAS
            // and write recovery), then activate the new one.
            Cycle preAt = std::max(cycle, bank.prechargeReadyAt);
            preAt = std::max(preAt, bank.activateAt + _timing.RAS);
            Cycle actAt = preAt + _timing.RP;
            actAt = std::max(actAt, bank.activateAt + _timing.RC);
            if (ch.everActivated) {
                actAt = std::max(actAt,
                                 ch.lastActivateAt + _timing.RRD);
            }
            ready = actAt + _timing.RCD;
            bank.openRow = row;
            bank.activateAt = actAt;
            ch.lastActivateAt = actAt;
            _statRowConflicts.inc();
            _statPrecharges.inc();
            _statActivates.inc();
        }
        const Cycle dataEnd =
            ready + column + transferCycles(b.size);
        if (isWrite)
            bank.prechargeReadyAt = dataEnd + _timing.WR;

        ch.busyUntil = dataEnd;
        ch.inflight = std::move(b);
        ch.hasInflight = true;
        _statBusyCycles.inc(dataEnd - cycle);
    }
}

void
MemoryController::scheduleChannels(Cycle cycle)
{
    if (_banked) {
        scheduleBanked(cycle);
        return;
    }
    for (Channel& ch : _channels) {
        if (ch.hasInflight)
            continue;
        // Round-robin arbitration over client queues.
        const u32 n = static_cast<u32>(ch.queues.size());
        for (u32 k = 0; k < n; ++k) {
            const u32 ci = (ch.rrNext + k) % n;
            if (ch.queues[ci].empty())
                continue;
            Burst b = ch.queues[ci].pop_front();
            ch.rrNext = (ci + 1) % n;

            const u32 addr = b.txn->address + b.offset;
            const u64 page = pageOf(addr);
            u64 cost = transferCycles(b.size);
            if (page != ch.currentPage) {
                cost += _config.pageOpenPenalty;
                _statPageOpens.inc();
                ch.currentPage = page;
            }
            const bool isWrite = !b.txn->isRead;
            if (isWrite != ch.lastWasWrite) {
                cost += _config.readWriteTurnaround;
                _statTurnarounds.inc();
                ch.lastWasWrite = isWrite;
            }
            ch.busyUntil = cycle + cost;
            ch.inflight = std::move(b);
            ch.hasInflight = true;
            _statBusyCycles.inc(cost);
            break;
        }
    }
}

void
MemoryController::completeBursts(Cycle cycle)
{
    for (Channel& ch : _channels) {
        if (!ch.hasInflight || cycle < ch.busyUntil)
            continue;
        Burst& b = ch.inflight;
        const u32 addr = b.txn->address + b.offset;
        if (b.txn->isRead) {
            _memory.read(addr, b.size, b.txn->data.data() + b.offset);
            _statReadBytes.inc(b.size);
        } else {
            _memory.write(addr, b.size,
                          b.txn->data.data() + b.offset);
            _statWriteBytes.inc(b.size);
        }
        _totalBytes += b.size;
        _statClientBytes[b.clientIdx].inc(b.size);

        if (b.txn->hostBurstsLeft == 0) {
            panic("memory controller: completion for an unknown"
                  " transaction");
        }
        if (--b.txn->hostBurstsLeft == 0) {
            --_pendingTxns;
            _clients[b.clientIdx]->completed.push_back(
                std::move(b.txn));
        }
        b.txn.reset();
        ch.hasInflight = false;
    }
}

void
MemoryController::sendResponses(Cycle cycle)
{
    for (auto& clientPtr : _clients) {
        ClientPort& client = *clientPtr;
        client.resp.clock(cycle);
        while (!client.completed.empty() &&
               client.resp.canSend(cycle)) {
            client.resp.send(cycle, client.completed.pop_front());
        }
    }
}

sim::Next
MemoryController::update(Cycle cycle)
{
    acceptRequests(cycle);
    completeBursts(cycle);
    scheduleChannels(cycle);
    sendResponses(cycle);
    commitStats();
    // A completed transaction can go back to a client with a response
    // credit.  Every update schedules each free channel that has
    // bursts queued, and an in-flight burst completes at its
    // channel's busyUntil.
    for (const auto& client : _clients) {
        if (!client->completed.empty() && client->resp.credits() > 0)
            return sim::Next::runs();
    }
    Cycle wake = sim::NoWake;
    for (const Channel& ch : _channels) {
        if (ch.hasInflight)
            wake = std::min(wake, ch.busyUntil);
    }
    return sim::Next::until(wake);
}

void
MemoryController::commitStats()
{
    _statReadBytes.commit();
    _statWriteBytes.commit();
    _statBusyCycles.commit();
    _statPageOpens.commit();
    _statTurnarounds.commit();
    _statRowHits.commit();
    _statRowMisses.commit();
    _statRowConflicts.commit();
    _statPrecharges.commit();
    _statActivates.commit();
    for (auto& stat : _statClientBytes)
        stat.commit();
}

bool
MemoryController::empty() const
{
    if (_pendingTxns != 0)
        return false;
    for (const auto& client : _clients) {
        if (!client->completed.empty() || !client->req.empty())
            return false;
    }
    for (const Channel& ch : _channels) {
        if (ch.hasInflight || !ch.pending.empty())
            return false;
    }
    return true;
}

} // namespace attila::gpu
