/**
 * @file
 * MemoryController: the unit interfacing GPU memory (paper §2.2).
 *
 * Modelled on GDDR3: the access unit is a 64-byte transaction (a
 * 4-cycle transfer from a double-rate 64-bit channel); the baseline's
 * four channels deliver up to 64 bytes/cycle.  Channels are
 * interleaved every 256 bytes.  Configurable penalties apply when a
 * channel opens a new page or turns around between reads and writes.
 * Per-client request queues and response buses form the crossbar
 * servicing the GPU units.
 *
 * Transactions are functional: reads return the current bytes of the
 * GpuMemory image at completion time, writes commit their payload at
 * completion time.  Clients therefore observe memory-consistent data
 * with realistic timing.
 *
 * Host-side bookkeeping (not modelled state): each transaction counts
 * its own outstanding bursts (MemTransaction::hostBurstsLeft), the
 * per-channel and completion queues are RingQueues, address
 * decomposition uses precomputed shift/mask pairs when the geometry
 * is a power of two, and statistics commit once per clock.
 *
 * Timing models (GpuConfig::memModel):
 *
 *  - Flat (default): one burst in flight per channel, flat transfer
 *    cost plus page-open and read/write-turnaround penalties.
 *    Bit-identical to the historical controller.
 *  - Banked: per-channel GDDR banks with row open/close state and
 *    the RCD/RAS/RP/RC/CL/WL/WR counters of gpu/dram_timing.hh.  A
 *    row hit costs CL/WL, a cold bank adds RCD (activate), a row
 *    conflict adds RP + RCD (precharge + activate) gated by
 *    RAS/RC/RRD/WR accounting.  Bursts queue in one per-channel
 *    arrival-order pending ring; the scheduling policy
 *    (GpuConfig::dramScheduler) picks the next burst — FIFO takes
 *    the oldest, FR-FCFS takes the first row hit in the scheduling
 *    window unless the oldest has already been overtaken frfcfsCap
 *    times (starvation cap).
 */

#ifndef ATTILA_GPU_MEMORY_CONTROLLER_HH
#define ATTILA_GPU_MEMORY_CONTROLLER_HH

#include <string>
#include <vector>

#include "emu/memory.hh"
#include "gpu/dram_timing.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "gpu/work_objects.hh"
#include "sim/box.hh"
#include "sim/ring_queue.hh"

namespace attila::gpu
{

/**
 * Client-side access port: request LinkTx + response LinkRx.
 * Owned by the client box; the signal names pair with the
 * MemoryController's per-client registration.
 */
class MemPort
{
  public:
    /** @param port_name unique name, e.g. "mc.zcache0". */
    void
    init(sim::Box& box, sim::SignalBinder& binder,
         const std::string& port_name, u32 queue_capacity)
    {
        // The command bus accepts several requests per cycle; data
        // transfer timing is modelled inside the controller.
        _req.init(box, binder, port_name + ".req", 8, 1,
                  queue_capacity);
        _resp.init(box, binder, port_name + ".resp", 8, 1,
                   queue_capacity);
    }

    void
    clock(Cycle cycle)
    {
        _req.clock(cycle);
        _resp.clock(cycle);
    }

    bool canRequest(Cycle cycle) const { return _req.canSend(cycle); }

    /** Free request-queue credits (for multi-request bursts). */
    u32 requestCredits() const { return _req.credits(); }

    void
    request(Cycle cycle, MemTransactionPtr txn)
    {
        _req.send(cycle, std::move(txn));
    }

    bool hasResponse() const { return !_resp.empty(); }

    MemTransactionPtr
    popResponse(Cycle cycle)
    {
        return _resp.pop(cycle);
    }

    bool idle() const { return _req.idle() && !hasResponse(); }

  private:
    LinkTx _req;
    LinkRx<MemTransaction> _resp;
};

/** The GDDR3-like memory controller box. */
class MemoryController : public sim::Box
{
  public:
    /**
     * @param client_ports signal base names of every client port
     *        ("mc.zcache0", ...), fixed at construction.
     */
    MemoryController(sim::SignalBinder& binder,
                     sim::StatisticManager& stats,
                     const GpuConfig& config, emu::GpuMemory& memory,
                     std::vector<std::string> client_ports);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

    /** Total bytes transferred (reads + writes). */
    u64 totalBytes() const { return _totalBytes; }

    // Banked-model observables (live totals; also exported as
    // MemoryController.* statistics).
    u64 rowHits() const { return _statRowHits.liveTotal(); }
    u64 rowMisses() const { return _statRowMisses.liveTotal(); }
    u64 rowConflicts() const { return _statRowConflicts.liveTotal(); }
    u64 precharges() const { return _statPrecharges.liveTotal(); }
    u64 activates() const { return _statActivates.liveTotal(); }

  private:
    struct Burst
    {
        MemTransactionPtr txn;
        u32 clientIdx = 0;
        u32 offset = 0; ///< Offset within the transaction.
        u32 size = 0;
        u32 bypassed = 0; ///< Times overtaken (FR-FCFS cap).
    };

    /** One GDDR bank's row state (banked model only). */
    struct Bank
    {
        bool rowOpen = false;
        u64 openRow = ~0ull;
        bool everActivated = false;
        Cycle activateAt = 0;       ///< Last ACT issue time.
        Cycle prechargeReadyAt = 0; ///< Write-recovery (WR) gate.
    };

    struct Channel
    {
        std::vector<sim::RingQueue<Burst>> queues; ///< Per client.
        u32 rrNext = 0;
        Cycle busyUntil = 0;
        bool hasInflight = false;
        Burst inflight;
        u64 currentPage = ~0ull;
        bool lastWasWrite = false;
        // Banked model state.
        sim::RingQueue<Burst> pending; ///< Arrival order.
        std::vector<Bank> banks;
        bool everActivated = false;
        Cycle lastActivateAt = 0; ///< RRD gate across banks.
    };

    struct ClientPort
    {
        std::string name;
        LinkRx<MemTransaction> req;
        LinkTx resp;
        sim::RingQueue<MemTransactionPtr> completed;
    };

    u32
    channelOf(u32 addr) const
    {
        return _fastAddr ? (addr >> _ilShift) & _chanMask
                         : (addr / _config.channelInterleave) %
                               _config.memoryChannels;
    }

    u64
    pageOf(u32 addr) const
    {
        return _fastPage ? addr >> _pageShift
                         : addr / _config.memoryPageBytes;
    }

    u64
    transferCycles(u32 size) const
    {
        const u32 bpc = _config.channelBytesPerCycle;
        return _fastCost ? (size + bpc - 1) >> _bpcShift
                         : (size + bpc - 1) / bpc;
    }

    /** Bank index of @p addr within its channel. */
    u32
    bankOf(u32 addr) const
    {
        return _fastPage ? (addr >> _pageShift) & (_timing.nbk - 1)
                         : (addr / _config.memoryPageBytes) %
                               _timing.nbk;
    }

    /** Row index of @p addr within its bank. */
    u64
    rowOf(u32 addr) const
    {
        return pageOf(addr) / _timing.nbk;
    }

    void acceptRequests(Cycle cycle);
    void scheduleChannels(Cycle cycle);
    void scheduleBanked(Cycle cycle);
    /** Pending-ring position the policy schedules next; bumps the
     * front burst's bypass counter when overtaking it. */
    u32 pickPending(Channel& ch);
    void completeBursts(Cycle cycle);
    void sendResponses(Cycle cycle);
    void commitStats();

    const GpuConfig& _config;
    emu::GpuMemory& _memory;
    std::vector<std::unique_ptr<ClientPort>> _clients;
    std::vector<Channel> _channels;
    bool _banked = false;
    DramTiming _timing;
    /** Transactions accepted but not yet completed. */
    u32 _pendingTxns = 0;
    u64 _totalBytes = 0;

    // Precomputed address decomposition (power-of-two geometry).
    bool _fastAddr = false;
    bool _fastPage = false;
    bool _fastCost = false;
    u32 _ilShift = 0;
    u32 _chanMask = 0;
    u32 _pageShift = 0;
    u32 _bpcShift = 0;

    sim::BatchedStat _statReadBytes;
    sim::BatchedStat _statWriteBytes;
    sim::BatchedStat _statBusyCycles;
    sim::BatchedStat _statPageOpens;
    sim::BatchedStat _statTurnarounds;
    sim::BatchedStat _statRowHits;
    sim::BatchedStat _statRowMisses;
    sim::BatchedStat _statRowConflicts;
    sim::BatchedStat _statPrecharges;
    sim::BatchedStat _statActivates;
    std::vector<sim::BatchedStat> _statClientBytes;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_MEMORY_CONTROLLER_HH
