/**
 * @file
 * CommandProcessor: the unit controlling the whole pipeline (paper
 * §2.2).
 *
 * It consumes the command stream produced by the driver: register
 * writes, buffer uploads over the system bus, shader program loads,
 * batch draws, fast clears and swaps.  Register state is staged and
 * snapshotted per Draw, which lets two batches be pipelined (one in
 * the geometry phase, one in the fragment phase) with no register
 * hazards.  Clears and swaps are pipeline barriers: the processor
 * waits for every in-flight batch to retire, then broadcasts control
 * messages to the ROPs / HZ / DAC and waits for their acks.
 */

#ifndef ATTILA_GPU_COMMAND_PROCESSOR_HH
#define ATTILA_GPU_COMMAND_PROCESSOR_HH

#include <deque>
#include <map>

#include "gpu/commands.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "gpu/memory_controller.hh"
#include "sim/box.hh"

namespace attila::gpu
{

/** A draw command travelling to the Streamer. */
class DrawCmdObj : public WorkObject
{
  public:
    DrawParams params;
};

/** The Command Processor box. */
class CommandProcessor : public sim::Box
{
  public:
    CommandProcessor(sim::SignalBinder& binder,
                     sim::StatisticManager& stats,
                     const GpuConfig& config);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

    /** Append a command stream for execution; wakes the unit. */
    void submit(const CommandList& list);

    /** Batches issued so far (diagnostics). */
    u32 batchesIssued() const { return _nextBatchId; }
    /** Frames completed (Swap commands retired). */
    u32 framesCompleted() const { return _framesCompleted; }

  private:
    enum class Phase : u8
    {
        Idle,        ///< Ready for the next command.
        BusTransfer, ///< Buffer bytes crossing the system bus.
        MemWrite,    ///< Buffer writes in flight to GPU memory.
        DrainWait,   ///< Waiting for in-flight batches to retire.
        CtrlWait,    ///< Waiting for control acks.
    };

    void startCommand(Cycle cycle);
    void continueCommand(Cycle cycle);
    bool broadcastControl(Cycle cycle, ControlKind kind);
    /** The Draw at the head can issue: a free batch slot, a draw
     * credit and, when it raises depth, an HZ poison credit. */
    bool canIssueDraw() const;
    /** Buffer bytes not yet requested from GPU memory. */
    bool memBytesLeft() const;
    /** Every buffer byte requested and acknowledged. */
    bool memWriteDone() const;
    /** Every target of a @p kind broadcast has a credit. */
    bool canBroadcast(ControlKind kind) const;
    /** Call @p f on each control link a @p kind broadcast targets. */
    template <typename Self, typename F>
    static void forEachTarget(Self& self, ControlKind kind, F&& f);
    u32 expectedAcks(ControlKind kind) const;
    /** The control message a barrier command broadcasts first. */
    ControlKind barrierKind() const;

    const GpuConfig& _config;
    std::deque<Command> _pending;
    RenderState _staging;
    u32 _nextBatchId = 0;
    u32 _inflightBatches = 0;
    u32 _framesCompleted = 0;

    Phase _phase = Phase::Idle;
    Command _current;
    Cycle _busyUntil = 0;
    u32 _memBytesSent = 0;
    u32 _memAcksPending = 0;
    u32 _ctrlAcksPending = 0;
    bool _swapAfterCtrl = false;
    std::map<u32, u32> _retireCounts; ///< batchId -> ROPc reports.

    LinkTx _drawOut;
    std::vector<std::unique_ptr<LinkRx<RetireObj>>> _retireIn;
    std::vector<LinkTx> _ctrlRopz;
    std::vector<LinkTx> _ctrlRopc;
    LinkTx _ctrlHz;
    LinkTx _ctrlDac;
    std::vector<std::unique_ptr<LinkRx<AckObj>>> _ackIn;
    MemPort _mem;

    sim::Statistic& _statCommands;
    sim::Statistic& _statDraws;
    sim::Statistic& _statBusBytes;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_COMMAND_PROCESSOR_HH
