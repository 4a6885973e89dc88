#include "gpu/command_processor.hh"

#include <algorithm>
#include <cstring>

namespace attila::gpu
{

CommandProcessor::CommandProcessor(sim::SignalBinder& binder,
                                   sim::StatisticManager& stats,
                                   const GpuConfig& config)
    : Box(binder, stats, "CommandProcessor"),
      _config(config),
      _statCommands(stat("commands")),
      _statDraws(stat("draws")),
      _statBusBytes(stat("systemBusBytes")),
      _statBusy(stat("busyCycles"))
{
    _drawOut.init(*this, binder, "cp.draw", 1, 1, 4);
    _mem.init(*this, binder, "mc.cp", _config.memoryRequestQueue);

    for (u32 i = 0; i < config.numRops; ++i) {
        auto retire = std::make_unique<LinkRx<RetireObj>>();
        retire->init(*this, binder,
                     "ropc" + std::to_string(i) + ".retire", 1, 1, 8);
        _retireIn.push_back(std::move(retire));

        _ctrlRopz.emplace_back();
        _ctrlRopz.back().init(*this, binder,
                              "cp.ctrl.ropz" + std::to_string(i), 1,
                              1, 2);
        _ctrlRopc.emplace_back();
        _ctrlRopc.back().init(*this, binder,
                              "cp.ctrl.ropc" + std::to_string(i), 1,
                              1, 2);

        auto ack = std::make_unique<LinkRx<AckObj>>();
        ack->init(*this, binder, "ack.ropz" + std::to_string(i), 1, 1,
                  2);
        _ackIn.push_back(std::move(ack));
        ack = std::make_unique<LinkRx<AckObj>>();
        ack->init(*this, binder, "ack.ropc" + std::to_string(i), 1, 1,
                  2);
        _ackIn.push_back(std::move(ack));
    }
    _ctrlHz.init(*this, binder, "cp.ctrl.hz", 1, 1, 2);
    _ctrlDac.init(*this, binder, "cp.ctrl.dac", 1, 1, 2);
    auto ack = std::make_unique<LinkRx<AckObj>>();
    ack->init(*this, binder, "ack.hz", 1, 1, 2);
    _ackIn.push_back(std::move(ack));
    ack = std::make_unique<LinkRx<AckObj>>();
    ack->init(*this, binder, "ack.dac", 1, 1, 2);
    _ackIn.push_back(std::move(ack));
}

void
CommandProcessor::submit(const CommandList& list)
{
    for (const Command& cmd : list)
        _pending.push_back(cmd);
    wake();
}

u32
CommandProcessor::expectedAcks(ControlKind kind) const
{
    switch (kind) {
      case ControlKind::ClearColor:
        return _config.numRops;
      case ControlKind::ClearZStencil:
        return _config.numRops + 1; // + HZ.
      case ControlKind::Flush:
        return _config.numRops * 2; // ROPz + ROPc.
      case ControlKind::DumpFrame:
        return 1;
      case ControlKind::HzPoison:
        return 0;
    }
    return 0;
}

template <typename Self, typename F>
void
CommandProcessor::forEachTarget(Self& self, ControlKind kind, F&& f)
{
    switch (kind) {
      case ControlKind::ClearColor:
        for (auto& l : self._ctrlRopc)
            f(l);
        break;
      case ControlKind::ClearZStencil:
        for (auto& l : self._ctrlRopz)
            f(l);
        f(self._ctrlHz);
        break;
      case ControlKind::Flush:
        for (auto& l : self._ctrlRopz)
            f(l);
        for (auto& l : self._ctrlRopc)
            f(l);
        break;
      case ControlKind::DumpFrame:
        f(self._ctrlDac);
        break;
      case ControlKind::HzPoison:
        f(self._ctrlHz);
        break;
    }
}

bool
CommandProcessor::canBroadcast(ControlKind kind) const
{
    // At most one broadcast runs per update, so a credit is all a
    // control link needs.
    bool ready = true;
    forEachTarget(*this, kind,
                  [&](const LinkTx& l) { ready &= l.credits() > 0; });
    return ready;
}

bool
CommandProcessor::broadcastControl(Cycle cycle, ControlKind kind)
{
    // All targets must have credit before any message is sent so the
    // broadcast is atomic.
    if (!canBroadcast(kind))
        return false;
    auto state = std::make_shared<const RenderState>(_staging);
    forEachTarget(*this, kind, [&](LinkTx& l) {
        auto ctrl = std::make_shared<ControlObj>();
        ctrl->kind = kind;
        ctrl->state = state;
        l.send(cycle, ctrl);
    });
    _ctrlAcksPending = expectedAcks(kind);
    return true;
}

void
CommandProcessor::startCommand(Cycle cycle)
{
    if (_pending.empty())
        return;
    _current = _pending.front();

    switch (_current.op) {
      case CommandOp::WriteReg:
        applyRegister(_staging, _current.reg, _current.regIndex,
                      _current.value);
        _pending.pop_front();
        _statCommands.inc();
        break;

      case CommandOp::LoadVertexProgram:
        _staging.vertexProgram = _current.program;
        emu::ShaderEmulator::applyLiterals(*_current.program,
                                           _staging.vertexConstants);
        // Instruction memory preload over the system bus: 16 bytes
        // per instruction.
        _busyUntil = cycle + std::max<u64>(
            1, _current.program->length() * 16 /
                   _config.systemBusBytesPerCycle);
        _phase = Phase::BusTransfer;
        _memBytesSent = 0;
        _pending.pop_front();
        _statCommands.inc();
        break;

      case CommandOp::LoadFragmentProgram:
        _staging.fragmentProgram = _current.program;
        emu::ShaderEmulator::applyLiterals(
            *_current.program, _staging.fragmentConstants);
        _busyUntil = cycle + std::max<u64>(
            1, _current.program->length() * 16 /
                   _config.systemBusBytesPerCycle);
        _phase = Phase::BusTransfer;
        _memBytesSent = 0;
        _pending.pop_front();
        _statCommands.inc();
        break;

      case CommandOp::WriteBuffer: {
        // Cross the system bus first; GPU memory writes follow.
        const u32 bytes =
            static_cast<u32>(_current.data->size());
        _statBusBytes.inc(bytes);
        _busyUntil = cycle + std::max<u64>(
            1, bytes / _config.systemBusBytesPerCycle);
        _phase = Phase::BusTransfer;
        _memBytesSent = 0;
        _statCommands.inc();
        break;
      }

      case CommandOp::Draw: {
        if (!canIssueDraw())
            return;
        if (_staging.raisesDepth())
            broadcastControl(cycle, ControlKind::HzPoison);
        auto cmd = std::make_shared<DrawCmdObj>();
        cmd->marker = MarkerKind::BatchStart;
        cmd->batchId = _nextBatchId++;
        cmd->state = std::make_shared<const RenderState>(_staging);
        cmd->params = _current.draw;
        _drawOut.send(cycle, cmd);
        ++_inflightBatches;
        _pending.pop_front();
        _statCommands.inc();
        _statDraws.inc();
        break;
      }

      case CommandOp::ClearColor:
      case CommandOp::ClearZStencil:
      case CommandOp::Swap:
        // Barrier commands: drain first.
        _phase = Phase::DrainWait;
        _statCommands.inc();
        break;
    }
}

void
CommandProcessor::continueCommand(Cycle cycle)
{
    switch (_phase) {
      case Phase::Idle:
        startCommand(cycle);
        break;

      case Phase::BusTransfer:
        if (cycle < _busyUntil)
            break;
        if (_current.op == CommandOp::WriteBuffer) {
            _phase = Phase::MemWrite;
        } else {
            _phase = Phase::Idle;
        }
        break;

      case Phase::MemWrite: {
        // Stream the buffer into GPU memory in 256-byte chunks.
        const auto& bytes = *_current.data;
        while (memBytesLeft() && _mem.canRequest(cycle)) {
            const u32 chunk = std::min<u32>(
                memMaxTransactionBytes,
                static_cast<u32>(bytes.size()) - _memBytesSent);
            auto txn = std::make_shared<MemTransaction>();
            txn->isRead = false;
            txn->address = _current.address + _memBytesSent;
            txn->size = chunk;
            std::memcpy(txn->data.data(), bytes.data() + _memBytesSent,
                        chunk);
            txn->client = MemClient::CommandProcessor;
            _mem.request(cycle, txn);
            _memBytesSent += chunk;
            ++_memAcksPending;
        }
        while (_mem.hasResponse()) {
            _mem.popResponse(cycle);
            --_memAcksPending;
        }
        if (memWriteDone()) {
            _pending.pop_front();
            _phase = Phase::Idle;
        }
        break;
      }

      case Phase::DrainWait:
        if (_inflightBatches != 0)
            break;
        if (!broadcastControl(cycle, barrierKind()))
            break;
        _swapAfterCtrl = _current.op == CommandOp::Swap;
        _phase = Phase::CtrlWait;
        break;

      case Phase::CtrlWait:
        if (_ctrlAcksPending != 0)
            break;
        if (_swapAfterCtrl) {
            // Swap stage 2: ask the DAC to dump the frame.
            if (!broadcastControl(cycle, ControlKind::DumpFrame))
                break;
            _swapAfterCtrl = false;
            break;
        }
        if (_current.op == CommandOp::Swap)
            ++_framesCompleted;
        _pending.pop_front();
        _phase = Phase::Idle;
        break;
    }
}

sim::Next
CommandProcessor::update(Cycle cycle)
{
    _statBusy.tickFrom(cycle, 0);
    _drawOut.clock(cycle);
    for (auto& l : _ctrlRopz)
        l.clock(cycle);
    for (auto& l : _ctrlRopc)
        l.clock(cycle);
    _ctrlHz.clock(cycle);
    _ctrlDac.clock(cycle);
    _mem.clock(cycle);

    // Retirements: a batch retires once every ROPc reported it.
    for (auto& retire : _retireIn) {
        retire->clock(cycle);
        while (!retire->empty()) {
            auto obj = retire->pop(cycle);
            u32& count = _retireCounts[obj->batchId];
            if (++count == _config.numRops) {
                _retireCounts.erase(obj->batchId);
                if (_inflightBatches == 0)
                    panic("CommandProcessor: retire with no batch in"
                          " flight");
                --_inflightBatches;
            }
        }
    }

    // Acks.
    for (auto& ack : _ackIn) {
        ack->clock(cycle);
        while (!ack->empty()) {
            ack->pop(cycle);
            if (_ctrlAcksPending == 0)
                panic("CommandProcessor: unexpected control ack");
            --_ctrlAcksPending;
        }
    }

    if (!_pending.empty())
        _statBusy.inc();

    continueCommand(cycle);

    // Asleep, the unit still counts a busy cycle per cycle while
    // commands are pending.
    _statBusy.tickFrom(cycle + 1, !_pending.empty());

    // Progress without new input: a command that can start, buffer
    // bytes to request, or a barrier whose broadcast has credit.  A
    // bus transfer ends at _busyUntil; retires, acks and credits
    // arrive as inputs.
    bool moves = true;
    switch (_phase) {
      case Phase::Idle:
        moves = !_pending.empty() &&
                (_pending.front().op != CommandOp::Draw ||
                 canIssueDraw());
        break;
      case Phase::BusTransfer:
        return sim::Next::until(_busyUntil);
      case Phase::MemWrite:
        // A buffer with no bytes left (an empty one, too) completes
        // on the first MemWrite update.
        moves = memWriteDone() ||
                (memBytesLeft() && _mem.requestCredits() > 0) ||
                _mem.hasResponse();
        break;
      case Phase::DrainWait:
        moves = _inflightBatches == 0 && canBroadcast(barrierKind());
        break;
      case Phase::CtrlWait:
        moves = _ctrlAcksPending == 0 &&
                (!_swapAfterCtrl || canBroadcast(ControlKind::DumpFrame));
        break;
    }
    return moves ? sim::Next::runs() : sim::Next::sleeps();
}

ControlKind
CommandProcessor::barrierKind() const
{
    if (_current.op == CommandOp::ClearColor)
        return ControlKind::ClearColor;
    if (_current.op == CommandOp::ClearZStencil)
        return ControlKind::ClearZStencil;
    return ControlKind::Flush; // Swap stage 1.
}

bool
CommandProcessor::canIssueDraw() const
{
    // Geometry and fragment phase both occupied, or no credit.  One
    // draw at most goes per update, so a credit is all a link needs.
    return _inflightBatches < 2 && _drawOut.credits() > 0 &&
           (!_staging.raisesDepth() ||
            canBroadcast(ControlKind::HzPoison));
}

bool
CommandProcessor::memBytesLeft() const
{
    return _memBytesSent < _current.data->size();
}

bool
CommandProcessor::memWriteDone() const
{
    return !memBytesLeft() && _memAcksPending == 0;
}

bool
CommandProcessor::empty() const
{
    return _pending.empty() && _inflightBatches == 0 &&
           _phase == Phase::Idle;
}

} // namespace attila::gpu
