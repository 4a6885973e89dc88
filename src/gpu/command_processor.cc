#include "gpu/command_processor.hh"

#include <algorithm>

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

bool
CommandProcessor::broadcastControl(Cycle cycle, ControlKind kind)
{
    // All targets must have credit before any message is sent so the
    // broadcast is atomic.
    auto targetsOf = [&](ControlKind k)
        -> std::vector<LinkTx*> {
        std::vector<LinkTx*> t;
        switch (k) {
          case ControlKind::ClearColor:
            for (auto& l : _ctrlRopc)
                t.push_back(&l);
            break;
          case ControlKind::ClearZStencil:
            for (auto& l : _ctrlRopz)
                t.push_back(&l);
            t.push_back(&_ctrlHz);
            break;
          case ControlKind::Flush:
            for (auto& l : _ctrlRopz)
                t.push_back(&l);
            for (auto& l : _ctrlRopc)
                t.push_back(&l);
            break;
          case ControlKind::DumpFrame:
            t.push_back(&_ctrlDac);
            break;
          case ControlKind::HzPoison:
            t.push_back(&_ctrlHz);
            break;
        }
        return t;
    };

    auto targets = targetsOf(kind);
    for (LinkTx* t : targets) {
        if (!t->canSend(cycle))
            return false;
    }
    auto state = std::make_shared<const RenderState>(_staging);
    for (LinkTx* t : targets) {
        auto ctrl = std::make_shared<ControlObj>();
        ctrl->kind = kind;
        ctrl->state = state;
        ctrl->setInfo("ctrl");
        t->send(cycle, ctrl);
    }
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
        if (_inflightBatches >= 2)
            return; // Geometry + fragment phase both occupied.
        if (!_drawOut.canSend(cycle))
            return;
        if (_staging.raisesDepth()) {
            if (!broadcastControl(cycle, ControlKind::HzPoison))
                return;
        }
        auto cmd = std::make_shared<DrawCmdObj>();
        cmd->marker = MarkerKind::BatchStart;
        cmd->batchId = _nextBatchId++;
        cmd->state = std::make_shared<const RenderState>(_staging);
        cmd->params = _current.draw;
        cmd->setInfo("draw");
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
        while (_memBytesSent < bytes.size() &&
               _mem.canRequest(cycle)) {
            const u32 chunk = std::min<u32>(
                256, static_cast<u32>(bytes.size()) - _memBytesSent);
            auto txn = _txns.acquire();
            txn->isRead = false;
            txn->address = _current.address + _memBytesSent;
            txn->size = chunk;
            txn->data.assign(bytes.begin() + _memBytesSent,
                             bytes.begin() + _memBytesSent + chunk);
            txn->client = MemClient::CommandProcessor;
            _mem.request(cycle, txn);
            _memBytesSent += chunk;
            ++_memAcksPending;
        }
        while (_mem.hasResponse()) {
            _mem.popResponse(cycle);
            --_memAcksPending;
        }
        if (_memBytesSent >= bytes.size() && _memAcksPending == 0) {
            _pending.pop_front();
            _phase = Phase::Idle;
        }
        break;
      }

      case Phase::DrainWait:
        if (_inflightBatches != 0)
            break;
        {
            ControlKind kind;
            if (_current.op == CommandOp::ClearColor)
                kind = ControlKind::ClearColor;
            else if (_current.op == CommandOp::ClearZStencil)
                kind = ControlKind::ClearZStencil;
            else
                kind = ControlKind::Flush; // Swap stage 1.
            if (!broadcastControl(cycle, kind))
                break;
            _swapAfterCtrl = _current.op == CommandOp::Swap;
            _phase = Phase::CtrlWait;
        }
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

void
CommandProcessor::update(Cycle cycle)
{
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
}

bool
CommandProcessor::empty() const
{
    return _pending.empty() && _inflightBatches == 0 &&
           _phase == Phase::Idle;
}

} // namespace attila::gpu
