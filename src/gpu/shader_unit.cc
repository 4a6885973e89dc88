#include "gpu/shader_unit.hh"

namespace attila::gpu
{

using emu::StepOutcome;

ShaderUnit::ShaderUnit(sim::SignalBinder& binder,
                       sim::StatisticManager& stats,
                       const GpuConfig& config, u32 unit,
                       bool vertex_only)
    : Box(binder, stats, "ShaderUnit" + std::to_string(unit)),
      _config(config),
      _unit(unit),
      _vertexOnly(vertex_only),
      _statInstructions(stat("instructions")),
      _statThreads(stat("threads")),
      _statTexRequests(stat("textureRequests")),
      _statBusy(stat("busyCycles")),
      _statStallTex(stat("textureStallCycles"))
{
    const std::string id = std::to_string(unit);
    _in.init(*this, binder, "ffifo.shader" + id, 1, 1, 4);
    _out.init(*this, binder, "shader" + id + ".ffifo", 1, 1, 4);
    if (!vertex_only) {
        for (u32 t = 0; t < config.numTextureUnits; ++t) {
            auto req = std::make_unique<LinkTx>();
            req->init(*this, binder,
                      "shader" + id + ".tu" + std::to_string(t) +
                          ".req",
                      1, 1, 2);
            _texReq.push_back(std::move(req));
            auto resp = std::make_unique<LinkRx<TexRequest>>();
            resp->init(*this, binder,
                       "tu" + std::to_string(t) + ".shader" + id +
                           ".resp",
                       1, 1, 2);
            _texResp.push_back(std::move(resp));
        }
        _tuNext = unit % config.numTextureUnits;
    }
}

void
ShaderUnit::acceptWork(Cycle cycle)
{
    while (!_in.empty()) {
        ShaderWorkObjPtr work = _in.pop(cycle);
        u32 slot;
        if (!_freeThreads.empty()) {
            slot = _freeThreads.back();
            _freeThreads.pop_back();
        } else {
            slot = static_cast<u32>(_threadPool.size());
            _threadPool.emplace_back();
            _sched.emplace_back();
        }
        Thread& thread = _threadPool[slot];
        thread.work = std::move(work);
        const RenderState& state = *thread.work->state;
        const bool vertex =
            thread.work->target == emu::ShaderTarget::Vertex;
        const emu::ShaderProgramPtr& program =
            vertex ? state.vertexProgram : state.fragmentProgram;
        if (!program)
            panic("ShaderUnit", _unit, ": work without a program");
        thread.decoded = &_decodeCache.get(program);
        thread.constants =
            vertex ? &state.vertexConstants : &state.fragmentConstants;
        for (u32 l = 0; l < 4; ++l) {
            thread.lanes[l].reset();
            thread.lanes[l].in = thread.work->in[l];
            thread.laneDone[l] = !thread.work->active[l];
        }
        thread.tempReady.fill(0);
        _sched[slot] = ThreadSched{thread.work->entryId};
        _activeSlots.push_back(slot);
        _statThreads.inc();
        if constexpr (sim::kEventTraceCompiled) {
            if (_evtTrace) [[unlikely]] {
                _evtTrace->emit(sim::EventKind::ThreadBegin, cycle,
                                _evtShaderId, slot,
                                thread.work->id(),
                                thread.work->parent());
            }
        }
    }
}

void
ShaderUnit::handleTexResponses(Cycle cycle)
{
    for (auto& rx : _texResp) {
        while (!rx->empty()) {
            TexRequestPtr resp = rx->pop(cycle);
            bool found = false;
            for (const u32 slot : _activeSlots) {
                ThreadSched& sched = _sched[slot];
                if (sched.entryId != resp->threadTag ||
                    !sched.waitingTexture) {
                    continue;
                }
                Thread& thread = _threadPool[slot];
                u32 pc = 0;
                for (u32 l = 0; l < 4; ++l) {
                    if (!thread.laneDone[l]) {
                        pc = thread.lanes[l].pc;
                        break;
                    }
                }
                const s32 dstTemp =
                    thread.decoded->code[pc].dstTempIndex;
                _emulator.completeTextureQuad(*thread.decoded,
                                              thread.lanes,
                                              thread.laneDone,
                                              resp->texels);
                // The texture result register becomes readable
                // shortly after the response arrives.
                if (dstTemp >= 0)
                    thread.tempReady[static_cast<u32>(dstTemp)] =
                        cycle + 1;
                sched.waitingTexture = false;
                sched.depsStale = true;
                found = true;
                break;
            }
            if (!found)
                panic("ShaderUnit", _unit,
                      ": texture response with no waiting thread");
        }
    }
}

void
ShaderUnit::refreshDeps(const Thread& thread, ThreadSched& sched) const
{
    // All live lanes share the pc; the first live one is the
    // reference.
    sched.depsStale = false;
    sched.depsReadyAt = 0;
    sched.next = nullptr;
    for (u32 l = 0; l < 4; ++l) {
        if (!thread.laneDone[l]) {
            sched.next = &thread.decoded->code[thread.lanes[l].pc];
            break;
        }
    }
    if (!sched.next)
        return;
    const emu::DecodedIns& d = *sched.next;
    for (u32 i = 0; i < d.numSrc; ++i) {
        const emu::DecodedSrc& src = d.src[i];
        if (!src.fromConstants && src.offset >= emu::decoded::tempBase) {
            sched.depsReadyAt = std::max(
                sched.depsReadyAt,
                thread.tempReady[src.offset - emu::decoded::tempBase]);
        }
    }
}

ShaderUnit::Readiness
ShaderUnit::readiness(u32 slot, Cycle cycle)
{
    ThreadSched& sched = _sched[slot];
    if (sched.waitingTexture)
        return Readiness::TexWait;
    if (sched.finished)
        return Readiness::Finished;
    // "Ready at cycle c" is: no source temp has tempReady > c, i.e.
    // c >= max(tempReady over sources).  That maximum only moves
    // when the pc, laneDone or scoreboard change — all mark the memo
    // stale — so it is computed once per change and the per-cycle
    // check collapses to a compare.
    if (sched.depsStale)
        refreshDeps(_threadPool[slot], sched);
    return cycle >= sched.depsReadyAt ? Readiness::Ready
                                      : Readiness::NotReady;
}

s32
ShaderUnit::selectThread(Cycle cycle)
{
    if (_activeSlots.empty())
        return -1;

    if (_config.scheduling == ShaderScheduling::InOrderQueue) {
        // Strictly in-order: only the oldest thread may execute.
        // Insertion order is age order, so that is the front.  A
        // finished oldest thread is selected too: it holds the unit
        // until it retires.
        const u32 oldest = _activeSlots.front();
        switch (readiness(oldest, cycle)) {
          case Readiness::TexWait:
            _statStallTex.inc();
            return -1;
          case Readiness::NotReady:
            return -1;
          case Readiness::Finished:
          case Readiness::Ready:
            break;
        }
        return static_cast<s32>(oldest);
    }

    // Thread window: round-robin among ready threads — the first
    // ready thread at position >= rrNext, else the first ready one
    // before it (a circular scan, stopping at the first match).
    const u32 n = static_cast<u32>(_activeSlots.size());
    const u32 start = _rrNext % n;
    s32 candidate = -1;
    bool anyTexWait = false;
    for (u32 k = 0; k < n; ++k) {
        u32 pos = start + k;
        if (pos >= n)
            pos -= n;
        const u32 slot = _activeSlots[pos];
        const Readiness r = readiness(slot, cycle);
        anyTexWait |= r == Readiness::TexWait;
        if (r == Readiness::Ready) {
            candidate = static_cast<s32>(slot);
            break;
        }
    }
    // No candidate means the scan visited every thread, so
    // anyTexWait is complete exactly when it is needed.
    if (candidate < 0 && anyTexWait)
        _statStallTex.inc();
    ++_rrNext;
    return candidate;
}

bool
ShaderUnit::sendResult(Cycle cycle, Thread& thread)
{
    if (!_out.canSend(cycle))
        return false;
    for (u32 l = 0; l < 4; ++l) {
        thread.work->out[l] = thread.lanes[l].out;
        thread.work->killed[l] = thread.lanes[l].killed;
    }
    _out.send(cycle, thread.work);
    return true;
}

void
ShaderUnit::execute(Cycle cycle, u32 slot)
{
    Thread& thread = _threadPool[slot];
    ThreadSched& sched = _sched[slot];
    for (u32 n = 0; n < _config.shaderFetchRate; ++n) {
        if (readiness(slot, cycle) != Readiness::Ready)
            return;

        // The memo readiness() just refreshed holds the next
        // instruction, so the texture link is tested before the
        // kernel reads any operand.
        const emu::DecodedIns* d = sched.next;
        if (!d) {
            sched.finished = true;
            return;
        }
        if (d->isTexture) {
            // The assembler accepts TEX in a vertex program, but a
            // vertex-only unit is wired to no Texture Unit.
            if (_texReq.empty())
                panic("ShaderUnit", _unit,
                      ": texture fetch in a vertex program on a "
                      "vertex-only unit");
            LinkTx& link = *_texReq[_tuNext];
            if (!link.canSend(cycle))
                return; // No TU slot this cycle; retry.
            const auto qs = _emulator.stepQuad(
                *thread.decoded, *thread.constants, thread.lanes,
                thread.laneDone);
            if (qs.outcome != StepOutcome::TexRequest)
                panic("ShaderUnit", _unit,
                      ": expected a texture request");
            auto req = std::make_shared<TexRequest>();
            req->shaderId = _unit;
            req->threadTag = thread.work->entryId;
            req->state = thread.work->state;
            req->setParent(*thread.work);
            for (u32 l = 0; l < 4; ++l) {
                req->active[l] = !thread.laneDone[l];
                if (!thread.laneDone[l])
                    req->coords[l] = qs.texCoords[l];
            }
            req->textureUnit = qs.texUnit;
            req->target = qs.texTarget;
            req->lodBias = qs.texLodBias;
            req->projected = qs.texProjected;
            link.send(cycle, req);
            _tuNext = (_tuNext + 1) % _texReq.size();
            sched.waitingTexture = true;
            sched.depsStale = true;
            _statTexRequests.inc();
            _statInstructions.inc();
            return;
        }

        const auto qs = _emulator.stepQuad(
            *thread.decoded, *thread.constants, thread.lanes,
            thread.laneDone);
        _statInstructions.inc();
        if (d->dstTempIndex >= 0) {
            thread.tempReady[static_cast<u32>(d->dstTempIndex)] =
                cycle + qs.latency;
        }
        sched.depsStale = true;
        if (qs.outcome == StepOutcome::Done) {
            sched.finished = true;
            return;
        }
    }
}

sim::Next
ShaderUnit::update(Cycle cycle)
{
    _statBusy.tickFrom(cycle, 0);
    _statStallTex.tickFrom(cycle, 0);
    // The round robin moved on every cycle the unit slept holding
    // threads, as selectThread() would have moved it.
    if (!_activeSlots.empty() && cycle > _lastUpdate)
        _rrNext += static_cast<u32>(cycle - _lastUpdate - 1);
    _lastUpdate = cycle;
    _in.clock(cycle);
    _out.clock(cycle);
    for (auto& l : _texReq)
        l->clock(cycle);
    for (auto& l : _texResp)
        l->clock(cycle);

    acceptWork(cycle);
    handleTexResponses(cycle);

    // Retire finished threads (one per cycle).
    for (u32 i = 0; i < _activeSlots.size(); ++i) {
        const u32 slot = _activeSlots[i];
        if (_sched[slot].finished) {
            Thread& thread = _threadPool[slot];
            if (sendResult(cycle, thread)) {
                if constexpr (sim::kEventTraceCompiled) {
                    if (_evtTrace) [[unlikely]] {
                        _evtTrace->emit(
                            sim::EventKind::ThreadEnd, cycle,
                            _evtShaderId, slot, thread.work->id(),
                            thread.work->parent());
                    }
                }
                // Release references; the slot itself is recycled.
                thread.work.reset();
                thread.constants = nullptr;
                thread.decoded = nullptr;
                _freeThreads.push_back(slot);
                _activeSlots.erase(_activeSlots.begin() + i);
            }
            break;
        }
    }

    if (const s32 slot = selectThread(cycle); slot >= 0) {
        _statBusy.inc();
        execute(cycle, static_cast<u32>(slot));
    }

    // The next step: ask selectThread()'s and execute()'s readiness()
    // about the next cycle without new input.  A finished thread
    // needs a result credit; a thread waits for its source temps
    // until they are readable; texture results and credits arrive as
    // inputs.  The thread window selects one ready thread per cycle
    // in rotation, so the unit can progress when any ready thread
    // can; the in-order queue looks at the oldest only.
    const Cycle next = cycle + 1;
    const bool inOrder =
        _config.scheduling == ShaderScheduling::InOrderQueue;
    // A vertex-only unit panics on a texture fetch: let it run.
    const bool texCredit =
        _texReq.empty() || _texReq[_tuNext]->credits() > 0;
    bool anyFinished = false;
    bool anyTexWait = false;
    bool anyReady = false;
    Cycle wake = sim::NoWake;
    for (u32 i = 0; i < _activeSlots.size(); ++i) {
        const u32 slot = _activeSlots[i];
        const ThreadSched& sched = _sched[slot];
        anyFinished |= sched.finished;
        if (inOrder && i != 0)
            continue;
        switch (readiness(slot, next)) {
          case Readiness::TexWait:
            anyTexWait = true;
            break;
          case Readiness::Finished:
            // The in-order queue selects its finished oldest thread.
            anyReady |= inOrder;
            break;
          case Readiness::NotReady:
            wake = std::min(wake, sched.depsReadyAt);
            break;
          case Readiness::Ready:
            anyReady = true;
            if (!sched.next || !sched.next->isTexture || texCredit) {
                // Clocked next cycle: that update switches the ticks
                // off and states its own step, so the scan can stop
                // here.
                return sim::Next::runs();
            }
            break;
        }
    }
    // Asleep, a ready thread stalled on the texture link still counts
    // a busy cycle; with none ready, a thread waiting for a texture
    // counts a stall cycle.
    _statBusy.tickFrom(next, anyReady);
    _statStallTex.tickFrom(next, anyTexWait && (inOrder || !anyReady));
    return anyFinished && _out.credits() > 0 ? sim::Next::runs()
                                             : sim::Next::until(wake);
}

bool
ShaderUnit::empty() const
{
    return _activeSlots.empty() && _in.empty();
}

} // namespace attila::gpu
