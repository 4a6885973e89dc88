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
        _tuNext = unit % std::max(1u, config.numTextureUnits);
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
        }
        Thread& thread = _threadPool[slot];
        thread.order = _orderCounter++;
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
        thread.waitingTexture = false;
        thread.finished = false;
        thread.tempReady.fill(0);
        thread.epoch = 1;
        thread.depsEpoch = 0;
        _activeSlots.push_back(slot);
        _statThreads.inc();
        if constexpr (sim::kEventTraceCompiled) {
            if (_evtTrace) [[unlikely]] {
                _evtTrace->emit(sim::EventKind::ThreadBegin, cycle,
                                _evtShaderId, slot,
                                thread.work->id(),
                                sim::traceParentOf(*thread.work));
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
                Thread& thread = _threadPool[slot];
                if (thread.work->entryId != resp->threadTag ||
                    !thread.waitingTexture) {
                    continue;
                }
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
                thread.waitingTexture = false;
                ++thread.epoch;
                found = true;
                break;
            }
            if (!found)
                panic("ShaderUnit", _unit,
                      ": texture response with no waiting thread");
        }
    }
}

Cycle
ShaderUnit::computeReadyAt(const Thread& thread) const
{
    // All lanes share the pc; lane 0 is the reference.
    u32 pc = ~0u;
    for (u32 l = 0; l < 4; ++l) {
        if (!thread.laneDone[l]) {
            pc = thread.lanes[l].pc;
            break;
        }
    }
    if (pc == ~0u)
        return 0;
    Cycle readyAt = 0;
    const emu::DecodedIns& d = thread.decoded->code[pc];
    for (u32 i = 0; i < d.numSrc; ++i) {
        const emu::DecodedSrc& src = d.src[i];
        if (!src.fromConstants && src.offset >= emu::decoded::tempBase) {
            readyAt = std::max(
                readyAt,
                thread.tempReady[src.offset - emu::decoded::tempBase]);
        }
    }
    return readyAt;
}

bool
ShaderUnit::dependenciesReady(const Thread& thread,
                              Cycle cycle) const
{
    // "Ready at cycle c" was: no source temp has tempReady > c,
    // i.e. c >= max(tempReady over sources).  That maximum only
    // moves when the pc, laneDone or scoreboard change — all bump
    // the thread's epoch — so it is computed once per epoch and the
    // per-cycle check collapses to a compare.
    if (thread.depsEpoch != thread.epoch) {
        thread.depsReadyAt = computeReadyAt(thread);
        thread.depsEpoch = thread.epoch;
    }
    return cycle >= thread.depsReadyAt;
}

ShaderUnit::Thread*
ShaderUnit::selectThread(Cycle cycle)
{
    if (_activeSlots.empty())
        return nullptr;

    if (_config.scheduling == ShaderScheduling::InOrderQueue) {
        // Strictly in-order: only the oldest thread may execute.
        // Insertion order is age order, so that is the front.
        Thread* oldest = &_threadPool[_activeSlots.front()];
        if (oldest->waitingTexture) {
            _statStallTex.inc();
            return nullptr;
        }
        if (!dependenciesReady(*oldest, cycle))
            return nullptr;
        return oldest;
    }

    // Thread window: round-robin among ready threads — the first
    // ready thread at position >= rrNext, else the first ready one
    // before it (a circular scan, stopping at the first match).
    const u32 n = static_cast<u32>(_activeSlots.size());
    const u32 start = _rrNext % n;
    Thread* candidate = nullptr;
    bool anyTexWait = false;
    for (u32 k = 0; k < n; ++k) {
        u32 pos = start + k;
        if (pos >= n)
            pos -= n;
        Thread& thread = _threadPool[_activeSlots[pos]];
        if (thread.waitingTexture) {
            anyTexWait = true;
            continue;
        }
        if (thread.finished)
            continue;
        if (!dependenciesReady(thread, cycle))
            continue;
        candidate = &thread;
        break;
    }
    // No candidate means the scan visited every thread, so
    // anyTexWait is complete exactly when it is needed.
    if (!candidate && anyTexWait)
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
ShaderUnit::execute(Cycle cycle, Thread& thread)
{
    for (u32 n = 0; n < _config.shaderFetchRate; ++n) {
        if (thread.waitingTexture || thread.finished)
            return;
        if (!dependenciesReady(thread, cycle))
            return;

        // Reference lane for control decisions.
        s32 ref = -1;
        for (u32 l = 0; l < 4; ++l) {
            if (!thread.laneDone[l]) {
                ref = static_cast<s32>(l);
                break;
            }
        }
        if (ref < 0) {
            thread.finished = true;
            return;
        }

        // Quad-lockstep execution: one dispatch per instruction
        // for all live lanes.
        const emu::DecodedIns& d =
            thread.decoded->code[thread.lanes[ref].pc];
        if (d.isTexture) {
            LinkTx& link = *_texReq[_tuNext % _texReq.size()];
            if (!link.canSend(cycle))
                return; // No TU slot this cycle; retry.
            const auto qs = _emulator.stepQuad(
                *thread.decoded, *thread.constants, thread.lanes,
                thread.laneDone);
            if (qs.outcome != StepOutcome::TexRequest)
                panic("ShaderUnit", _unit,
                      ": expected a texture request");
            auto req = _texPool.acquire();
            req->shaderId = _unit;
            req->threadTag = thread.work->entryId;
            req->state = thread.work->state;
            req->setInfo("tex");
            req->copyTrailFrom(*thread.work);
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
            _tuNext = (_tuNext + 1) %
                      std::max<std::size_t>(1, _texReq.size());
            thread.waitingTexture = true;
            ++thread.epoch;
            _statTexRequests.inc();
            _statInstructions.inc();
            return;
        }

        const auto qs = _emulator.stepQuad(
            *thread.decoded, *thread.constants, thread.lanes,
            thread.laneDone);
        _statInstructions.inc();
        if (d.dstTempIndex >= 0) {
            thread.tempReady[static_cast<u32>(d.dstTempIndex)] =
                cycle + qs.latency;
        }
        ++thread.epoch;
        if (qs.outcome == StepOutcome::Done) {
            thread.finished = true;
            return;
        }
    }
}

void
ShaderUnit::update(Cycle cycle)
{
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
        Thread& thread = _threadPool[_activeSlots[i]];
        if (thread.finished) {
            if (sendResult(cycle, thread)) {
                if constexpr (sim::kEventTraceCompiled) {
                    if (_evtTrace) [[unlikely]] {
                        _evtTrace->emit(
                            sim::EventKind::ThreadEnd, cycle,
                            _evtShaderId, _activeSlots[i],
                            thread.work->id(),
                            sim::traceParentOf(*thread.work));
                    }
                }
                // Release references; the slot itself is recycled.
                thread.work.reset();
                thread.constants = nullptr;
                thread.decoded = nullptr;
                _freeThreads.push_back(_activeSlots[i]);
                _activeSlots.erase(_activeSlots.begin() + i);
            }
            break;
        }
    }

    if (Thread* thread = selectThread(cycle)) {
        _statBusy.inc();
        execute(cycle, *thread);
    }
}

bool
ShaderUnit::empty() const
{
    return _activeSlots.empty() && _in.empty();
}

} // namespace attila::gpu
