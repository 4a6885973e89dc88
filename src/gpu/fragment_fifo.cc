#include "gpu/fragment_fifo.hh"

#include <algorithm>

#include "gpu/framebuffer.hh"

namespace attila::gpu
{

FragmentFifo::FragmentFifo(sim::SignalBinder& binder,
                           sim::StatisticManager& stats,
                           const GpuConfig& config)
    : Box(binder, stats, "FragmentFIFO"),
      _config(config),
      _numUnits(config.numShaders),
      _numVertexUnits(config.unifiedShaders
                          ? 0
                          : config.numVertexShaders),
      _statThreadsIssued(stat("threadsIssued")),
      _statQuadsCommitted(stat("quadsCommitted")),
      _statVerticesCommitted(stat("verticesCommitted")),
      _statWindowFullCycles(stat("windowFullCycles")),
      _statRegistersFullCycles(stat("registersFullCycles")),
      _statBusy(stat("busyCycles"))
{
    _vertexIn.init(*this, binder, "streamer.shading", 1, 1, 16);
    _fragmentIn.init(*this, binder, "interp.ffifo",
                     config.interpolatorQuadsPerCycle, 1,
                     config.fragmentFifoQueue);
    _vertexOut.init(*this, binder, "shading.streamer", 1, 1, 16);

    const u32 totalUnits = _numUnits + _numVertexUnits;
    for (u32 s = 0; s < totalUnits; ++s) {
        auto tx = std::make_unique<LinkTx>();
        tx->init(*this, binder, "ffifo.shader" + std::to_string(s),
                 1, 1, 4);
        _toShader.push_back(std::move(tx));
        auto rx = std::make_unique<LinkRx<ShaderWorkObj>>();
        rx->init(*this, binder,
                 "shader" + std::to_string(s) + ".ffifo", 1, 1, 4);
        _fromShader.push_back(std::move(rx));
    }
    for (u32 r = 0; r < config.numRops; ++r) {
        auto ropc = std::make_unique<LinkTx>();
        ropc->init(*this, binder, "ffifo.ropc" + std::to_string(r),
                   2, 1, 16);
        _toRopc.push_back(std::move(ropc));
        auto ropz = std::make_unique<LinkTx>();
        ropz->init(*this, binder,
                   "ffifo.ropz" + std::to_string(r) + ".late", 2, 1,
                   8);
        _toRopzLate.push_back(std::move(ropz));
    }
    _unitLoad.assign(totalUnits, 0);
}

u32
FragmentFifo::groupLanes() const
{
    // Unified shaders process four vertices per thread; the
    // dedicated vertex shaders of the non-unified model process one
    // vertex per thread (paper §2.3).
    return _config.unifiedShaders ? 4 : 1;
}

u32
FragmentFifo::ropOf(const QuadObj& quad) const
{
    return fbTileIndex(quad.state->width,
                       static_cast<u32>(quad.x0),
                       static_cast<u32>(quad.y0)) %
           _config.numRops;
}

namespace
{

/**
 * Reject an entry that needs more of a pool than the whole pool
 * holds: admit() would retry it forever and the model would never
 * drain.  Called only when an admission fails, so the check costs
 * nothing on the admit path.
 */
void
checkPoolCanHold(const char* what, const char* key, u32 needed,
                 u32 size, const char* unit)
{
    if (needed > size) {
        throw SimError(detail::concat(
            "config: FragmentFIFO: ", what, " needs ", needed, " ",
            unit, " but ", key, " is ", size,
            ", so the shader pool can never admit it"));
    }
}

} // anonymous namespace

bool
FragmentFifo::admit(Entry&& entry)
{
    if (entry.kind != EntryKind::Marker) {
        const char* what = entry.kind == EntryKind::Quad
                               ? "a fragment quad"
                               : "a vertex group";
        if (issueClass(entry) == VertexClass) {
            // Dedicated vertex pool (threads checked at issue).
            if (_usedVertexRegisters + entry.registers >
                _config.vertexShaderRegisters) {
                checkPoolCanHold(what, "shader.vertexRegisters",
                                 entry.registers,
                                 _config.vertexShaderRegisters,
                                 "registers");
                _statRegistersFullCycles.inc();
                return false;
            }
            _usedVertexRegisters += entry.registers;
        } else {
            if (_usedInputs + entry.inputs >
                _config.shaderInputsInFlight) {
                checkPoolCanHold(what, "shader.inputsInFlight",
                                 entry.inputs,
                                 _config.shaderInputsInFlight, "inputs");
                _statWindowFullCycles.inc();
                return false;
            }
            if (_usedRegisters + entry.registers >
                _config.shaderRegisters) {
                checkPoolCanHold(what, "shader.registers",
                                 entry.registers, _config.shaderRegisters,
                                 "registers");
                _statRegistersFullCycles.inc();
                return false;
            }
            _usedInputs += entry.inputs;
            _usedRegisters += entry.registers;
        }
    }

    const Chain c = entry.kind == EntryKind::VertexGroup
                        ? VertexChain
                        : FragmentChain;
    ChainQueue& chain = _chains[c];
    entry.id = (chain.base + chain.entries.size()) * NumChains + c;
    if (entry.kind != EntryKind::Marker) {
        _issueOrder.push_back(entry.id);
        ++_waiting[issueClass(entry)];
    }
    chain.entries.push_back(std::move(entry));
    return true;
}

FragmentFifo::Entry*
FragmentFifo::findEntry(u64 id)
{
    ChainQueue& chain = _chains[id % NumChains];
    const u64 seq = id / NumChains;
    if (seq < chain.base || seq - chain.base >= chain.entries.size())
        return nullptr;
    return &chain.entries.at(seq - chain.base);
}

FragmentFifo::IssueClass
FragmentFifo::issueClass(const Entry& entry) const
{
    return entry.kind == EntryKind::VertexGroup &&
                   !_config.unifiedShaders
               ? VertexClass
               : SharedClass;
}

void
FragmentFifo::popChain(ChainQueue& chain)
{
    chain.entries.pop_front();
    ++chain.base;
}

void
FragmentFifo::acceptVertices(Cycle cycle)
{
    _vertexArrivedThisCycle = false;
    while (!_vertexIn.empty()) {
        const VertexObjPtr& head = _vertexIn.front();
        const RenderState& state = *head->state;
        if (!state.vertexProgram)
            panic("FragmentFIFO: vertex without a vertex program");

        // Build (or extend) the pending group.
        _pendingGroup.push_back(_vertexIn.front());

        const u32 lanes = groupLanes();
        if (_pendingGroup.size() < lanes) {
            _vertexIn.pop(cycle);
            _vertexArrivedThisCycle = true;
            continue;
        }

        Entry entry;
        entry.kind = EntryKind::VertexGroup;
        entry.numVertices = lanes;
        std::copy(_pendingGroup.begin(), _pendingGroup.end(),
                  entry.vertices.begin());
        entry.inputs = lanes;
        entry.registers = state.vertexProgram->numTemps * lanes;
        if (!admit(std::move(entry))) {
            _pendingGroup.pop_back();
            return; // Window or registers full; retry next cycle.
        }
        _vertexIn.pop(cycle);
        _vertexArrivedThisCycle = true;
        _pendingGroup.clear();
    }

    // Flush a partial group when the input ran dry (batch ends).
    if (!_pendingGroup.empty() && !_vertexArrivedThisCycle) {
        const RenderState& state = *_pendingGroup.front()->state;
        const u32 size = static_cast<u32>(_pendingGroup.size());
        Entry entry;
        entry.kind = EntryKind::VertexGroup;
        entry.numVertices = size;
        std::copy(_pendingGroup.begin(), _pendingGroup.end(),
                  entry.vertices.begin());
        entry.inputs = size;
        entry.registers = state.vertexProgram->numTemps * size;
        if (admit(std::move(entry)))
            _pendingGroup.clear();
    }
}

void
FragmentFifo::acceptFragments(Cycle cycle)
{
    u32 accepted = 0;
    while (!_fragmentIn.empty() &&
           accepted < _config.interpolatorQuadsPerCycle) {
        const QuadObjPtr& head = _fragmentIn.front();

        if (head->isMarker()) {
            Entry entry;
            entry.kind = EntryKind::Marker;
            entry.quad = head;
            entry.status = EntryStatus::Completed;
            if (!admit(std::move(entry)))
                return;
            _fragmentIn.pop(cycle);
            continue;
        }

        const RenderState& state = *head->state;
        if (!state.fragmentProgram)
            panic("FragmentFIFO: quad without a fragment program");
        Entry entry;
        entry.kind = EntryKind::Quad;
        entry.quad = head;
        entry.inputs = 4;
        entry.registers = state.fragmentProgram->numTemps * 4;
        if (!admit(std::move(entry)))
            return;
        _fragmentIn.pop(cycle);
        ++accepted;
    }
}

void
FragmentFifo::issue(Cycle cycle)
{
    // Strict in-order issue, skipping only across classes: a stuck
    // fragment thread must not idle the dedicated vertex units.
    u32 scanned = 0;
    // Entries of each class passed over (blocked) so far this cycle.
    u32 skipped[2] = {0, 0};
    for (std::size_t i = 0; i < _issueOrder.size() && scanned < 8;) {
        ++scanned;
        Entry& entry = *findEntry(_issueOrder.at(i));
        const IssueClass cls = issueClass(entry);
        const bool vertexClass = cls == VertexClass;
        const u32 unitBase = vertexClass ? _numUnits : 0;
        const u32 unitCount = vertexClass ? _numVertexUnits
                                          : _numUnits;
        const u32 maxThreads =
            vertexClass
                ? _config.vertexShaderThreads
                : std::max(1u, _config.shaderInputsInFlight / 4 /
                                   std::max(1u, _numUnits));

        // Pick the least-loaded unit with a free slot and credit.
        s32 best = -1;
        u32 bestLoad = ~0u;
        for (u32 k = 0; k < unitCount; ++k) {
            const u32 u = unitBase + (k + _issueRr) % unitCount;
            if (_unitLoad[u] >= maxThreads)
                continue;
            if (!_toShader[u]->canSend(cycle))
                continue;
            if (_unitLoad[u] < bestLoad) {
                bestLoad = _unitLoad[u];
                best = static_cast<s32>(u);
            }
        }
        if (best < 0) {
            // In-order within the class: stop at the first entry of
            // this class that cannot issue, but let the other class
            // proceed.  Every Waiting entry is in _issueOrder, and
            // those before this one were issued or skipped, so the
            // other class has entries behind this one exactly when
            // not all of its waiting entries were skipped.
            ++skipped[cls];
            const u32 other = cls ^ 1;
            if (_waiting[other] == skipped[other])
                return;
            ++i;
            continue;
        }

        auto work = std::make_shared<ShaderWorkObj>();
        work->entryId = entry.id;
        if (entry.kind == EntryKind::Quad) {
            work->target = emu::ShaderTarget::Fragment;
            work->state = entry.quad->state;
            work->batchId = entry.quad->batchId;
            work->copyTrailFrom(*entry.quad);
            for (u32 l = 0; l < 4; ++l) {
                work->active[l] = true; // Helper pixels execute.
                work->in[l] = entry.quad->in[l];
            }
        } else {
            work->target = emu::ShaderTarget::Vertex;
            work->state = entry.vertices[0]->state;
            work->batchId = entry.vertices[0]->batchId;
            work->copyTrailFrom(*entry.vertices[0]);
            for (u32 l = 0; l < entry.numVertices; ++l) {
                work->active[l] = true;
                work->in[l] = entry.vertices[l]->in;
            }
        }
        entry.work = work;
        entry.status = EntryStatus::Running;
        entry.shaderUnit = static_cast<u32>(best);
        ++_unitLoad[best];
        _toShader[best]->send(cycle, work);
        _statThreadsIssued.inc();
        ++_issueRr;
        --_waiting[cls];
        _issueOrder.remove_at(i);
    }
}

void
FragmentFifo::collectResults(Cycle cycle)
{
    for (auto& rx : _fromShader) {
        while (!rx->empty()) {
            ShaderWorkObjPtr work = rx->pop(cycle);
            Entry* found = findEntry(work->entryId);
            if (!found)
                panic("FragmentFIFO: result for unknown entry ",
                      work->entryId);
            Entry& entry = *found;
            entry.status = EntryStatus::Completed;
            --_unitLoad[entry.shaderUnit];

            if (entry.kind == EntryKind::Quad) {
                for (u32 l = 0; l < 4; ++l) {
                    entry.quad->out[l] = work->out[l];
                    if (work->killed[l])
                        entry.quad->coverage[l] = false;
                }
                entry.quad->shaded = true;
            } else {
                for (u32 l = 0; l < entry.numVertices; ++l)
                    entry.vertices[l]->out = work->out[l];
            }
        }
    }
}

void
FragmentFifo::commitVertices(Cycle cycle)
{
    // Drain the send queue first (link bandwidth 1).
    while (!_vertexSendQueue.empty() && _vertexOut.canSend(cycle)) {
        _vertexOut.send(cycle, _vertexSendQueue.pop_front());
        _statVerticesCommitted.inc();
    }

    ChainQueue& chain = _chains[VertexChain];
    while (!chain.entries.empty() && _vertexSendQueue.size() < 8) {
        Entry& entry = chain.entries.front();
        if (entry.status != EntryStatus::Completed)
            return;
        for (u32 l = 0; l < entry.numVertices; ++l)
            _vertexSendQueue.push_back(entry.vertices[l]);
        // Free resources.
        if (!_config.unifiedShaders) {
            _usedVertexRegisters -= entry.registers;
        } else {
            _usedInputs -= entry.inputs;
            _usedRegisters -= entry.registers;
        }
        popChain(chain);
    }
}

void
FragmentFifo::commitFragments(Cycle cycle)
{
    ChainQueue& chain = _chains[FragmentChain];
    u32 committed = 0;
    while (!chain.entries.empty() && committed < 4) {
        Entry& entry = chain.entries.front();
        if (entry.status != EntryStatus::Completed)
            return;

        if (entry.kind == EntryKind::Marker) {
            // Broadcast to every ROPc (early path) and every ROPz
            // late input; atomic across all targets.
            for (auto& l : _toRopc) {
                if (!l->canSend(cycle))
                    return;
            }
            for (auto& l : _toRopzLate) {
                if (!l->canSend(cycle))
                    return;
            }
            for (auto& l : _toRopc)
                l->send(cycle, entry.quad);
            for (auto& l : _toRopzLate)
                l->send(cycle, entry.quad);
            popChain(chain);
            ++committed;
            continue;
        }

        QuadObjPtr quad = entry.quad;
        const bool alive = quad->coverage[0] || quad->coverage[1] ||
                           quad->coverage[2] || quad->coverage[3];
        if (alive) {
            LinkTx& out = quad->lateZPath
                              ? *_toRopzLate[ropOf(*quad)]
                              : *_toRopc[ropOf(*quad)];
            if (!out.canSend(cycle))
                return;
            out.send(cycle, quad);
        }
        _usedInputs -= entry.inputs;
        _usedRegisters -= entry.registers;
        popChain(chain);
        _statQuadsCommitted.inc();
        ++committed;
    }
}

void
FragmentFifo::update(Cycle cycle)
{
    _vertexIn.clock(cycle);
    _fragmentIn.clock(cycle);
    _vertexOut.clock(cycle);
    for (auto& l : _toShader)
        l->clock(cycle);
    for (auto& l : _fromShader)
        l->clock(cycle);
    for (auto& l : _toRopc)
        l->clock(cycle);
    for (auto& l : _toRopzLate)
        l->clock(cycle);

    if (!_chains[VertexChain].entries.empty() ||
        !_chains[FragmentChain].entries.empty())
        _statBusy.inc();

    collectResults(cycle);
    commitVertices(cycle);
    commitFragments(cycle);
    acceptVertices(cycle);
    acceptFragments(cycle);
    issue(cycle);
}

bool
FragmentFifo::empty() const
{
    return _chains[VertexChain].entries.empty() &&
           _chains[FragmentChain].entries.empty() && _vertexIn.empty() &&
           _fragmentIn.empty() && _pendingGroup.empty() &&
           _vertexSendQueue.empty();
}

} // namespace attila::gpu
