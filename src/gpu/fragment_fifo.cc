#include "gpu/fragment_fifo.hh"

#include <algorithm>
#include <utility>

#include "gpu/framebuffer.hh"
#include "sim/config_file.hh"

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
 * holds: take() would retry it forever and the model would never
 * drain.  Called only when an admission fails, so the check costs
 * nothing on the admit path.
 */
void
checkPoolCanHold(const char* what, const char* key, u32 needed,
                 u32 size, const char* unit)
{
    if (needed > size) {
        throw sim::ConfigError(detail::concat(
            "config: FragmentFIFO: ", what, " needs ", needed, " ",
            unit, " but ", key, " is ", size,
            ", so the shader pool can never admit it"));
    }
}

} // anonymous namespace

FragmentFifo::Step
FragmentFifo::step(IssueClass cls, u32 inputs, u32 registers) const
{
    Step st{Admission::Admits, cls, inputs, registers};
    if (cls == VertexClass) {
        // Dedicated vertex pool (threads checked at issue).
        if (_usedVertexRegisters + registers >
            _config.vertexShaderRegisters)
            st.admission = Admission::RegistersFull;
    } else if (_usedInputs + inputs > _config.shaderInputsInFlight) {
        st.admission = Admission::WindowFull;
    } else if (_usedRegisters + registers > _config.shaderRegisters) {
        st.admission = Admission::RegistersFull;
    }
    return st;
}

bool
FragmentFifo::take(const Step& st, const char* what)
{
    if (st.admission == Admission::Admits) {
        if (st.cls == VertexClass) {
            _usedVertexRegisters += st.registers;
        } else {
            _usedInputs += st.inputs;
            _usedRegisters += st.registers;
        }
        return true;
    }
    if (st.cls == VertexClass) {
        checkPoolCanHold(what, "shader.vertexRegisters", st.registers,
                         _config.vertexShaderRegisters, "registers");
    } else if (st.admission == Admission::WindowFull) {
        checkPoolCanHold(what, "shader.inputsInFlight", st.inputs,
                         _config.shaderInputsInFlight, "inputs");
    } else {
        checkPoolCanHold(what, "shader.registers", st.registers,
                         _config.shaderRegisters, "registers");
    }
    (st.admission == Admission::WindowFull ? _statWindowFullCycles
                                           : _statRegistersFullCycles)
        .inc();
    return false;
}

void
FragmentFifo::insert(Entry&& entry)
{
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
}

const FragmentFifo::Entry*
FragmentFifo::findEntry(u64 id) const
{
    const ChainQueue& chain = _chains[id % NumChains];
    const u64 seq = id / NumChains;
    if (seq < chain.base || seq - chain.base >= chain.entries.size())
        return nullptr;
    return &chain.entries.at(seq - chain.base);
}

FragmentFifo::Entry*
FragmentFifo::findEntry(u64 id)
{
    return const_cast<Entry*>(std::as_const(*this).findEntry(id));
}

FragmentFifo::IssueClass
FragmentFifo::vertexGroupClass() const
{
    return _config.unifiedShaders ? SharedClass : VertexClass;
}

FragmentFifo::IssueClass
FragmentFifo::issueClass(const Entry& entry) const
{
    return entry.kind == EntryKind::VertexGroup ? vertexGroupClass()
                                                : SharedClass;
}

u32
FragmentFifo::maxThreads(IssueClass cls) const
{
    return cls == VertexClass
               ? _config.vertexShaderThreads
               : std::max(1u,
                          _config.shaderInputsInFlight / 4 / _numUnits);
}

void
FragmentFifo::popChain(ChainQueue& chain)
{
    chain.entries.pop_front();
    ++chain.base;
}

FragmentFifo::Step
FragmentFifo::vertexStep() const
{
    if (_vertexIn.empty() && _pendingGroup.empty())
        return {};
    const u32 lanes = groupLanes();
    if (!_vertexIn.empty() && _pendingGroup.size() + 1 < lanes)
        return step(vertexGroupClass(), 0, 0); // Joins the group.
    // The group the input head completes, or the partial group once
    // the input has run dry (batch ends).
    const VertexObj& last =
        _vertexIn.empty() ? *_pendingGroup.front() : *_vertexIn.front();
    const u32 size = _vertexIn.empty()
                         ? static_cast<u32>(_pendingGroup.size())
                         : lanes;
    return step(vertexGroupClass(), size,
                last.state->vertexProgram->numTemps * size);
}

void
FragmentFifo::pushVertexGroup(const Step& st)
{
    Entry entry;
    entry.kind = EntryKind::VertexGroup;
    entry.numVertices = static_cast<u32>(_pendingGroup.size());
    std::copy(_pendingGroup.begin(), _pendingGroup.end(),
              entry.vertices.begin());
    entry.inputs = st.inputs;
    entry.registers = st.registers;
    insert(std::move(entry));
    _pendingGroup.clear();
}

void
FragmentFifo::acceptVertices(Cycle cycle)
{
    bool arrived = false;
    while (!_vertexIn.empty()) {
        if (!_vertexIn.front()->state->vertexProgram)
            panic("FragmentFIFO: vertex without a vertex program");
        const Step st = vertexStep();
        if (!take(st, "a vertex group"))
            return; // Window or registers full; retry next cycle.
        _pendingGroup.push_back(_vertexIn.pop(cycle));
        arrived = true;
        if (st.inputs != 0)
            pushVertexGroup(st);
    }
    // Flush a partial group when the input ran dry (batch ends).
    if (!_pendingGroup.empty() && !arrived) {
        const Step st = vertexStep();
        if (take(st, "a vertex group"))
            pushVertexGroup(st);
    }
}

FragmentFifo::Step
FragmentFifo::fragmentStep() const
{
    if (_fragmentIn.empty())
        return {};
    const QuadObj& head = *_fragmentIn.front();
    // A marker takes no pool space; a quad with no program is
    // admitted so that the update reaches its panic.
    if (head.isMarker() || !head.state->fragmentProgram)
        return step(SharedClass, 0, 0);
    return step(SharedClass, 4,
                head.state->fragmentProgram->numTemps * 4);
}

void
FragmentFifo::acceptFragments(Cycle cycle)
{
    u32 accepted = 0;
    while (!_fragmentIn.empty() &&
           accepted < _config.interpolatorQuadsPerCycle) {
        const QuadObjPtr& head = _fragmentIn.front();
        if (!head->isMarker() && !head->state->fragmentProgram)
            panic("FragmentFIFO: quad without a fragment program");
        const Step st = fragmentStep();
        if (!take(st, "a fragment quad"))
            return;
        Entry entry;
        entry.quad = head;
        if (head->isMarker()) {
            entry.kind = EntryKind::Marker;
            entry.status = EntryStatus::Completed;
        } else {
            entry.kind = EntryKind::Quad;
            entry.inputs = st.inputs;
            entry.registers = st.registers;
            ++accepted;
        }
        insert(std::move(entry));
        _fragmentIn.pop(cycle);
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

        // Pick the least-loaded unit with a free slot and credit.
        s32 best = -1;
        u32 bestLoad = ~0u;
        for (u32 k = 0; k < unitCount; ++k) {
            const u32 u = unitBase + (k + _issueRr) % unitCount;
            if (!unitCanTake(u, cls, cycle))
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
            work->setParent(*entry.quad);
            for (u32 l = 0; l < 4; ++l) {
                work->active[l] = true; // Helper pixels execute.
                work->in[l] = entry.quad->in[l];
            }
        } else {
            work->target = emu::ShaderTarget::Vertex;
            work->state = entry.vertices[0]->state;
            work->batchId = entry.vertices[0]->batchId;
            work->setParent(*entry.vertices[0]);
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

bool
FragmentFifo::vertexCanSend(Cycle cycle) const
{
    return !_vertexSendQueue.empty() && _vertexOut.canSend(cycle);
}

bool
FragmentFifo::vertexHeadCommits() const
{
    const ChainQueue& chain = _chains[VertexChain];
    return !chain.entries.empty() &&
           chain.entries.front().status == EntryStatus::Completed &&
           _vertexSendQueue.size() < 8;
}

void
FragmentFifo::commitVertices(Cycle cycle)
{
    // Drain the send queue first (link bandwidth 1).
    while (vertexCanSend(cycle)) {
        _vertexOut.send(cycle, _vertexSendQueue.pop_front());
        _statVerticesCommitted.inc();
    }

    ChainQueue& chain = _chains[VertexChain];
    while (vertexHeadCommits()) {
        Entry& entry = chain.entries.front();
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

namespace
{

bool
covered(const QuadObj& quad)
{
    return quad.coverage[0] || quad.coverage[1] || quad.coverage[2] ||
           quad.coverage[3];
}

} // anonymous namespace

LinkTx&
FragmentFifo::quadTarget(const QuadObj& quad) const
{
    return quad.lateZPath ? *_toRopzLate[ropOf(quad)]
                          : *_toRopc[ropOf(quad)];
}

bool
FragmentFifo::fragmentHeadCommits(Cycle cycle) const
{
    const ChainQueue& chain = _chains[FragmentChain];
    if (chain.entries.empty() ||
        chain.entries.front().status != EntryStatus::Completed)
        return false;
    const Entry& entry = chain.entries.front();
    const auto ready = [cycle](const std::unique_ptr<LinkTx>& l) {
        return l->canSend(cycle);
    };
    if (entry.kind == EntryKind::Marker) {
        // Broadcast to every ROPc (early path) and every ROPz late
        // input; atomic across all targets.
        return std::all_of(_toRopc.begin(), _toRopc.end(), ready) &&
               std::all_of(_toRopzLate.begin(), _toRopzLate.end(),
                           ready);
    }
    // A quad with no covered pixel leaves without a send.
    return !covered(*entry.quad) ||
           quadTarget(*entry.quad).canSend(cycle);
}

void
FragmentFifo::commitFragments(Cycle cycle)
{
    ChainQueue& chain = _chains[FragmentChain];
    u32 committed = 0;
    while (committed < 4 && fragmentHeadCommits(cycle)) {
        Entry& entry = chain.entries.front();
        if (entry.kind == EntryKind::Marker) {
            for (auto& l : _toRopc)
                l->send(cycle, entry.quad);
            for (auto& l : _toRopzLate)
                l->send(cycle, entry.quad);
        } else {
            if (covered(*entry.quad))
                quadTarget(*entry.quad).send(cycle, entry.quad);
            _usedInputs -= entry.inputs;
            _usedRegisters -= entry.registers;
            _statQuadsCommitted.inc();
        }
        popChain(chain);
        ++committed;
    }
}

sim::Next
FragmentFifo::update(Cycle cycle)
{
    _statBusy.tickFrom(cycle, 0);
    _statWindowFullCycles.tickFrom(cycle, 0);
    _statRegistersFullCycles.tickFrom(cycle, 0);
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

    const Admission v = vertexStep().admission;
    const Admission f = fragmentStep().admission;
    // Asleep, the unit counts what each blocked update would: a busy
    // cycle while the window holds entries, and every admission the
    // window or the register pool turns down.
    _statBusy.tickFrom(cycle + 1,
                       !_chains[VertexChain].entries.empty() ||
                           !_chains[FragmentChain].entries.empty());
    _statWindowFullCycles.tickFrom(
        cycle + 1, u64{v == Admission::WindowFull} +
                       u64{f == Admission::WindowFull});
    _statRegistersFullCycles.tickFrom(
        cycle + 1, u64{v == Admission::RegistersFull} +
                       u64{f == Admission::RegistersFull});
    // Whether an entry can commit, an input be admitted or a thread
    // issue next cycle without new input: at the end of an update, a
    // link's canSend(cycle + 1) is its credit test.
    const bool moves =
        v == Admission::Admits || f == Admission::Admits ||
        vertexCanSend(cycle + 1) || vertexHeadCommits() ||
        fragmentHeadCommits(cycle + 1) || issuePossible(cycle + 1);
    return moves ? sim::Next::runs() : sim::Next::sleeps();
}

bool
FragmentFifo::unitCanTake(u32 unit, IssueClass cls, Cycle cycle) const
{
    return _unitLoad[unit] < maxThreads(cls) &&
           _toShader[unit]->canSend(cycle);
}

bool
FragmentFifo::canIssue(IssueClass cls, Cycle cycle) const
{
    const bool vertexClass = cls == VertexClass;
    const u32 base = vertexClass ? _numUnits : 0;
    const u32 count = vertexClass ? _numVertexUnits : _numUnits;
    for (u32 u = base; u < base + count; ++u) {
        if (unitCanTake(u, cls, cycle))
            return true;
    }
    return false;
}

bool
FragmentFifo::issuePossible(Cycle cycle) const
{
    // issue() stops a class at its first entry that cannot issue, and
    // scans at most eight entries: only the first entry of each class
    // among those eight can go.
    if (_issueOrder.empty())
        return false;
    const IssueClass first = issueClass(*findEntry(_issueOrder.at(0)));
    if (canIssue(first, cycle))
        return true;
    const IssueClass other = first == SharedClass ? VertexClass
                                                  : SharedClass;
    if (_waiting[other] == 0)
        return false;
    for (std::size_t i = 1; i < _issueOrder.size() && i < 8; ++i) {
        if (issueClass(*findEntry(_issueOrder.at(i))) == other)
            return canIssue(other, cycle);
    }
    return false;
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
