#include "gpu/streamer.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace attila::gpu
{

namespace
{

constexpr u32 indexChunkBytes = 64;

/** Memory transaction tags: indices vs attributes. */
constexpr u64 tagIndexBase = 1ull << 40;

} // anonymous namespace

Streamer::Streamer(sim::SignalBinder& binder,
                   sim::StatisticManager& stats,
                   const GpuConfig& config)
    : Box(binder, stats, "Streamer"),
      _config(config),
      _statVertices(stat("vertices")),
      _statCacheHits(stat("vertexCacheHits")),
      _statCacheMisses(stat("vertexCacheMisses")),
      _statBusy(stat("busyCycles"))
{
    _drawIn.init(*this, binder, "cp.draw", 1, 1, 4);
    _toShading.init(*this, binder, "streamer.shading", 1, 1, 16);
    _fromShading.init(*this, binder, "shading.streamer", 1, 1, 16);
    _toAssembly.init(*this, binder, "streamer.assembly", 1, 1,
                     config.primitiveAssemblyQueue);
    _mem.init(*this, binder, "mc.streamer",
              config.memoryRequestQueue);
    _slots.resize(config.streamerQueue);
    _cacheIndex.resize(config.vertexCacheEntries);
    _cacheOut.resize(config.vertexCacheEntries);
}

Streamer::Slot*
Streamer::liveSlot(u32 seq)
{
    if (seq < _committed || seq >= _dispatched)
        return nullptr;
    return &_slots[seq % _config.streamerQueue];
}

const Streamer::OutputRegs*
Streamer::cacheLookup(u32 index) const
{
    for (u32 i = 0; i < _cacheCount; ++i) {
        if (_cacheIndex[i] == index)
            return &_cacheOut[i];
    }
    return nullptr;
}

void
Streamer::cacheInsert(u32 index, const OutputRegs& out)
{
    if (_config.vertexCacheEntries == 0)
        return; // Cache disabled (ablation).
    for (u32 i = 0; i < _cacheCount; ++i) {
        if (_cacheIndex[i] == index) {
            _cacheOut[i] = out;
            return;
        }
    }
    u32 slot;
    if (_cacheCount < _config.vertexCacheEntries) {
        slot = _cacheCount++;
    } else {
        // Replace the oldest entry.
        slot = _cacheHead;
        _cacheHead = (_cacheHead + 1) % _config.vertexCacheEntries;
    }
    _cacheIndex[slot] = index;
    _cacheOut[slot] = out;
}

emu::Vec4
Streamer::convertAttribute(const u8* bytes, StreamFormat fmt,
                           u32 stream) const
{
    (void)stream;
    emu::Vec4 v(0.0f, 0.0f, 0.0f, 1.0f);
    switch (fmt) {
      case StreamFormat::Float4:
        std::memcpy(&v.w, bytes + 12, 4);
        [[fallthrough]];
      case StreamFormat::Float3:
        std::memcpy(&v.z, bytes + 8, 4);
        [[fallthrough]];
      case StreamFormat::Float2:
        std::memcpy(&v.y, bytes + 4, 4);
        [[fallthrough]];
      case StreamFormat::Float1:
        std::memcpy(&v.x, bytes, 4);
        break;
      case StreamFormat::UByte4N:
        v = {bytes[0] / 255.0f, bytes[1] / 255.0f, bytes[2] / 255.0f,
             bytes[3] / 255.0f};
        break;
    }
    return v;
}

void
Streamer::startBatch(Cycle cycle)
{
    if (_active || _drawIn.empty())
        return;
    _batch = _drawIn.pop(cycle);
    _active = true;
    _dispatched = 0;
    _committed = 0;
    _endSent = false;
    _indexChunksRequested = 0;
    // The post-shading cache is only valid within one batch: the
    // next batch may bind a different vertex program or streams.
    _cacheCount = 0;
    _cacheHead = 0;

    const RenderState& state = *_batch->state;
    _numStreams = 0;
    for (u32 s = 0; s < maxVertexStreams; ++s) {
        if (state.streams[s].enabled)
            _streams[_numStreams++] = static_cast<u8>(s);
    }
    if (_numStreams > 8)
        fatal("Streamer: at most 8 enabled vertex streams are"
              " supported (got ", _numStreams, ")");
    const u32 count = _batch->params.count;
    if (state.indexStream.enabled) {
        const u32 indexBytes = state.indexStream.wide ? 4 : 2;
        const u32 total = count * indexBytes;
        _indexChunksNeeded =
            (total + indexChunkBytes - 1) / indexChunkBytes;
        // Capacity grows in powers of two, as push_back growth
        // would: batches of similar size reuse one buffer, and a
        // freshly built Gpu's heap settles into the same blocks
        // instead of being trimmed and faulted back in per build.
        if (_indices.capacity() < count)
            _indices.reserve(std::bit_ceil(count));
        _indices.resize(count);
        _indexChunkArrived.assign(_indexChunksNeeded, 0);
        _indicesReady = 0;
    } else {
        // Sequential indices need no data: dispatch derives them.
        _indexChunksNeeded = 0;
        _indicesReady = count;
    }

    // The BatchStart marker leads the vertex stream so every
    // downstream box snapshots the state in order.
    // (Sent through the assembly link during commit().)
}

bool
Streamer::indexFetchCanGo(Cycle cycle) const
{
    return _active && _batch->state->indexStream.enabled &&
           _indexChunksRequested < _indexChunksNeeded &&
           _mem.canRequest(cycle);
}

void
Streamer::fetchIndices(Cycle cycle)
{
    while (indexFetchCanGo(cycle)) {
        const RenderState& state = *_batch->state;
        const u32 indexBytes = state.indexStream.wide ? 4 : 2;
        const u32 total = _batch->params.count * indexBytes;
        const u32 offset = _indexChunksRequested * indexChunkBytes;
        auto txn = std::make_shared<MemTransaction>();
        txn->isRead = true;
        txn->address = state.indexStream.address + offset;
        txn->size = std::min(indexChunkBytes, total - offset);
        txn->client = MemClient::Streamer;
        txn->tag = tagIndexBase + _indexChunksRequested;
        _mem.request(cycle, txn);
        ++_indexChunksRequested;
    }
}

void
Streamer::handleMemory(Cycle cycle)
{
    while (_mem.hasResponse()) {
        MemTransactionPtr txn = _mem.popResponse(cycle);
        if (txn->tag >= tagIndexBase) {
            const u32 chunk =
                static_cast<u32>(txn->tag - tagIndexBase);
            const RenderState& state = *_batch->state;
            const u32 indexBytes = state.indexStream.wide ? 4 : 2;
            const u32 perChunk = indexChunkBytes / indexBytes;
            const u32 count = _batch->params.count;
            u32 i = chunk * perChunk;
            for (u32 off = 0;
                 off + indexBytes <= txn->size && i < count;
                 off += indexBytes, ++i) {
                u32 idx = 0;
                std::memcpy(&idx, txn->data.data() + off, indexBytes);
                _indices[i] = idx;
            }
            _indexChunkArrived[chunk] = 1;
            // Extend the parsed prefix over contiguous chunks.
            while (_indicesReady < count &&
                   _indexChunkArrived[_indicesReady / perChunk]) {
                _indicesReady = std::min(
                    count, (_indicesReady / perChunk + 1) * perChunk);
            }
        } else {
            // Attribute response: tag = sequence * 16 + stream.
            const u32 seq = static_cast<u32>(txn->tag / 16);
            const u32 stream = static_cast<u32>(txn->tag % 16);
            Slot* slot = liveSlot(seq);
            if (!slot || slot->outstanding == 0)
                panic("Streamer: attribute response for unknown"
                      " vertex");
            const RenderState& state = *_batch->state;
            slot->in[stream] = convertAttribute(
                txn->data.data(), state.streams[stream].format,
                stream);
            if (--slot->outstanding == 0) {
                // Vertex ready for shading.
                auto v = std::make_shared<VertexObj>();
                v->batchId = _batch->batchId;
                v->state = _batch->state;
                v->index = slot->index;
                v->sequence = seq;
                v->in = slot->in;
                v->setParent(*_batch);
                _readyForShading.push_back(std::move(v));
                --_fetchesInFlight;
            }
        }
    }

    // Push ready vertices to the shading crossbar.
    while (shadingCanSend(cycle))
        _toShading.send(cycle, _readyForShading.pop_front());
}

bool
Streamer::shadingCanSend(Cycle cycle) const
{
    return !_readyForShading.empty() && _toShading.canSend(cycle);
}

bool
Streamer::canDispatch() const
{
    // One index per cycle (Table 1), once its index data is parsed.
    return _active && _dispatched < _batch->params.count &&
           _dispatched < _indicesReady &&
           _dispatched - _committed < _config.streamerQueue &&
           _fetchesInFlight < _config.vertexRequestQueue;
}

bool
Streamer::nextNeedsFetch() const
{
    return !_batch->state->indexStream.enabled ||
           !cacheLookup(_indices[_dispatched]);
}

void
Streamer::dispatchVertices(Cycle cycle)
{
    if (!canDispatch())
        return;

    const bool indexed = _batch->state->indexStream.enabled;
    const u32 seq = _dispatched;
    const u32 index =
        indexed ? _indices[seq] : _batch->params.first + seq;

    if (const OutputRegs* hit =
            indexed ? cacheLookup(index) : nullptr) {
        Slot& slot = _slots[seq % _config.streamerQueue];
        slot.index = index;
        slot.outstanding = 0;
        slot.ready = true;
        slot.cacheHit = true;
        slot.out = *hit;
        _statCacheHits.inc();
        ++_dispatched;
        return;
    }
    if (indexed)
        _statCacheMisses.inc();

    // All of the vertex's attribute transactions must fit in the
    // memory request queue this cycle; otherwise retry next cycle.
    // (startBatch() already rejected batches with more than 8
    // enabled streams, the request signal's bandwidth.)
    if (_mem.requestCredits() < _numStreams)
        return;

    Slot& slot = _slots[seq % _config.streamerQueue];
    slot.index = index;
    slot.outstanding = 0;
    slot.ready = false;
    slot.cacheHit = false;
    slot.in = {}; // Disabled streams read as zero.

    const RenderState& state = *_batch->state;
    for (u32 k = 0; k < _numStreams; ++k) {
        const u32 s = _streams[k];
        const VertexStream& vs = state.streams[s];
        auto txn = std::make_shared<MemTransaction>();
        txn->isRead = true;
        txn->address = vs.address + index * vs.stride;
        txn->size = streamFormatBytes(vs.format);
        txn->client = MemClient::Streamer;
        txn->tag = static_cast<u64>(seq) * 16 + s;
        if (!_mem.canRequest(cycle))
            panic("Streamer: memory request queue exhausted"
                  " mid-vertex");
        _mem.request(cycle, txn);
        ++slot.outstanding;
    }

    if (slot.outstanding == 0) {
        // No enabled streams: shade with default inputs.
        auto v = std::make_shared<VertexObj>();
        v->batchId = _batch->batchId;
        v->state = _batch->state;
        v->index = index;
        v->sequence = seq;
        v->setParent(*_batch);
        _readyForShading.push_back(std::move(v));
    } else {
        ++_fetchesInFlight;
    }
    ++_dispatched;
    _statVertices.inc();
}

void
Streamer::handleShaded(Cycle cycle)
{
    while (!_fromShading.empty()) {
        VertexObjPtr v = _fromShading.pop(cycle);
        Slot* slot = liveSlot(v->sequence);
        if (!slot)
            panic("Streamer: shaded vertex for unknown sequence ",
                  v->sequence);
        slot->ready = true;
        slot->out = v->out;
        if (_batch->state->indexStream.enabled)
            cacheInsert(slot->index, v->out);
    }
}

void
Streamer::commit(Cycle cycle)
{
    if (!_active)
        return;

    // Send the BatchStart marker before the first vertex.
    if (startDue()) {
        if (!_toAssembly.canSend(cycle))
            return;
        auto marker = std::make_shared<VertexObj>();
        marker->marker = MarkerKind::BatchStart;
        marker->batchId = _batch->batchId;
        marker->state = _batch->state;
        marker->primitive = _batch->params.primitive;
        _toAssembly.send(cycle, marker);
        _startSent = true;
    }

    // One vertex per cycle to Primitive Assembly.
    if (const Slot* slot = shadedHead();
        slot && _toAssembly.canSend(cycle)) {
        auto v = std::make_shared<VertexObj>();
        v->batchId = _batch->batchId;
        v->state = _batch->state;
        v->index = slot->index;
        v->sequence = _committed;
        v->out = slot->out;
        v->fromVertexCache = slot->cacheHit;
        _toAssembly.send(cycle, v);
        ++_committed;
        _statBusy.inc();
    }

    // Close the batch.
    if (endDue() && _toAssembly.canSend(cycle)) {
        auto marker = std::make_shared<VertexObj>();
        marker->marker = MarkerKind::BatchEnd;
        marker->batchId = _batch->batchId;
        marker->state = _batch->state;
        _toAssembly.send(cycle, marker);
        _endSent = true;
        _active = false;
        _startSent = false;
    }
}

sim::Next
Streamer::update(Cycle cycle)
{
    _statCacheMisses.tickFrom(cycle, 0);
    _drawIn.clock(cycle);
    _toShading.clock(cycle);
    _fromShading.clock(cycle);
    _toAssembly.clock(cycle);
    _mem.clock(cycle);

    startBatch(cycle);
    fetchIndices(cycle);
    handleMemory(cycle);
    dispatchVertices(cycle);
    handleShaded(cycle);
    commit(cycle);

    // A missing vertex waiting for request credits counts a miss
    // per cycle it retries.
    _statCacheMisses.tickFrom(
        cycle + 1, canDispatch() && _batch->state->indexStream.enabled &&
                       nextNeedsFetch() &&
                       _mem.requestCredits() < _numStreams);
    return progressPossible(cycle + 1) ? sim::Next::runs()
                                       : sim::Next::sleeps();
}

bool
Streamer::startDue() const
{
    return _committed == 0 && !_startSent;
}

const Streamer::Slot*
Streamer::shadedHead() const
{
    if (_committed >= _dispatched)
        return nullptr;
    const Slot& slot = _slots[_committed % _config.streamerQueue];
    return slot.ready ? &slot : nullptr;
}

bool
Streamer::endDue() const
{
    return _committed == _batch->params.count && !_endSent;
}

bool
Streamer::progressPossible(Cycle cycle) const
{
    if (shadingCanSend(cycle))
        return true;
    if (!_active)
        return !_drawIn.empty();
    if (indexFetchCanGo(cycle))
        return true;
    if (canDispatch() &&
        (!nextNeedsFetch() || _mem.requestCredits() >= _numStreams))
        return true;
    return _toAssembly.canSend(cycle) &&
           (startDue() || shadedHead() || endDue());
}

bool
Streamer::empty() const
{
    return !_active && _drawIn.empty() && _committed == _dispatched &&
           _fetchesInFlight == 0 && _readyForShading.empty();
}

} // namespace attila::gpu
