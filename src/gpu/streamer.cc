#include "gpu/streamer.hh"

#include <algorithm>
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
}

const Streamer::CacheEntry*
Streamer::cacheLookup(u32 index) const
{
    for (const CacheEntry& e : _cache) {
        if (e.index == index)
            return &e;
    }
    return nullptr;
}

void
Streamer::cacheInsert(
    u32 index,
    const std::array<emu::Vec4, emu::regix::numOutputRegs>& out)
{
    if (_config.vertexCacheEntries == 0)
        return; // Cache disabled (ablation).
    for (CacheEntry& e : _cache) {
        if (e.index == index) {
            e.out = out;
            return;
        }
    }
    if (_cache.size() >= _config.vertexCacheEntries)
        _cache.pop_front();
    _cache.push_back({index, out});
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
    _indices.clear();
    _indexChunks.clear();
    _indexChunksRequested = 0;
    // The post-shading cache is only valid within one batch: the
    // next batch may bind a different vertex program or streams.
    _cache.clear();

    const RenderState& state = *_batch->state;
    u32 enabledStreams = 0;
    for (const VertexStream& vs : state.streams)
        enabledStreams += vs.enabled ? 1 : 0;
    if (enabledStreams > 8)
        fatal("Streamer: at most 8 enabled vertex streams are"
              " supported (got ", enabledStreams, ")");
    if (state.indexStream.enabled) {
        const u32 indexBytes = state.indexStream.wide ? 4 : 2;
        const u32 total = _batch->params.count * indexBytes;
        _indexChunksNeeded =
            (total + indexChunkBytes - 1) / indexChunkBytes;
    } else {
        _indexChunksNeeded = 0;
        _indices.reserve(_batch->params.count);
        for (u32 i = 0; i < _batch->params.count; ++i)
            _indices.push_back(_batch->params.first + i);
    }

    // The BatchStart marker leads the vertex stream so every
    // downstream box snapshots the state in order.
    // (Sent through the assembly link during commit().)
}

void
Streamer::fetchIndices(Cycle cycle)
{
    if (!_active || !_batch->state->indexStream.enabled)
        return;
    while (_indexChunksRequested < _indexChunksNeeded &&
           _mem.canRequest(cycle)) {
        const RenderState& state = *_batch->state;
        const u32 indexBytes = state.indexStream.wide ? 4 : 2;
        const u32 total = _batch->params.count * indexBytes;
        const u32 offset = _indexChunksRequested * indexChunkBytes;
        auto txn = _txns.acquire();
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
            _indexChunks[static_cast<u32>(txn->tag - tagIndexBase)] =
                txn->data;
            // Parse any newly contiguous chunks.
            const RenderState& state = *_batch->state;
            const u32 indexBytes = state.indexStream.wide ? 4 : 2;
            const u32 perChunk = indexChunkBytes / indexBytes;
            while (true) {
                const u32 chunk =
                    static_cast<u32>(_indices.size()) / perChunk;
                auto it = _indexChunks.find(chunk);
                if (it == _indexChunks.end())
                    break;
                const std::vector<u8>& bytes = it->second;
                for (u32 off = 0; off + indexBytes <= bytes.size();
                     off += indexBytes) {
                    if (_indices.size() >= _batch->params.count)
                        break;
                    u32 idx = 0;
                    std::memcpy(&idx, bytes.data() + off,
                                indexBytes);
                    _indices.push_back(idx);
                }
                _indexChunks.erase(it);
            }
        } else {
            // Attribute response: tag = sequence * 16 + stream.
            const u32 seq = static_cast<u32>(txn->tag / 16);
            const u32 stream = static_cast<u32>(txn->tag % 16);
            auto it = _fetches.find(seq);
            if (it == _fetches.end())
                panic("Streamer: attribute response for unknown"
                      " vertex");
            PendingFetch& fetch = it->second;
            const RenderState& state = *_batch->state;
            fetch.in[stream] = convertAttribute(
                txn->data.data(), state.streams[stream].format,
                stream);
            if (--fetch.outstanding == 0) {
                // Vertex ready for shading.
                auto v = std::make_shared<VertexObj>();
                v->batchId = _batch->batchId;
                v->state = _batch->state;
                v->index = fetch.index;
                v->sequence = fetch.sequence;
                v->in = fetch.in;
                v->setInfo("vtx");
                v->copyTrailFrom(*_batch);
                _readyForShading.push_back(std::move(v));
                _fetches.erase(it);
            }
        }
    }

    // Push ready vertices to the shading crossbar.
    while (!_readyForShading.empty() && _toShading.canSend(cycle)) {
        _toShading.send(cycle, _readyForShading.front());
        _readyForShading.pop_front();
    }
}

void
Streamer::dispatchVertices(Cycle cycle)
{
    if (!_active)
        return;
    // One index per cycle (Table 1).
    if (_dispatched >= _batch->params.count)
        return;
    if (_dispatched >= _indices.size())
        return; // Index data not fetched yet.
    if (_rob.size() >= _config.streamerQueue)
        return;
    if (_fetches.size() >= _config.vertexRequestQueue)
        return;

    const RenderState& state = *_batch->state;
    const u32 index = _indices[_dispatched];
    const u32 seq = _dispatched;

    RobEntry rob;
    rob.sequence = seq;
    rob.index = index;

    const bool indexed = state.indexStream.enabled;
    const CacheEntry* hit =
        indexed ? cacheLookup(index) : nullptr;
    if (hit) {
        rob.ready = true;
        rob.cacheHit = true;
        rob.out = hit->out;
        _statCacheHits.inc();
        _rob.emplace(seq, rob);
        ++_dispatched;
        return;
    }
    if (indexed)
        _statCacheMisses.inc();

    // All of the vertex's attribute transactions must fit in the
    // memory request queue this cycle; otherwise retry next cycle.
    // (startBatch() already rejected batches with more than 8
    // enabled streams, the request signal's bandwidth.)
    std::vector<u32> active;
    for (u32 s = 0; s < maxVertexStreams; ++s) {
        if (state.streams[s].enabled)
            active.push_back(s);
    }
    if (_mem.requestCredits() < active.size())
        return;

    PendingFetch fetch;
    fetch.sequence = seq;
    fetch.index = index;

    for (u32 s : active) {
        const VertexStream& vs = state.streams[s];
        auto txn = _txns.acquire();
        txn->isRead = true;
        txn->address = vs.address + index * vs.stride;
        txn->size = streamFormatBytes(vs.format);
        txn->client = MemClient::Streamer;
        txn->tag = static_cast<u64>(seq) * 16 + s;
        if (!_mem.canRequest(cycle))
            panic("Streamer: memory request queue exhausted"
                  " mid-vertex");
        _mem.request(cycle, txn);
        ++fetch.outstanding;
    }

    if (fetch.outstanding == 0) {
        // No enabled streams: shade with default inputs.
        auto v = std::make_shared<VertexObj>();
        v->batchId = _batch->batchId;
        v->state = _batch->state;
        v->index = index;
        v->sequence = seq;
        v->setInfo("vtx");
        v->copyTrailFrom(*_batch);
        _readyForShading.push_back(std::move(v));
    } else {
        _fetches.emplace(seq, fetch);
    }
    _rob.emplace(seq, rob);
    ++_dispatched;
    _statVertices.inc();
}

void
Streamer::handleShaded(Cycle cycle)
{
    while (!_fromShading.empty()) {
        VertexObjPtr v = _fromShading.pop(cycle);
        auto it = _rob.find(v->sequence);
        if (it == _rob.end())
            panic("Streamer: shaded vertex for unknown sequence ",
                  v->sequence);
        it->second.ready = true;
        it->second.out = v->out;
        if (_batch->state->indexStream.enabled)
            cacheInsert(it->second.index, v->out);
    }
}

void
Streamer::commit(Cycle cycle)
{
    if (!_active)
        return;

    // Send the BatchStart marker before the first vertex.
    if (_committed == 0 && !_startSent) {
        if (!_toAssembly.canSend(cycle))
            return;
        auto marker = std::make_shared<VertexObj>();
        marker->marker = MarkerKind::BatchStart;
        marker->batchId = _batch->batchId;
        marker->state = _batch->state;
        marker->primitive = _batch->params.primitive;
        marker->setInfo("batch.start");
        _toAssembly.send(cycle, marker);
        _startSent = true;
    }

    // One vertex per cycle to Primitive Assembly.
    auto it = _rob.find(_committed);
    if (it != _rob.end() && it->second.ready &&
        _toAssembly.canSend(cycle)) {
        auto v = std::make_shared<VertexObj>();
        v->batchId = _batch->batchId;
        v->state = _batch->state;
        v->index = it->second.index;
        v->sequence = it->second.sequence;
        v->out = it->second.out;
        v->fromVertexCache = it->second.cacheHit;
        v->setInfo("vtx.shaded");
        _toAssembly.send(cycle, v);
        _rob.erase(it);
        ++_committed;
        _statBusy.inc();
    }

    // Close the batch.
    if (_committed == _batch->params.count && !_endSent &&
        _toAssembly.canSend(cycle)) {
        auto marker = std::make_shared<VertexObj>();
        marker->marker = MarkerKind::BatchEnd;
        marker->batchId = _batch->batchId;
        marker->state = _batch->state;
        marker->setInfo("batch.end");
        _toAssembly.send(cycle, marker);
        _endSent = true;
        _active = false;
        _startSent = false;
    }
}

void
Streamer::update(Cycle cycle)
{
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
}

bool
Streamer::empty() const
{
    return !_active && _drawIn.empty() && _rob.empty() &&
           _fetches.empty() && _readyForShading.empty();
}

} // namespace attila::gpu
