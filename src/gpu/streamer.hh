/**
 * @file
 * Streamer: requests vertex input data from the Memory Controller,
 * converts it to the internal format (4-component 32-bit float
 * vectors), issues vertices for shading and commits shaded vertices
 * in order to Primitive Assembly (paper §2.2).
 *
 * A post-shading vertex cache keyed by vertex index lets indexed
 * batches reuse shading results for vertices shared by adjacent
 * triangles.
 *
 * All in-flight state is flat: the live sequences of a batch are
 * always [committed, dispatched), so the reorder buffer and the
 * attribute fetches share one ring of streamerQueue slots indexed by
 * sequence % streamerQueue, and the vertex cache is a fixed ring of
 * vertexCacheEntries (index, outputs) pairs.
 */

#ifndef ATTILA_GPU_STREAMER_HH
#define ATTILA_GPU_STREAMER_HH

#include <vector>

#include "gpu/command_processor.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "gpu/memory_controller.hh"
#include "sim/box.hh"
#include "sim/ring_queue.hh"

namespace attila::gpu
{

/** The Streamer box (loader + commit halves). */
class Streamer : public sim::Box
{
  public:
    Streamer(sim::SignalBinder& binder, sim::StatisticManager& stats,
             const GpuConfig& config);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

  private:
    using OutputRegs =
        std::array<emu::Vec4, emu::regix::numOutputRegs>;

    /** One vertex between dispatch and commit: its reorder buffer
     * state and, while its attributes load, the fetch state. */
    struct Slot
    {
        u32 index = 0;
        u32 outstanding = 0; ///< Attribute transactions in flight.
        bool ready = false;
        bool cacheHit = false;
        OutputRegs out{};
        std::array<emu::Vec4, emu::regix::numInputRegs> in{};
    };

    void startBatch(Cycle cycle);
    /** Index chunks left to request, and a request slot at
     * @p cycle. */
    bool indexFetchCanGo(Cycle cycle) const;
    void fetchIndices(Cycle cycle);
    void dispatchVertices(Cycle cycle);
    /** The batch, the index data, the reorder buffer and the fetch
     * queue allow the next vertex to dispatch. */
    bool canDispatch() const;
    /** The next vertex needs its attributes fetched (not indexed,
     * or a post-shading cache miss): dispatch needs a request credit
     * per enabled stream. */
    bool nextNeedsFetch() const;
    /** Whether an update at @p cycle can make progress without a
     * new input; each step's own predicate answers for it. */
    bool progressPossible(Cycle cycle) const;
    void handleMemory(Cycle cycle);
    /** Ready vertices, and room on the shading link at @p cycle. */
    bool shadingCanSend(Cycle cycle) const;
    void handleShaded(Cycle cycle);
    /** What commit() sends next once the assembly link has room:
     * the BatchStart marker, the oldest vertex once it is shaded, or
     * the BatchEnd marker. */
    bool startDue() const;
    const Slot* shadedHead() const;
    bool endDue() const;
    void commit(Cycle cycle);
    emu::Vec4 convertAttribute(const u8* bytes, StreamFormat fmt,
                               u32 stream) const;
    /** The live slot of @p seq, or nullptr outside
     * [committed, dispatched). */
    Slot* liveSlot(u32 seq);
    const OutputRegs* cacheLookup(u32 index) const;
    void cacheInsert(u32 index, const OutputRegs& out);

    const GpuConfig& _config;

    LinkRx<DrawCmdObj> _drawIn;
    LinkTx _toShading;   ///< Vertex inputs to the Fragment FIFO.
    LinkRx<VertexObj> _fromShading;
    LinkTx _toAssembly;
    MemPort _mem;

    // Current batch.
    bool _active = false;
    std::shared_ptr<DrawCmdObj> _batch;
    u32 _dispatched = 0; ///< Vertices dispatched so far.
    u32 _committed = 0;
    bool _endSent = false;

    /** Enabled vertex streams of the current batch. */
    std::array<u8, maxVertexStreams> _streams{};
    u32 _numStreams = 0;

    // Index data.
    std::vector<u32> _indices; ///< The batch's indices, by sequence.
    u32 _indicesReady = 0;     ///< Contiguous prefix already parsed.
    u32 _indexChunksRequested = 0;
    u32 _indexChunksNeeded = 0;
    std::vector<u8> _indexChunkArrived;

    /** Reorder buffer and fetch state: slot of sequence s is
     * _slots[s % streamerQueue]. */
    std::vector<Slot> _slots;
    u32 _fetchesInFlight = 0;

    // Vertices with all attributes loaded, awaiting a shading slot.
    sim::RingQueue<VertexObjPtr> _readyForShading;
    bool _startSent = false;

    /** Post-shading vertex cache (FIFO replacement).  Entries
     * [0, _cacheCount) are valid; once full, _cacheHead is the
     * oldest entry and the next to be replaced. */
    std::vector<u32> _cacheIndex;
    std::vector<OutputRegs> _cacheOut;
    u32 _cacheCount = 0;
    u32 _cacheHead = 0;

    sim::Statistic& _statVertices;
    sim::Statistic& _statCacheHits;
    sim::Statistic& _statCacheMisses;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_STREAMER_HH
