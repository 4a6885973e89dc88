/**
 * @file
 * FragmentFIFO: the crossbar and scheduler between the shader
 * producers/consumers and the unified shader pool (paper §3).
 *
 * The box receives shader inputs — vertices from the Streamer loader
 * and interpolated fragment quads — packs them into threads (one
 * thread = one fragment quad or four vertices), admits them into the
 * global window subject to the window size (in shader inputs) and
 * the temporary register pool, distributes them over the shader
 * units, collects the shaded results and commits them **in order**
 * (separately for vertices and fragments) to the consuming boxes:
 * Streamer commit for vertices, Color Write (early Z) or Z Stencil
 * Test (late Z) for fragment quads.
 *
 * The window admits out-of-order *execution* (the shader units pick
 * any ready thread) with in-order *commit*; the alternative
 * "shader input queue" mode of the Fig 7 experiment keeps the same
 * structure but restricts the shader units to their oldest thread.
 *
 * Entries only leave the window from the head of their commit
 * chain, so each chain stores its entries in order in a ring, and an
 * entry's id encodes its chain and its sequence within the chain:
 * finding the entry a shader result belongs to is index arithmetic.
 */

#ifndef ATTILA_GPU_FRAGMENT_FIFO_HH
#define ATTILA_GPU_FRAGMENT_FIFO_HH

#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "gpu/shader_unit.hh"
#include "sim/box.hh"
#include "sim/ring_queue.hh"

namespace attila::gpu
{

/** The Fragment FIFO box. */
class FragmentFifo : public sim::Box
{
  public:
    FragmentFifo(sim::SignalBinder& binder,
                 sim::StatisticManager& stats,
                 const GpuConfig& config);

    void update(Cycle cycle) override;
    bool empty() const override;
    /** Idle == drained: update() is a no-op whenever the unit holds
     * no work and its inputs are quiet. */
    bool busy() const override { return !empty(); }

  private:
    enum class EntryKind : u8 { VertexGroup, Quad, Marker };
    enum class EntryStatus : u8 { Waiting, Running, Completed };

    struct Entry
    {
        u64 id = 0;
        EntryKind kind = EntryKind::Quad;
        EntryStatus status = EntryStatus::Waiting;
        u32 inputs = 0;    ///< Window cost in shader inputs.
        u32 registers = 0; ///< Temp registers reserved.
        u32 shaderUnit = 0;
        u32 numVertices = 0;
        std::array<VertexObjPtr, 4> vertices; ///< A vertex group.
        QuadObjPtr quad;
        ShaderWorkObjPtr work;
    };

    /** Commit chains: vertex groups, and fragment quads + markers. */
    enum Chain : u32 { VertexChain = 0, FragmentChain = 1, NumChains };

    /**
     * One commit chain's entries in admission order.  The entry with
     * chain sequence s sits at entries.at(s - base); its id is
     * s * NumChains + chain.
     */
    struct ChainQueue
    {
        sim::RingQueue<Entry> entries;
        u64 base = 0; ///< Chain sequence of entries.front().
    };

    /** Issue classes: threads for the dedicated vertex units of the
     * non-unified model, and threads for the (unified) shaders. */
    enum IssueClass : u32 { SharedClass = 0, VertexClass = 1 };

    Entry* findEntry(u64 id);
    IssueClass issueClass(const Entry& entry) const;
    void popChain(ChainQueue& chain);
    void acceptVertices(Cycle cycle);
    void acceptFragments(Cycle cycle);
    bool admit(Entry&& entry);
    void issue(Cycle cycle);
    void collectResults(Cycle cycle);
    void commitVertices(Cycle cycle);
    void commitFragments(Cycle cycle);
    u32 ropOf(const QuadObj& quad) const;
    u32 groupLanes() const;

    const GpuConfig& _config;
    const u32 _numUnits;     ///< Fragment/unified units.
    const u32 _numVertexUnits; ///< Extra dedicated vertex units.

    LinkRx<VertexObj> _vertexIn;
    LinkRx<QuadObj> _fragmentIn;
    LinkTx _vertexOut;
    std::vector<std::unique_ptr<LinkTx>> _toShader;
    std::vector<std::unique_ptr<LinkRx<ShaderWorkObj>>> _fromShader;
    std::vector<std::unique_ptr<LinkTx>> _toRopc;
    std::vector<std::unique_ptr<LinkTx>> _toRopzLate;

    ChainQueue _chains[NumChains];
    /** Ids of the Waiting entries, in admission order. */
    sim::RingQueue<u64> _issueOrder;
    /** Waiting entries per issue class. */
    u32 _waiting[2] = {0, 0};

    u32 _usedInputs = 0;
    u32 _usedRegisters = 0;
    u32 _usedVertexRegisters = 0;
    std::vector<u32> _unitLoad; ///< Threads assigned per unit.
    u32 _issueRr = 0;

    /** Vertex group being filled. */
    std::vector<VertexObjPtr> _pendingGroup;
    bool _vertexArrivedThisCycle = false;

    /** Committed vertices waiting for the (narrower) output link. */
    sim::RingQueue<VertexObjPtr> _vertexSendQueue;

    sim::Statistic& _statThreadsIssued;
    sim::Statistic& _statQuadsCommitted;
    sim::Statistic& _statVerticesCommitted;
    sim::Statistic& _statWindowFullCycles;
    sim::Statistic& _statRegistersFullCycles;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_FRAGMENT_FIFO_HH
