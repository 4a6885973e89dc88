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

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

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

    /** What admitting an entry would do: nothing to admit, admit it,
     * or turn it down for a full window or register pool. */
    enum class Admission : u8 { Nothing, Admits, WindowFull, RegistersFull };

    /** One accept step: what it asks of the pools (a thread of class
     * @c cls holding @c inputs shader inputs and @c registers temps;
     * none for a marker or a vertex that completes no group) and
     * whether the pools have room. */
    struct Step
    {
        Admission admission = Admission::Nothing;
        IssueClass cls = SharedClass;
        u32 inputs = 0;
        u32 registers = 0;
    };

    Entry* findEntry(u64 id);
    const Entry* findEntry(u64 id) const;
    IssueClass issueClass(const Entry& entry) const;
    /** The class of a vertex group's thread. */
    IssueClass vertexGroupClass() const;
    /** Threads a unit of class @p cls runs at once. */
    u32 maxThreads(IssueClass cls) const;
    Step step(IssueClass cls, u32 inputs, u32 registers) const;
    /** Reserve the pools for an admitted step and return true, or
     * count the cycle a full pool turns it down. */
    bool take(const Step& st, const char* what);
    /** Append an admitted entry to its chain and the issue order. */
    void insert(Entry&& entry);
    /** The next step of acceptVertices() / acceptFragments(); both
     * the update and the busy test ask it. */
    Step vertexStep() const;
    Step fragmentStep() const;
    /** Admit the pending vertex group with the pool space @p st. */
    void pushVertexGroup(const Step& st);
    void acceptVertices(Cycle cycle);
    void acceptFragments(Cycle cycle);
    /** Commit steps that can go at @p cycle. */
    bool vertexCanSend(Cycle cycle) const;
    bool vertexHeadCommits() const;
    bool fragmentHeadCommits(Cycle cycle) const;
    /** The ROP input a shaded quad commits to. */
    LinkTx& quadTarget(const QuadObj& quad) const;
    void commitVertices(Cycle cycle);
    void commitFragments(Cycle cycle);
    /** Unit @p unit of class @p cls has a free thread and can take
     * one at @p cycle. */
    bool unitCanTake(u32 unit, IssueClass cls, Cycle cycle) const;
    bool canIssue(IssueClass cls, Cycle cycle) const;
    /** issue() would issue a thread at @p cycle. */
    bool issuePossible(Cycle cycle) const;
    void issue(Cycle cycle);
    void popChain(ChainQueue& chain);
    void collectResults(Cycle cycle);
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
