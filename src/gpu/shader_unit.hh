/**
 * @file
 * ShaderUnit: the multithreaded programmable shader processor (paper
 * §2.3).
 *
 * The unit works on groups of four shader inputs as a single thread:
 * the same instructions are fetched, decoded and executed for the
 * four inputs in parallel (a 512-bit processor).  Instructions
 * execute in order; a per-thread register scoreboard stalls on data
 * dependencies (execution latencies range from 1 to 9 cycles by
 * opcode).  Texture accesses block the thread until the Texture Unit
 * responds; multithreading hides that latency by switching to
 * another ready thread every cycle — except in the in-order
 * (shader input queue) configuration, where only the oldest thread
 * may execute (the Fig 7 experiment).
 */

#ifndef ATTILA_GPU_SHADER_UNIT_HH
#define ATTILA_GPU_SHADER_UNIT_HH

#include <deque>

#include "emu/decoded_program.hh"
#include "emu/shader_emulator.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"
#include "sim/object_pool.hh"

namespace attila::gpu
{

/** One thread of work (4 inputs) sent to a shader unit. */
class ShaderWorkObj : public WorkObject
{
  public:
    u64 entryId = 0; ///< Fragment FIFO window entry.
    emu::ShaderTarget target = emu::ShaderTarget::Vertex;
    std::array<bool, 4> active{};
    std::array<std::array<emu::Vec4, emu::regix::numInputRegs>, 4>
        in{};
    std::array<std::array<emu::Vec4, emu::regix::numOutputRegs>, 4>
        out{};
    std::array<bool, 4> killed{};
};

using ShaderWorkObjPtr = std::shared_ptr<ShaderWorkObj>;

/** The shader processor box. */
class ShaderUnit : public sim::Box
{
  public:
    /**
     * @param unit global shader unit index (signal naming).
     * @param vertex_only dedicated vertex unit (non-unified model).
     */
    ShaderUnit(sim::SignalBinder& binder,
               sim::StatisticManager& stats, const GpuConfig& config,
               u32 unit, bool vertex_only);

    void update(Cycle cycle) override;
    bool empty() const override;
    /** Idle == drained: update() is a no-op whenever the unit holds
     * no threads and no queued inputs. */
    bool busy() const override { return !empty(); }

    /** Wire thread-slot lifecycle events (shader unit name = box
     * name, matching the .threads statistic). */
    void
    attachEventTrace(sim::EventTrace& trace) override
    {
        _evtTrace = &trace;
        _evtShaderId = trace.registerShader(name());
    }

  private:
    struct Thread
    {
        u64 order = 0; ///< Age (for in-order scheduling).
        ShaderWorkObjPtr work;
        /** Pre-decoded program.  Stable: the cache entry pins the
         * source program for its own lifetime. */
        const emu::DecodedProgram* decoded = nullptr;
        const emu::ConstantBank* constants = nullptr;
        std::array<emu::ShaderThreadState, 4> lanes;
        std::array<bool, 4> laneDone{};
        bool waitingTexture = false;
        bool finished = false;
        /** Scoreboard: cycle each temp register becomes readable. */
        std::array<Cycle, emu::regix::numTempRegs> tempReady{};

        /** Host-side change counter: bumped whenever the pc,
         * laneDone or scoreboard changes, so the dependency check
         * below can be memoized per epoch. */
        u64 epoch = 1;
        mutable u64 depsEpoch = 0;
        mutable Cycle depsReadyAt = 0;
    };

    void acceptWork(Cycle cycle);
    void handleTexResponses(Cycle cycle);
    Thread* selectThread(Cycle cycle);
    void execute(Cycle cycle, Thread& thread);
    bool sendResult(Cycle cycle, Thread& thread);
    bool dependenciesReady(const Thread& thread, Cycle cycle) const;
    Cycle computeReadyAt(const Thread& thread) const;

    const GpuConfig& _config;
    const u32 _unit;
    const bool _vertexOnly;

    LinkRx<ShaderWorkObj> _in;
    LinkTx _out;
    std::vector<std::unique_ptr<LinkTx>> _texReq;
    std::vector<std::unique_ptr<LinkRx<TexRequest>>> _texResp;

    emu::ShaderEmulator _emulator;
    emu::DecodedProgramCache _decodeCache;
    /** Thread storage: a never-shrinking deque of slots recycled
     * through a free list (a Thread is ~4.5 KB of register state —
     * per-thread heap churn and node hops are host-side waste).
     * `_activeSlots` lists the live slots in insertion order, which
     * is exactly the old std::list iteration order the round-robin
     * scheduling is defined over. */
    std::deque<Thread> _threadPool;
    std::vector<u32> _freeThreads;
    std::vector<u32> _activeSlots;
    sim::ObjectPool<TexRequest> _texPool;
    u64 _orderCounter = 0;
    u32 _rrNext = 0;
    u32 _tuNext = 0;

    sim::Statistic& _statInstructions;
    sim::Statistic& _statThreads;
    sim::Statistic& _statTexRequests;
    sim::Statistic& _statBusy;
    sim::Statistic& _statStallTex;

    sim::EventTrace* _evtTrace = nullptr;
    u16 _evtShaderId = 0;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_SHADER_UNIT_HH
