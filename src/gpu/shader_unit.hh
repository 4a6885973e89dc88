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

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

    /** Wire thread-slot lifecycle events (shader unit name = box
     * name, matching the .threads statistic). */
    void
    attachEventTrace(sim::EventTrace& trace) override
    {
        _evtTrace = &trace;
        _evtShaderId = trace.registerShader(name());
    }

  private:
    /** A thread's register state and program; ~4.5 KB, touched
     * only when the thread executes or a texture result lands. */
    struct Thread
    {
        ShaderWorkObjPtr work;
        /** Pre-decoded program.  Stable: the cache entry pins the
         * source program for its own lifetime. */
        const emu::DecodedProgram* decoded = nullptr;
        const emu::ConstantBank* constants = nullptr;
        std::array<emu::ShaderThreadState, 4> lanes;
        std::array<bool, 4> laneDone{};
        /** Scoreboard: cycle each temp register becomes readable. */
        std::array<Cycle, emu::regix::numTempRegs> tempReady{};
    };

    /** A thread's scheduling state, kept apart from its registers
     * so the per-cycle scans read a few bytes per thread. */
    struct ThreadSched
    {
        u64 entryId = 0; ///< The work's Fragment FIFO entry.
        /** Memo of refreshDeps(): the next instruction (null once
         * every lane is done) and the cycle its source temps are
         * readable.  Stale whenever the pc, laneDone or scoreboard
         * changed since. */
        const emu::DecodedIns* next = nullptr;
        Cycle depsReadyAt = 0;
        bool depsStale = true;
        bool waitingTexture = false;
        bool finished = false;
    };

    /** What a thread can do at a cycle: the one readiness test
     * behind selectThread(), execute() and update()'s next step. */
    enum class Readiness : u8
    {
        TexWait,  ///< Blocked on a texture response.
        Finished, ///< Every lane done; waits to send its result.
        NotReady, ///< A source temp is readable at depsReadyAt.
        Ready,    ///< Its next instruction can issue.
    };

    void acceptWork(Cycle cycle);
    void handleTexResponses(Cycle cycle);
    /** The slot of the thread to run this cycle, or -1. */
    s32 selectThread(Cycle cycle);
    void execute(Cycle cycle, u32 slot);
    bool sendResult(Cycle cycle, Thread& thread);
    Readiness readiness(u32 slot, Cycle cycle);
    void refreshDeps(const Thread& thread, ThreadSched& sched) const;

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
     * `_sched[slot]` is the slot's scheduling state.  `_activeSlots`
     * lists the live slots in insertion (age) order, the order the
     * round-robin scheduling is defined over. */
    std::deque<Thread> _threadPool;
    std::vector<ThreadSched> _sched;
    std::vector<u32> _freeThreads;
    std::vector<u32> _activeSlots;
    /** Thread-window round robin: advances once per cycle while the
     * unit holds threads, clocked or asleep. */
    u32 _rrNext = 0;
    u32 _tuNext = 0;
    /** The last cycle update() ran (to advance _rrNext over sleeping
     * cycles). */
    Cycle _lastUpdate = 0;

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
