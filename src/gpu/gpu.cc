#include "gpu/gpu.hh"

#include <algorithm>
#include <cstdlib>

namespace attila::gpu
{

namespace
{

/**
 * Environment layering for direct Gpu construction (tests, examples,
 * embedded hosts): ATTILA_CONFIG / ATTILA_CONFIG_SET, parsed by
 * GpuConfig::applyEnvOverrides().  A config that already
 * went through a harness's explicit layering (envApplied) passes
 * through untouched, so `--set` overrides stay on top of the
 * environment.
 */
GpuConfig
applyEnvOverrides(GpuConfig config)
{
    if (!config.envApplied)
        config.applyEnvOverrides();
    return config;
}

} // anonymous namespace

Gpu::Gpu(const GpuConfig& config)
    : _config(applyEnvOverrides(config)),
      _memory(std::make_unique<emu::GpuMemory>(_config.memorySize))
{
    _sim.stats().setWindow(config.statsWindow);

    sim::SignalBinder& binder = _sim.binder();
    sim::StatisticManager& stats = _sim.stats();
    binder.attachStatistics(stats);

    _commandProcessor =
        std::make_unique<CommandProcessor>(binder, stats, _config);
    _streamer = std::make_unique<Streamer>(binder, stats, _config);
    _assembly =
        std::make_unique<PrimitiveAssembly>(binder, stats, _config);
    _clipper = std::make_unique<Clipper>(binder, stats, _config);
    _setup = std::make_unique<TriangleSetup>(binder, stats, _config);
    _fragmentGenerator =
        std::make_unique<FragmentGenerator>(binder, stats, _config);
    _hz = std::make_unique<HierarchicalZ>(binder, stats, _config);
    for (u32 i = 0; i < _config.numRops; ++i) {
        _ropz.push_back(std::make_unique<ZStencilTest>(
            binder, stats, _config, i, *_memory));
    }
    _interpolator =
        std::make_unique<Interpolator>(binder, stats, _config);
    _ffifo = std::make_unique<FragmentFifo>(binder, stats, _config);

    const u32 totalShaders =
        _config.numShaders +
        (_config.unifiedShaders ? 0 : _config.numVertexShaders);
    for (u32 s = 0; s < totalShaders; ++s) {
        const bool vertexOnly = s >= _config.numShaders;
        _shaders.push_back(std::make_unique<ShaderUnit>(
            binder, stats, _config, s, vertexOnly));
    }
    for (u32 t = 0; t < _config.numTextureUnits; ++t) {
        _textureUnits.push_back(std::make_unique<TextureUnit>(
            binder, stats, _config, t, *_memory));
    }
    for (u32 i = 0; i < _config.numRops; ++i) {
        _ropc.push_back(std::make_unique<ColorWrite>(
            binder, stats, _config, i, *_memory));
    }
    _dac = std::make_unique<Dac>(binder, stats, _config);
    _dac->setMemory(_memory.get());
    {
        std::vector<std::shared_ptr<const ColorClearInfo>> infos;
        for (const auto& rop : _ropc)
            infos.push_back(rop->clearInfo());
        _dac->setClearInfo(std::move(infos));
    }

    std::vector<std::string> clients;
    clients.push_back("mc.cp");
    clients.push_back("mc.streamer");
    for (u32 i = 0; i < _config.numRops; ++i)
        clients.push_back("mc.zcache" + std::to_string(i));
    for (u32 i = 0; i < _config.numRops; ++i)
        clients.push_back("mc.colorcache" + std::to_string(i));
    for (u32 t = 0; t < _config.numTextureUnits; ++t)
        clients.push_back("mc.texcache" + std::to_string(t));
    clients.push_back("mc.dac");
    _memoryController = std::make_unique<MemoryController>(
        binder, stats, _config, *_memory, clients);

    binder.checkConnectivity();

    // One clock drives the whole pipeline; clock.gpuMHz only turns
    // cycles into reported frames per second.
    if (_config.clockMHz == 0)
        fatal("config: clock.gpuMHz must be >= 1");
    _sim.addBox(_commandProcessor.get());
    _sim.addBox(_streamer.get());
    _sim.addBox(_assembly.get());
    _sim.addBox(_clipper.get());
    _sim.addBox(_setup.get());
    _sim.addBox(_fragmentGenerator.get());
    _sim.addBox(_hz.get());
    for (auto& rop : _ropz)
        _sim.addBox(rop.get());
    _sim.addBox(_interpolator.get());
    _sim.addBox(_ffifo.get());
    for (auto& shader : _shaders)
        _sim.addBox(shader.get());
    for (auto& tu : _textureUnits)
        _sim.addBox(tu.get());
    for (auto& rop : _ropc)
        _sim.addBox(rop.get());
    _sim.addBox(_dac.get());
    _sim.addBox(_memoryController.get());

    if (_config.scheduler == SchedulerKind::Parallel) {
        sim::ParallelScheduler::Options options;
        options.workSteal = _config.schedWorkSteal;
        options.slackPercent = _config.schedPartitionSlack;
        _sim.setScheduler(std::make_unique<sim::ParallelScheduler>(
            _config.schedulerThreads, options));
    }
    _sim.setIdleSkip(_config.idleSkip);

    // Structured event tracing records into per-thread chunks, so it
    // runs under any scheduler.  Enabled last: every box and every
    // signal is registered, so unit ids come out
    // deterministic.
    if (_config.eventTrace) {
        if constexpr (!sim::kEventTraceCompiled) {
            warn("event tracing requested but compiled out "
                 "(ATTILA_TRACE_EVENTS=0); no events will be "
                 "recorded");
        } else {
            _sim.enableEventTrace();
        }
    }
}

bool
Gpu::runUntilIdle(u64 max_cycles)
{
    // The full quiescence check walks every box and every signal
    // (including objects still inside the wires), so it only runs
    // every drainPollInterval cycles once the command stream is
    // exhausted; the per-cycle cost is a single empty() call on the
    // command processor.
    const u64 poll = std::max(1u, _config.drainPollInterval);
    for (u64 i = 0; i < max_cycles; ++i) {
        _sim.step();
        if (!_commandProcessor->empty())
            continue;
        if (_sim.cycle() % poll == 0 && _sim.quiescent())
            return true;
        // Fully idle stretches between polls fast-forward in bulk
        // (bit-identical: the skipped steps clock nothing).  Cap at
        // the next poll boundary so the quiescence check still runs
        // at exactly the cycles the always-clock path checks.
        if (_config.idleSkip && i + 1 < max_cycles) {
            const u64 untilPoll = poll - _sim.cycle() % poll;
            if (untilPoll > 1) {
                i += _sim.fastForward(
                    std::min(untilPoll - 1, max_cycles - i - 1));
            }
        }
    }
    return false;
}

} // namespace attila::gpu
