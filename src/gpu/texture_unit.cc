#include "gpu/texture_unit.hh"

#include <algorithm>

namespace attila::gpu
{

using emu::TextureEmulator;

TextureUnit::TextureUnit(sim::SignalBinder& binder,
                         sim::StatisticManager& stats,
                         const GpuConfig& config, u32 unit,
                         emu::GpuMemory& memory)
    : Box(binder, stats, "TextureUnit" + std::to_string(unit)),
      _config(config),
      _unit(unit),
      _memory(memory),
      _cache("texcache" + std::to_string(unit),
             FbCache::Config{config.textureCacheKB,
                             config.textureCacheWays,
                             config.textureCacheLine,
                             config.textureCachePorts,
                             config.textureCacheMshr},
             stat("cacheHits"), stat("cacheMisses")),
      _statRequests(stat("requests")),
      _statBilinearOps(stat("bilinearOps")),
      _statBusy(stat("busyCycles"))
{
    const std::string id = std::to_string(unit);
    for (u32 s = 0; s < config.numShaders; ++s) {
        auto rx = std::make_unique<LinkRx<TexRequest>>();
        rx->init(*this, binder,
                 "shader" + std::to_string(s) + ".tu" + id + ".req",
                 1, 1, 2);
        _reqIn.push_back(std::move(rx));
        auto tx = std::make_unique<LinkTx>();
        tx->init(*this, binder,
                 "tu" + id + ".shader" + std::to_string(s) + ".resp",
                 1, 1, 2);
        _respOut.push_back(std::move(tx));
    }
    _mem.init(*this, binder, "mc.texcache" + id,
              config.memoryRequestQueue);
}

void
TextureUnit::acceptRequests(Cycle cycle)
{
    const u32 n = static_cast<u32>(_reqIn.size());
    for (u32 k = 0; k < n; ++k) {
        const u32 s = (_rrNext + k) % n;
        LinkRx<TexRequest>& rx = *_reqIn[s];
        if (rx.empty())
            continue;
        if (_queue.size() >= _config.textureRequestQueue)
            break;
        _queue.push_back(rx.pop(cycle));
        _rrNext = (s + 1) % n;
    }
}

void
TextureUnit::planRequest(Active& active)
{
    const TexRequest& req = *active.req;
    const RenderState& state = *req.state;
    const emu::TextureDescriptor& desc =
        state.textures[req.textureUnit];

    // Project coordinates (TXP) before planning.
    std::array<emu::Vec4, 4> coords = req.coords;
    if (req.projected) {
        for (u32 l = 0; l < 4; ++l) {
            const f32 q = coords[l].w != 0.0f ? coords[l].w : 1.0f;
            coords[l] = {coords[l].x / q, coords[l].y / q,
                         coords[l].z / q, 1.0f};
        }
    }

    u32 aniso;
    f32 lod;
    emu::Vec4 majorAxis;
    TextureEmulator::quadFootprint(desc, coords, req.lodBias, aniso,
                                   lod, majorAxis);

    // Collect every touched line, then sort + deduplicate into
    // ascending unique order (the vector keeps its capacity across
    // requests).
    active.bilinearOps = 0;
    std::vector<u32>& lines = active.lineAddrs;
    lines.clear();
    for (u32 l = 0; l < 4; ++l) {
        active.plans[l] = TextureEmulator::planSample(
            desc, coords[l], lod, aniso, majorAxis);
        active.bilinearOps += active.plans[l].bilinearOps;
        for (const emu::TexelRef& ref : active.plans[l].texels) {
            lines.push_back(ref.address -
                            ref.address % _config.textureCacheLine);
            // Texels may straddle a line boundary (DXT blocks).
            const u32 end = ref.address + ref.bytes - 1;
            lines.push_back(end - end % _config.textureCacheLine);
        }
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

void
TextureUnit::process(Cycle cycle)
{
    if (!_activeLive) {
        if (_queue.empty())
            return;
        _active.req = _queue.pop_front();
        _active.nextLine = 0;
        _active.filtering = false;
        _active.filterDoneAt = 0;
        _activeLive = true;
        planRequest(_active);
        _statRequests.inc();
    }

    Active& active = _active;
    _statBusy.inc();

    if (!active.filtering) {
        // Touch every needed line; stall on misses.
        while (active.nextLine < active.lineAddrs.size()) {
            const CacheAccess access = _cache.access(
                cycle, active.lineAddrs[active.nextLine], false);
            if (access == CacheAccess::Hit) {
                ++active.nextLine;
                continue;
            }
            return; // Miss or ports exhausted: retry next cycle.
        }
        // All lines resident: sample functionally from GPU memory
        // (the cache holds the same bytes — textures are
        // read-only) and charge the filter throughput.
        const RenderState& state = *active.req->state;
        const emu::TextureDescriptor& desc =
            state.textures[active.req->textureUnit];
        // One decoded-block cache shared across the quad's four
        // plans (pure memoization — identical texels).
        emu::TexBlockCache blockCache;
        for (u32 l = 0; l < 4; ++l) {
            active.req->texels[l] = TextureEmulator::executePlan(
                desc, active.plans[l], _memory, &blockCache);
        }
        _statBilinearOps.inc(active.bilinearOps);
        active.filtering = true;
        active.filterDoneAt = cycle + std::max(1u,
                                               active.bilinearOps);
        return;
    }

    if (cycle >= active.filterDoneAt) {
        _done.push_back(std::move(active.req));
        active.req.reset();
        _activeLive = false;
    }
}

void
TextureUnit::finish(Cycle cycle)
{
    while (!_done.empty()) {
        LinkTx& out = *_respOut[_done.front()->shaderId];
        if (!out.canSend(cycle))
            return;
        out.send(cycle, _done.pop_front());
    }
}

void
TextureUnit::update(Cycle cycle)
{
    for (auto& rx : _reqIn)
        rx->clock(cycle);
    for (auto& tx : _respOut)
        tx->clock(cycle);
    _mem.clock(cycle);

    finish(cycle);
    process(cycle);
    acceptRequests(cycle);
    _cache.clock(cycle, _mem, MemClient::TextureCache);
    _statRequests.commit();
    _statBilinearOps.commit();
    _statBusy.commit();
}

bool
TextureUnit::empty() const
{
    if (_activeLive || !_queue.empty() || !_done.empty())
        return false;
    for (const auto& rx : _reqIn) {
        if (!rx->empty())
            return false;
    }
    return _cache.idle();
}

} // namespace attila::gpu
