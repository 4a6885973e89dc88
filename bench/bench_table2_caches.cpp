/**
 * @file
 * Table 2 reproduction: the baseline cache configurations (texture,
 * Z, colour: 16 KB, 4-way, 64 lines of 256 bytes) plus measured hit
 * rates and the bandwidth the compression/fast-clear machinery
 * saves on a real workload.
 */

#include "bench_common.hh"

using namespace attila;
using namespace attila::bench;

int
main(int argc, char** argv)
{
    parseArgs(argc, argv);
    setBench("table2_caches");
    printHeader("Table 2: baseline ATTILA caches");

    const gpu::GpuConfig c = gpu::GpuConfig::baseline();
    std::cout << std::left << std::setw(10) << "Cache"
              << std::setw(11) << "Size(KB)" << std::setw(15)
              << "Associativity" << std::setw(8) << "Lines"
              << std::setw(18) << "Line size(bytes)" << "Ports\n";
    auto row = [](const char* name, u32 kb, u32 ways, u32 line,
                  u32 ports) {
        std::cout << std::left << std::setw(10) << name
                  << std::setw(11) << kb << std::setw(15) << ways
                  << std::setw(8) << kb * 1024 / line
                  << std::setw(18) << line << ports << "\n";
    };
    row("Texture", c.textureCacheKB, c.textureCacheWays,
        c.textureCacheLine, c.textureCachePorts);
    // A Z or colour line is one framebuffer tile.
    row("Z", c.zCacheKB, c.zCacheWays, gpu::fbTileBytes, 4);
    row("Color", c.colorCacheKB, c.colorCacheWays, gpu::fbTileBytes,
        4);

    // Measured behaviour on the shadows workload.
    auto params = benchParams(/*frames=*/1);
    workloads::ShadowsWorkload shadows(params);
    const gpu::CommandList commands = buildCommands(shadows);
    RunResult result =
        run(commands, gpu::GpuConfig::baseline(), params.frames);

    auto rate = [&](u64 hits, u64 misses) {
        return hits + misses ? static_cast<f64>(hits) * 100.0 /
                                   static_cast<f64>(hits + misses)
                             : 0.0;
    };
    std::cout << "\nMeasured on the shadows workload ("
              << result.cycles << " cycles):\n";
    const u64 texHits =
        result.statSum("TextureUnit", c.numTextureUnits,
                       "cacheHits");
    const u64 texMisses =
        result.statSum("TextureUnit", c.numTextureUnits,
                       "cacheMisses");
    const u64 zHits =
        result.statSum("ZStencilTest", c.numRops, "cacheHits");
    const u64 zMisses =
        result.statSum("ZStencilTest", c.numRops, "cacheMisses");
    const u64 cHits =
        result.statSum("ColorWrite", c.numRops, "cacheHits");
    const u64 cMisses =
        result.statSum("ColorWrite", c.numRops, "cacheMisses");
    std::cout << std::fixed << std::setprecision(2);
    std::cout << "  texture cache hit rate: "
              << rate(texHits, texMisses) << "%  (" << texHits
              << " / " << texHits + texMisses << ")\n";
    std::cout << "  z cache hit rate:       " << rate(zHits, zMisses)
              << "%  (" << zHits << " / " << zHits + zMisses
              << ")\n";
    std::cout << "  color cache hit rate:   " << rate(cHits, cMisses)
              << "%  (" << cHits << " / " << cHits + cMisses
              << ")\n";

    u64 zBytes = 0, colorBytes = 0, texBytes = 0;
    for (u32 i = 0; i < c.numRops; ++i) {
        zBytes += result.stat("MemoryController.mc.zcache" +
                              std::to_string(i) + ".bytes");
        colorBytes += result.stat("MemoryController.mc.colorcache" +
                                  std::to_string(i) + ".bytes");
    }
    for (u32 t = 0; t < c.numTextureUnits; ++t) {
        texBytes += result.stat("MemoryController.mc.texcache" +
                                std::to_string(t) + ".bytes");
    }
    emitCacheJson("texture", result, texHits, texMisses);
    emitCacheJson("z", result, zHits, zMisses);
    emitCacheJson("color", result, cHits, cMisses);
    std::cout << "  memory traffic: z " << zBytes << " B, color "
              << colorBytes << " B, texture " << texBytes << " B\n";
    std::cout << "  (z traffic benefits from 1:2 / 1:4 lossless"
                 " compression and fast clear)\n";
    return 0;
}
