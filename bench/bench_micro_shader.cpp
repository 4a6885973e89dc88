/**
 * @file
 * Micro benchmark for the shader-emulator hot path: the per-lane
 * reference interpreter (ShaderEmulator::run) against the
 * pre-decoded quad kernel, over ALU-, texture- and KIL-heavy
 * fragment programs.  The quad column runs the kernel through
 * runQuad, a loop over the same step core the ShaderUnit executes
 * through stepQuad, so it times the timing model's kernel.
 *
 * Both modes must produce bit-identical output registers and kill
 * masks — the bench exits non-zero on any mismatch, so it doubles as
 * an identity check.  The BENCH_JSON lines include a
 * `fastpath_speedup` figure (scalar wall / quad wall) that CI
 * asserts against.
 */

#include "bench_common.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "emu/decoded_program.hh"
#include "emu/shader_emulator.hh"
#include "emu/shader_isa.hh"

using namespace attila;
using namespace attila::bench;
using namespace attila::emu;

namespace
{

constexpr u32 numQuads = 256;
constexpr u32 iterations = 60;
constexpr u32 repetitions = 5;

/** Deterministic input generator (no external randomness). */
struct Lcg
{
    u64 state = 0x9e3779b97f4a7c15ull;

    u32
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<u32>(state >> 33);
    }

    f32
    uniform(f32 lo, f32 hi)
    {
        const f32 t = static_cast<f32>(next() & 0xffffff) /
                      static_cast<f32>(0xffffff);
        return lo + (hi - lo) * t;
    }
};

/** A pure, per-lane procedural texture: both sampling modes call it
 * with identical arguments, keeping the paths bit-identical. */
Vec4
proceduralTexel(u32 unit, const Vec4& c)
{
    const f32 s =
        std::sin(c.x * 3.0f + static_cast<f32>(unit) * 0.5f);
    const f32 t = std::cos(c.y * 5.0f - c.z);
    return {s * t, s + t, c.z * 0.25f, 1.0f};
}

/** One program's pre-generated thread inputs: quads of 4 lanes. */
struct Workset
{
    std::vector<std::array<ShaderThreadState, 4>> quads;
};

Workset
makeWorkset()
{
    Lcg rng;
    Workset ws;
    ws.quads.resize(numQuads);
    for (auto& quad : ws.quads) {
        for (auto& lane : quad) {
            lane.reset();
            for (u32 r = 0; r < regix::numInputRegs; ++r) {
                lane.in[r] = {rng.uniform(-2.0f, 2.0f),
                              rng.uniform(-2.0f, 2.0f),
                              rng.uniform(-2.0f, 2.0f),
                              rng.uniform(0.25f, 2.0f)};
            }
        }
    }
    return ws;
}

/** Bitwise checksum over the program's output (result.color is the
 * only output register any bench program writes) and kill flags. */
u32
checksum(const std::array<ShaderThreadState, 4>& lanes,
         const std::array<bool, 4>& killed)
{
    u32 sum = 0;
    for (u32 l = 0; l < 4; ++l) {
        for (u32 c = 0; c < 4; ++c) {
            const f32 v = lanes[l].out[0][c];
            u32 bits;
            static_assert(sizeof(bits) == sizeof(f32));
            std::memcpy(&bits, &v, 4);
            sum = sum * 31u + bits;
        }
        sum = sum * 31u + (killed[l] ? 1u : 0u);
    }
    return sum;
}

/**
 * Load one pre-generated quad into the persistent lane state: only
 * the input bank plus pc / kill flags change per fragment (exactly
 * what the shader unit loads per thread).  Output and temp
 * registers carry whatever the previous quad left — execution is
 * bit-identical in every mode, so the carried state is too, and the
 * checksums stay comparable.
 */
void
prime(std::array<ShaderThreadState, 4>& lanes,
      const std::array<ShaderThreadState, 4>& quad)
{
    for (u32 l = 0; l < 4; ++l) {
        lanes[l].in = quad[l].in;
        lanes[l].pc = 0;
        lanes[l].killed = false;
    }
}

struct ModeResult
{
    f64 wallSeconds = 0.0;
    u32 check = 0;
};

/** Best-of-N timing: the minimum wall clock over @ref repetitions
 * filters out scheduler noise on shared machines.  Every repetition
 * must produce the same checksum. */
template <typename Body>
ModeResult
timeMode(Body&& body)
{
    ModeResult result;
    result.wallSeconds = std::numeric_limits<f64>::infinity();
    for (u32 rep = 0; rep < repetitions; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const u32 check = body();
        const auto stop = std::chrono::steady_clock::now();
        const f64 wall =
            std::chrono::duration<f64>(stop - start).count();
        if (rep == 0)
            result.check = check;
        else if (check != result.check) {
            std::cerr << "FAIL: checksum varies across"
                         " repetitions\n";
            std::exit(1);
        }
        result.wallSeconds = std::min(result.wallSeconds, wall);
    }
    return result;
}

void
emitMicroJson(const std::string& label, const ModeResult& r,
              u64 lanesRun)
{
    const f64 mlps = r.wallSeconds > 0.0
                         ? static_cast<f64>(lanesRun) /
                               r.wallSeconds / 1e6
                         : 0.0;
    std::cout << "BENCH_JSON {\"bench\":\"" << benchName()
              << "\",\"label\":\"" << label << "\",\"wall_s\":"
              << std::fixed << std::setprecision(6) << r.wallSeconds
              << ",\"mlanes_per_s\":" << std::setprecision(3) << mlps
              << "}\n"
              << std::defaultfloat;
}

/** Run one program through all three modes; returns the
 * scalar/quad speedup, exits on any checksum mismatch. */
f64
benchProgram(const std::string& name, const std::string& source)
{
    ShaderAssembler assembler;
    const ShaderProgramPtr prog = assembler.assemble(source);
    const ConstantBank constants =
        ShaderEmulator::makeConstants(*prog);
    ShaderEmulator emulator;
    DecodedProgramCache cache;
    const DecodedProgram& decodedProg = cache.get(prog);
    const Workset ws = makeWorkset();

    auto immediateFn = [](u32 unit, TexTarget, const Vec4& coord,
                          f32, bool) {
        return proceduralTexel(unit, coord);
    };
    const ImmediateSampler immediate = immediateFn;

    auto quadFn = [](u32 unit, TexTarget,
                     const std::array<Vec4, 4>& coords, u8 liveMask,
                     f32, bool) {
        std::array<Vec4, 4> texels{};
        for (u32 l = 0; l < 4; ++l) {
            if (liveMask & (1u << l))
                texels[l] = proceduralTexel(unit, coords[l]);
        }
        return texels;
    };
    const QuadSampler quadSampler = quadFn;

    const ModeResult scalar = timeMode([&] {
        u32 sum = 0;
        std::array<ShaderThreadState, 4> lanes;
        for (auto& lane : lanes)
            lane.reset();
        for (u32 it = 0; it < iterations; ++it) {
            for (const auto& quad : ws.quads) {
                prime(lanes, quad);
                std::array<bool, 4> killed{};
                for (u32 l = 0; l < 4; ++l) {
                    killed[l] = !emulator.run(*prog, constants,
                                              lanes[l], &immediate);
                }
                sum ^= checksum(lanes, killed);
            }
        }
        return sum;
    });

    const ModeResult quadMode = timeMode([&] {
        u32 sum = 0;
        std::array<ShaderThreadState, 4> lanes;
        for (auto& lane : lanes)
            lane.reset();
        for (u32 it = 0; it < iterations; ++it) {
            for (const auto& quad : ws.quads) {
                prime(lanes, quad);
                std::array<bool, 4> laneDone{};
                std::array<bool, 4> killed{};
                emulator.runQuad(decodedProg, constants, lanes,
                                 laneDone, killed, quadSampler);
                sum ^= checksum(lanes, killed);
            }
        }
        return sum;
    });

    const u64 lanesRun =
        static_cast<u64>(iterations) * numQuads * 4;
    emitMicroJson(name + "_scalar", scalar, lanesRun);
    emitMicroJson(name + "_quad", quadMode, lanesRun);

    if (scalar.check != quadMode.check) {
        std::cerr << "FAIL: " << name
                  << " checksums diverge (scalar=" << scalar.check
                  << " quad=" << quadMode.check << ")\n";
        std::exit(1);
    }

    const f64 speedup = quadMode.wallSeconds > 0.0
                            ? scalar.wallSeconds /
                                  quadMode.wallSeconds
                            : 0.0;
    std::cout << "BENCH_JSON {\"bench\":\"" << benchName()
              << "\",\"label\":\"" << name
              << "_speedup\",\"fastpath_speedup\":" << std::fixed
              << std::setprecision(3) << speedup << "}\n"
              << std::defaultfloat;
    std::cout << "  " << name << ": scalar " << std::fixed
              << std::setprecision(3) << scalar.wallSeconds
              << " s, quad " << quadMode.wallSeconds << " s ("
              << speedup << "x)\n"
              << std::defaultfloat;
    return speedup;
}

/** ALU-heavy: normalize/light/blend arithmetic over most opcodes. */
const char* const aluProgram = R"(!!ARBfp1.0
TEMP n, l, h, t0, t1, acc;
MOV n, fragment.texcoord[0];
DP3 t0.x, n, n;
RSQ t0.x, t0.x;
MUL n, n, t0.x;
MOV l, fragment.texcoord[1];
DP3 t1.x, l, l;
RSQ t1.x, t1.x;
MUL l, l, t1.x;
ADD h, n, l;
DP3 t0.y, h, h;
RSQ t0.y, t0.y;
MUL h, h, t0.y;
DP3_SAT t0.z, n, l;
DP3_SAT t0.w, n, h;
MAD acc, fragment.color, t0.z, t0.w;
LRP acc, t0.z, acc, fragment.color;
MIN acc, acc, fragment.color.wzyx;
MAX acc, acc, -fragment.color;
FRC t1, acc;
FLR t0, acc;
CMP acc, acc, t1, t0;
ABS t1, acc;
MOV l, fragment.texcoord[2];
DP3 t1.x, l, l;
RSQ t1.x, t1.x;
MUL l, l, t1.x;
ADD h, n, l;
DP3 t0.y, h, h;
RSQ t0.y, t0.y;
MUL h, h, t0.y;
DP3_SAT t0.z, n, l;
DP3_SAT t0.w, n, h;
MAD acc, acc, t0.z, t0.w;
LRP acc, t0.w, acc, fragment.color;
SUB t1, acc, fragment.color;
MAD acc, t1, t1, acc;
SGE t0, acc, t1;
SLT t1, acc, fragment.color;
MUL acc, acc, t0;
MAD acc, t1, fragment.color, acc;
MIN acc, acc, fragment.color.wzyx;
MAX acc, acc, -fragment.color;
FRC t1, acc;
FLR t0, acc;
CMP acc, acc, t1, t0;
ABS t1, acc;
ADD_SAT result.color, acc, t1;
END
)";

/** Texture-heavy: two TEX fetches feeding dependent ALU work. */
const char* const texProgram = R"(!!ARBfp1.0
TEMP c0, c1, acc, t0;
TEX c0, fragment.texcoord[0], texture[0], 2D;
TEX c1, fragment.texcoord[1], texture[1], 2D;
MUL acc, c0, c1;
DP3 t0.x, acc, acc;
RSQ t0.x, t0.x;
MAD acc, acc, t0.x, c0;
TEX t0, fragment.texcoord[2], texture[2], 2D;
LRP acc, t0.x, acc, c1;
ADD_SAT result.color, acc, t0;
END
)";

/** KIL-heavy: roughly half the lanes die mid-program. */
const char* const kilProgram = R"(!!ARBfp1.0
TEMP t0, acc;
SUB t0, fragment.color, fragment.texcoord[0];
KIL t0;
MUL acc, fragment.color, t0;
DP4 t0.x, acc, acc;
RSQ t0.x, t0.x;
MUL_SAT result.color, acc, t0.x;
END
)";

} // anonymous namespace

int
main(int argc, char** argv)
{
    parseArgs(argc, argv);
    setBench("micro_shader");
    printHeader("Micro: shader emulator (scalar reference vs"
                " pre-decoded quad-lockstep)");

    const f64 aluSpeedup = benchProgram("alu", aluProgram);
    benchProgram("tex", texProgram);
    benchProgram("kil", kilProgram);

    std::cout << "\nscalar and quad bit-identical; alu quad speedup "
              << std::fixed << std::setprecision(2) << aluSpeedup
              << "x\n";
    return 0;
}
