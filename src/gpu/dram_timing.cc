#include "gpu/dram_timing.hh"

#include <bit>
#include <sstream>

#include "sim/config_file.hh"

namespace attila::gpu
{

namespace
{

[[noreturn]] void
badSpec(const std::string& spec, const std::string& msg)
{
    throw sim::ConfigError("dram timing '" + spec + "': " + msg);
}

} // anonymous namespace

DramTiming
DramTiming::parse(const std::string& spec)
{
    DramTiming t;
    std::istringstream in(spec);
    std::string token;
    while (std::getline(in, token, ':')) {
        if (token.empty())
            continue;
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) {
            badSpec(spec, "expected name=cycles, got '" + token +
                              "'");
        }
        const std::string name = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        u64 cycles = 0;
        std::size_t pos = 0;
        bool ok = !value.empty();
        if (ok) {
            try {
                cycles = std::stoull(value, &pos, 10);
            } catch (const std::exception&) {
                ok = false;
            }
        }
        if (!ok || pos != value.size() || cycles > 1024) {
            badSpec(spec, "bad value in '" + token + "' (0..1024)");
        }
        const u32 v = static_cast<u32>(cycles);
        if (name == "nbk")
            t.nbk = v;
        else if (name == "CCD")
            t.CCD = v;
        else if (name == "RRD")
            t.RRD = v;
        else if (name == "RCD")
            t.RCD = v;
        else if (name == "RAS")
            t.RAS = v;
        else if (name == "RP")
            t.RP = v;
        else if (name == "RC")
            t.RC = v;
        else if (name == "CL")
            t.CL = v;
        else if (name == "WL")
            t.WL = v;
        else if (name == "WR")
            t.WR = v;
        else if (name == "CDLR")
            ; // Accepted for gpgpu-sim spec compatibility; unused.
        else
            badSpec(spec, "unknown parameter '" + name + "'");
    }
    if (!std::has_single_bit(t.nbk) || t.nbk > 64) {
        badSpec(spec, "nbk must be a power of two up to 64, got " +
                          std::to_string(t.nbk));
    }
    return t;
}

std::string
DramTiming::format() const
{
    std::ostringstream out;
    out << "nbk=" << nbk << ":CCD=" << CCD << ":RRD=" << RRD
        << ":RCD=" << RCD << ":RAS=" << RAS << ":RP=" << RP
        << ":RC=" << RC << ":CL=" << CL << ":WL=" << WL
        << ":WR=" << WR;
    return out.str();
}

} // namespace attila::gpu
