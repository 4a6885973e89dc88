/**
 * @file
 * DramTiming: the banked GDDR timing parameter set, parsed from the
 * gpgpu-sim-style option string
 *
 *   nbk=8:CCD=2:RRD=8:RCD=12:RAS=25:RP=10:RC=35:CL=10:WL=7:WR=11
 *
 * (GDDR3 timing of the Samsung K4J52324QH-HC12 — the exemplar spec
 * in SNIPPETS.md).  All values are cycles of the memory clock, which
 * this model ties to the core clock 1:1.
 *
 * The banked MemoryController model (GpuConfig::memModel == Banked)
 * derives three access classes from the per-bank row state:
 *
 *   row hit      — bank active, same row:     CL (read) / WL (write)
 *   row closed   — bank precharged:           RCD + CL/WL
 *   row conflict — bank active, other row:    RP + RCD + CL/WL
 *
 * plus RAS (minimum row-open time before precharge), RC (minimum
 * activate-to-activate on one bank), RRD (activate-to-activate
 * across banks of a channel) and WR (write recovery before
 * precharge).  CCD is subsumed by the single data bus per channel.
 */

#ifndef ATTILA_GPU_DRAM_TIMING_HH
#define ATTILA_GPU_DRAM_TIMING_HH

#include <string>

#include "sim/types.hh"

namespace attila::gpu
{

/** Parsed DRAM timing parameters (defaults: GDDR3 per SNIPPETS). */
struct DramTiming
{
    u32 nbk = 8;  ///< Banks per channel.
    u32 CCD = 2;  ///< Column-to-column delay.
    u32 RRD = 8;  ///< Activate-to-activate, different banks.
    u32 RCD = 12; ///< Row-to-column (activate-to-access).
    u32 RAS = 25; ///< Minimum row-open time.
    u32 RP = 10;  ///< Precharge time.
    u32 RC = 35;  ///< Activate-to-activate, same bank.
    u32 CL = 10;  ///< Read column access (CAS) latency.
    u32 WL = 7;   ///< Write column access latency.
    u32 WR = 11;  ///< Write recovery before precharge.

    bool operator==(const DramTiming&) const = default;

    /**
     * Parse a "nbk=8:RCD=12:..." option string.  Unlisted fields
     * keep their defaults; unknown or malformed tokens throw
     * sim::ConfigError naming the offending token.  Each value is at
     * most 1024 cycles, and nbk is a power of two up to 64 (the bank
     * index is taken from address bits).
     */
    static DramTiming parse(const std::string& spec);

    /** Canonical round-trip form (parse(format()) == *this). */
    std::string format() const;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_DRAM_TIMING_HH
