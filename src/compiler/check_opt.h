/**
 * @file
 * Loop-aware check optimization over the BAT (ROADMAP item 3).
 *
 * The static pass (static_analysis.h) classifies each memory
 * instruction but leaves every Unknown row to be checked on *every
 * dynamic execution* — a loop of trip T costs T BCU lookups per warp
 * per instruction. This pass consumes the finished BAT plus the IR and
 * rewrites eligible rows into one of three cheaper shapes, the
 * compiler-side leverage GPUArmor-style schemes use to make hardware
 * checking cheap:
 *
 *  - **Hoisted** — the address is invariant in its enclosing counted
 *    loop: one runtime check of the (unchanged) offset hull replaces
 *    the per-iteration checks.
 *  - **Widened** — the address varies with the loop induction
 *    variable: the per-iteration checks are replaced by a single
 *    [min, max) range check over the whole trip range. The hull is the
 *    row's static offset range, which the interval analysis already
 *    computed across the loop's induction range.
 *  - **Elided** — the row is subsumed by an earlier row in the same
 *    basic block on the same base (check coalescing): the earlier row
 *    becomes the *cover* carrying the union hull; the elided row
 *    issues no check of its own.
 *
 * Safety model: the driver resolves each cover hull to an absolute VA
 * range at launch and the simulator *probes* it through the real BCU
 * path on the warp's first execution of the row. Only a passed probe
 * suppresses the per-access checks; a failed probe falls back to
 * baseline behaviour forever, so verdicts are never weaker than the
 * unoptimized pipeline. The conformance oracle (src/conform/) verifies
 * the zero-false-negative property end to end.
 */

#ifndef GPUSHIELD_COMPILER_CHECK_OPT_H
#define GPUSHIELD_COMPILER_CHECK_OPT_H

#include <cstdint>
#include <string>

#include "compiler/bat.h"
#include "isa/ir.h"

namespace gpushield {

/** Static result counts of one optimize_checks() run. */
struct CheckOptStats
{
    std::uint32_t rows = 0;       //!< BAT rows examined
    std::uint32_t eligible = 0;   //!< rows that passed the safety filter
    std::uint32_t hoisted = 0;    //!< loop-invariant covers
    std::uint32_t widened = 0;    //!< induction-range covers
    std::uint32_t elided = 0;     //!< rows subsumed by a cover
    std::uint32_t per_access = 0; //!< rows left at baseline checking
    std::string to_string() const;
};

/**
 * Annotates @p bat in place (check_kind / cover_pc / cover hull) for
 * @p prog. Rows keep CheckKind::PerAccess unless the pass can prove a
 * cover hull: the row's offsets must be known, its base identified
 * (Arg/Local), its verdict not a compile-time error, and the
 * instruction a plain runtime-checked access (no Method A binding
 * table, no §6.4 guard-replacement).
 */
CheckOptStats optimize_checks(BoundsAnalysisTable &bat,
                              const KernelProgram &prog);

} // namespace gpushield

#endif // GPUSHIELD_COMPILER_CHECK_OPT_H
