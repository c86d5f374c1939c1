/**
 * @file
 * Software-guard replacement (§6.4, the paper's future-work item).
 *
 * GPU programs guard accesses with `if (x < n)`; the paper measures up
 * to 76% overhead for the pattern and observes GPUShield could perform
 * the check in hardware instead. This pass removes such guards when —
 * and only when — the hardware check is provably equivalent:
 *
 *  1. the guard is one the static pass's find_guards() reports
 *     (static_analysis.h), in the builder's canonical shape
 *     (ssy E; bra.not p, E with p = setp.lt x, B);
 *  2. B, as read at the setp, is a compile-time constant > 0 (static
 *     scalar / immediate / grid-derived): a bound register rewritten
 *     after the compare, even after the region, does not count;
 *  3. x is not reassigned between the setp and E: the compare says
 *     nothing about a new x;
 *  4. every guarded access is `buf[x]` with element size == access
 *     size and buffer_size <= B * size — so a lane failing the guard
 *     is exactly a lane whose access the BCU squashes;
 *  5. the region is straight-line (no control flow / barriers /
 *     shared memory) and defines no register or predicate that is
 *     read after the region (the squashed lanes' zero-loads must be
 *     dead).
 *
 * Removed guards become NOPs and the region's memory instructions are
 * marked CheckMode::GuardReplaced: the BCU squashes the
 * formerly-guarded lanes silently (no violation report).
 */

#ifndef GPUSHIELD_COMPILER_GUARD_REPLACE_H
#define GPUSHIELD_COMPILER_GUARD_REPLACE_H

#include "compiler/static_analysis.h"
#include "isa/ir.h"

namespace gpushield {

/** Outcome of the guard-replacement pass. */
struct GuardReplaceResult
{
    KernelProgram program;
    unsigned guards_removed = 0;
};

/** Runs the pass; returns the (possibly) transformed program. */
GuardReplaceResult replace_sw_guards(const KernelProgram &prog,
                                     const StaticLaunchInfo &info);

} // namespace gpushield

#endif // GPUSHIELD_COMPILER_GUARD_REPLACE_H
