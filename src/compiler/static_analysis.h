/**
 * @file
 * Compiler-based static bounds analysis (§5.3, Fig. 8).
 *
 * The pass mirrors the paper's LLVM data-flow analysis on our IR: for
 * every memory instruction it walks the operand tree rooted at the
 * address register back to its producers (GEP base and index chains),
 * then fills in values from launch-time constants — scalar kernel
 * arguments the host passes as literals, grid dimensions, and the
 * bounded ranges of special registers (tid < ntid, etc.). Accesses whose
 * whole offset range provably stays inside the buffer are marked
 * InBounds (→ runtime check elided, pointer Type 1); provably-escaping
 * constant accesses are compile-time errors; the rest stay Unknown and
 * rely on the BCU.
 *
 * The abstract domain is intervals plus (base, interval) pointer values.
 * Loop induction variables are recognized from the canonical counted-
 * loop shape the builder emits, and `if (x < bound)` guards refine x's
 * range inside the guarded region — this is what lets GPUShield replace
 * the software bounds checks of §6.4. The loop and guard finders are
 * exported, so the check optimizer (check_opt.h) and guard replacement
 * (guard_replace.h) work on the same loops and guards as this pass.
 *
 * One transfer function evaluates every instruction, and one walk
 * visits the pcs in order, forgetting loop-carried registers at each
 * loop head. The walk runs in two modes that differ only in how a
 * register is read:
 *  - the straight-line pre-walk reads registers raw; it reads each
 *    guard's bound (find_guards) and each counted loop's trip bound;
 *  - the access walk (analyze_kernel) reads them refined: an induction
 *    register holds its trip range inside its loop and its exit value
 *    after it, and a guard clamps its register inside its region.
 * Both modes therefore know the same arithmetic, `x >> c` and
 * `a * b + c` included: A[gid >> 3] is proven, and a trip count
 * computed by a mad bounds its loop. Only Range values can bound a
 * loop or a guard, never a pointer. A range whose arithmetic saturates
 * becomes unknown, since the value it stands for may have wrapped.
 */

#ifndef GPUSHIELD_COMPILER_STATIC_ANALYSIS_H
#define GPUSHIELD_COMPILER_STATIC_ANALYSIS_H

#include <cstdint>
#include <optional>
#include <vector>

#include "compiler/bat.h"
#include "isa/ir.h"

namespace gpushield {

/** Launch-time facts available to the static pass (host-code analysis). */
struct StaticLaunchInfo
{
    std::uint32_t ntid = 0;   //!< workgroup size
    std::uint32_t nctaid = 0; //!< number of workgroups

    /** Per kernel-arg position: bound buffer size in bytes (0 = scalar). */
    std::vector<std::uint64_t> arg_buffer_sizes;
    /** Per kernel-arg position: buffer reserved as a power-of-two window. */
    std::vector<bool> arg_buffer_pow2;
    /** Per kernel-arg position: buffer is read-only (stores through it
     *  must keep their runtime check even when in-bounds). */
    std::vector<bool> arg_buffer_readonly;
    /** Per kernel-arg position: scalar value when the host passes a
     *  compile-time constant; nullopt for runtime (attacker-controlled)
     *  scalars, which stay Unknown like `D = argv[1]` in Fig. 5. */
    std::vector<std::optional<std::int64_t>> scalar_values;
};

/** Runs the static pass and produces the kernel's BAT. */
BoundsAnalysisTable analyze_kernel(const KernelProgram &prog,
                                   const StaticLaunchInfo &info);

/** One backward-branch region [head, end] (end = the backedge pc). */
struct LoopRegion
{
    int head = 0;
    int end = 0;
    /** Registers read before written inside the region (loop-carried):
     *  their value on iterations >= 2 is not the straight-line one. */
    std::vector<int> carried;
    /** Canonical counted-loop shape (setp.lt p, i, bound ; bra p,
     *  head): the induction register and the compare's pc. ivar is
     *  kNoReg for any other shape. */
    int ivar = kNoReg;
    int setp_pc = -1;
};

/** The region of every backward branch, in backedge order. Needs no
 *  launch facts: it reads the code only. */
std::vector<LoopRegion> find_loops(const KernelProgram &prog);

/** Closed range [lo, hi] of a value. */
struct Interval
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

/** One `if (x cmp B)` guard: `bra.not p, END` with p = setp.cmp x, B.
 *  The compare holds strictly between the branch and END. */
struct Guard
{
    int bra_pc = -1;
    int end_pc = -1; //!< END, the branch target
    Cmp cmp = Cmp::Eq;
    int reg = kNoReg; //!< x, the guarded register
    Interval bound;   //!< B as read at the setp
};

/**
 * The guards that still describe x inside their region, in branch
 * order. B is read at the setp by a straight-line walk that forgets
 * loop-carried registers at each loop head, so a bound register
 * rewritten after the compare does not change what the guard proved.
 * A guard is dropped when B has no known range, when x is reassigned
 * between the setp and END (the compare says nothing about the new
 * value), or when a loop head inside the region lets execution
 * re-enter it past the branch. @p loops is find_loops(@p prog).
 */
std::vector<Guard> find_guards(const KernelProgram &prog,
                               const StaticLaunchInfo &info,
                               const std::vector<LoopRegion> &loops);

} // namespace gpushield

#endif // GPUSHIELD_COMPILER_STATIC_ANALYSIS_H
