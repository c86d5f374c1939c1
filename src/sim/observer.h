/**
 * @file
 * Instruction observer interface.
 *
 * The paper's Intel workloads were characterized with GT-Pin, a binary
 * instrumentation tool. This hook provides the equivalent capability
 * for the simulated GPU: an observer sees every issued instruction
 * before it executes and the bounds verdict of every global access, so
 * it can build traces, opcode histograms, address profiles or a
 * per-lane conformance oracle without perturbing timing.
 */

#ifndef GPUSHIELD_SIM_OBSERVER_H
#define GPUSHIELD_SIM_OBSERVER_H

#include "common/types.h"
#include "isa/ir.h"
#include "shield/backend.h"
#include "sim/interp.h"
#include "sim/warp.h"

namespace gpushield {

struct LaunchState;

/**
 * Everything the LSU/BCU stage knows about one global memory
 * instruction, handed to a LaneObserver right after the warp-granular
 * verdict and before the functional effect (or a precise-exception
 * abort) is applied. `op` is only valid for the duration of the call.
 */
struct MemCheckEvent
{
    KernelId kernel = 0;
    CoreId core = 0;
    WarpId warp = 0;              //!< warp ID on its core
    std::uint32_t wg_index = 0;   //!< workgroup (CTA) index in the grid
    std::uint32_t warp_in_wg = 0; //!< warp position inside the workgroup
    const MemOp *op = nullptr;

    bool checked = false;             //!< the BCU ran a runtime check
    bool elided = false;              //!< CheckMode::StaticSafe (Type 1)
    bool skipped_unprotected = false; //!< unprotected pointer, no check
    bool covered = false;     //!< skipped behind a passed cover probe
    bool cover_probe = false; //!< this execution's check was the probe
    bool violation = false;           //!< warp-granular BCU verdict
    bool silent = false;              //!< §6.4 guard-replaced instruction
    ViolationKind kind = ViolationKind::OutOfBounds;
    LaneMask suppress_mask = 0;       //!< lanes the core squashes
};

/**
 * The instruction observer. Attached via Gpu::set_lane_observer with
 * the same nullable-pointer discipline as obs::Profiler: the disabled
 * path costs one branch, and an attached observer sees everything but
 * never changes simulated behaviour. Every global load/store's on_step
 * is followed, in the same issue, by exactly one on_mem_check.
 */
class LaneObserver
{
  public:
    virtual ~LaneObserver() = default;

    /** A kernel was launched on the observed GPU. */
    virtual void on_launch(const LaunchState &) {}

    /**
     * @p warp on @p core is about to execute @p instr (post-
     * reconvergence, before any register is written), so source
     * registers still hold their pre-instruction values.
     */
    virtual void on_step(CoreId, KernelId, const WarpState &,
                         const Instr &)
    {
    }

    /** The warp-granular bounds verdict for one memory instruction. */
    virtual void on_mem_check(const MemCheckEvent &) {}
};

} // namespace gpushield

#endif // GPUSHIELD_SIM_OBSERVER_H
