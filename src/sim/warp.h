/**
 * @file
 * Per-warp architectural state and the SIMT reconvergence stack.
 *
 * Divergence follows the structured SSY/BRA discipline the builder
 * emits: SSY pushes a reconvergence point with the current mask; a
 * divergent forward branch parks the taken side as "pending" on the top
 * entry and continues on the fall-through path; reaching the
 * reconvergence PC first runs the pending side, then restores the full
 * mask. Divergent backward branches (loops) shrink the active mask
 * until every lane has exited, then fall through to the reconvergence
 * point.
 */

#ifndef GPUSHIELD_SIM_WARP_H
#define GPUSHIELD_SIM_WARP_H

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "isa/ir.h"

namespace gpushield {

/** 32-lane activity mask. */
using LaneMask = std::uint32_t;

/** All lanes active. */
inline constexpr LaneMask kFullMask = 0xFFFFFFFFu;

/**
 * Calls @p fn(lane) for every lane set in @p mask, in ascending lane
 * order (device mallocs and shared-memory stores depend on it). A full
 * mask runs a straight loop the compiler can vectorize.
 */
template <typename Fn>
inline void
for_each_lane(LaneMask mask, Fn &&fn)
{
    if (mask == kFullMask) {
        for (unsigned lane = 0; lane < kWarpSize; ++lane)
            fn(lane);
        return;
    }
    for (; mask != 0; mask &= mask - 1)
        fn(static_cast<unsigned>(std::countr_zero(mask)));
}

/** One SIMT stack entry. */
struct SimtEntry
{
    int reconv_pc = -1;        //!< where both sides meet again
    LaneMask restore_mask = 0; //!< mask to restore after reconvergence
    bool has_pending = false;
    int pending_pc = -1;
    LaneMask pending_mask = 0;
};

/** Scheduling status of a warp. */
enum class WarpStatus : std::uint8_t {
    Ready,     //!< can issue (subject to ready_cycle)
    Blocked,   //!< waiting on outstanding memory
    AtBarrier, //!< waiting at a workgroup barrier
    Finished,  //!< executed Exit
};

/** Architectural + scheduling state of one warp. */
class WarpState
{
  public:
    /**
     * @param warp_id     warp index within the core
     * @param wg_index    workgroup (CTA) index within the grid
     * @param warp_in_wg  warp position inside its workgroup
     * @param ntid        workgroup size in threads
     * @param num_regs    general registers per thread
     * @param num_preds   predicate registers per thread
     */
    WarpState(WarpId warp_id, std::uint32_t wg_index,
              std::uint32_t warp_in_wg, std::uint32_t ntid, int num_regs,
              int num_preds);

    /// @name Register file access
    /// Registers are stored register-major: the 32 lanes of one
    /// register are contiguous, so a warp-wide operation walks rows.
    /// @{
    std::int64_t
    reg(unsigned lane, int r) const
    {
        return regs_[static_cast<std::size_t>(r) * kWarpSize + lane];
    }
    void
    set_reg(unsigned lane, int r, std::int64_t v)
    {
        regs_[static_cast<std::size_t>(r) * kWarpSize + lane] = v;
    }
    /** The kWarpSize lane values of register @p r. */
    std::int64_t *
    reg_row(int r)
    {
        return regs_.data() + static_cast<std::size_t>(r) * kWarpSize;
    }
    const std::int64_t *
    reg_row(int r) const
    {
        return regs_.data() + static_cast<std::size_t>(r) * kWarpSize;
    }
    bool
    pred(unsigned lane, int p) const
    {
        return (preds_[p] >> lane) & 1;
    }
    void
    set_pred(unsigned lane, int p, bool v)
    {
        if (v)
            preds_[p] |= LaneMask{1} << lane;
        else
            preds_[p] &= ~(LaneMask{1} << lane);
    }
    /** Full predicate mask for register @p p. */
    LaneMask pred_mask(int p) const { return preds_[p]; }
    /** Sets the @p lanes bits of predicate @p p to those of @p v;
     *  other lanes keep their bits. */
    void
    write_pred(int p, LaneMask v, LaneMask lanes)
    {
        preds_[p] = (preds_[p] & ~lanes) | (v & lanes);
    }
    /// @}

    /// @name Thread identity
    /// @{
    std::uint32_t wg_index() const { return wg_index_; }
    std::uint32_t warp_in_wg() const { return warp_in_wg_; }
    std::uint32_t ntid() const { return ntid_; }
    /** Thread index within the workgroup for @p lane. */
    std::uint32_t
    tid(unsigned lane) const
    {
        return warp_in_wg_ * kWarpSize + lane;
    }
    /** Lanes whose tid is within the workgroup size. */
    LaneMask valid_lanes() const;
    /// @}

    /// @name SIMT control
    /// @{
    int pc = 0;
    LaneMask active = kFullMask;
    std::vector<SimtEntry> simt_stack;

    /**
     * Applies reconvergence: while the top-of-stack reconvergence point
     * equals pc, switch to the pending side or pop-and-restore.
     */
    void reconverge();

    /**
     * Executes branch semantics for @p taken_mask lanes of the currently
     * active mask targeting @p target.
     */
    void branch(int target, LaneMask taken_mask, int next_pc);
    /// @}

    /// @name Scheduling
    /// @{
    WarpId id;
    WarpStatus status = WarpStatus::Ready;
    Cycle ready_cycle = 0;

    /** Profiler scratch (written only while a profiler is attached):
     *  issued this cycle / blocked on an access that needed an RBT
     *  refill. See Core::profile_cycles. */
    bool profile_issued = false;
    bool profile_block_refill = false;

    /** Check-opt cover-probe tri-state per pc (0 = unknown, 1 = probe
     *  passed, 2 = fallback to per-access checks). Sized by the core at
     *  workgroup start only when the launch carries cover rows; empty
     *  otherwise. Core-local: only the issue phase touches it. */
    std::vector<std::uint8_t> cover_state;
    /// @}

  private:
    std::uint32_t wg_index_;
    std::uint32_t warp_in_wg_;
    std::uint32_t ntid_;
    std::vector<std::int64_t> regs_; //!< [register][lane]
    std::vector<LaneMask> preds_;
};

} // namespace gpushield

#endif // GPUSHIELD_SIM_WARP_H
