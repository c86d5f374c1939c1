#include "sim/warp.h"

#include <algorithm>

#include "common/log.h"

namespace gpushield {

WarpState::WarpState(WarpId warp_id, std::uint32_t wg_index,
                     std::uint32_t warp_in_wg, std::uint32_t ntid,
                     int num_regs, int num_preds)
    : id(warp_id), wg_index_(wg_index), warp_in_wg_(warp_in_wg),
      ntid_(ntid),
      regs_(static_cast<std::size_t>(kWarpSize) * num_regs, 0),
      preds_(static_cast<std::size_t>(num_preds), 0)
{
    active = valid_lanes();
}

LaneMask
WarpState::valid_lanes() const
{
    const std::uint32_t first = warp_in_wg_ * kWarpSize;
    if (first >= ntid_)
        return 0;
    const std::uint32_t count = std::min<std::uint32_t>(kWarpSize,
                                                        ntid_ - first);
    return count >= kWarpSize ? kFullMask
                              : ((LaneMask{1} << count) - 1);
}

void
WarpState::reconverge()
{
    while (!simt_stack.empty() && simt_stack.back().reconv_pc == pc) {
        SimtEntry &top = simt_stack.back();
        if (top.has_pending) {
            // Run the parked side before restoring the full mask.
            pc = top.pending_pc;
            active = top.pending_mask;
            top.has_pending = false;
            if (pc != top.reconv_pc)
                return;
            // Pending side was empty: fall through to the pop below.
            continue;
        }
        active = top.restore_mask;
        simt_stack.pop_back();
    }
}

void
WarpState::branch(int target, LaneMask taken_mask, int next_pc)
{
    if (taken_mask == active) { // uniformly taken
        pc = target;
        return;
    }
    if (taken_mask == 0) { // uniformly not taken
        pc = next_pc;
        return;
    }
    const LaneMask not_taken = active & ~taken_mask;
    if (target <= pc) {
        // Divergent backward branch (loop): keep iterating with the
        // remaining lanes; exited lanes wait for reconvergence.
        active = taken_mask;
        pc = target;
        return;
    }
    // Divergent forward branch: park the taken side on the innermost
    // SSY entry and continue on the fall-through path.
    if (simt_stack.empty())
        panic("WarpState: divergent branch without an SSY region");
    SimtEntry &top = simt_stack.back();
    if (top.has_pending)
        panic("WarpState: nested divergence within one SSY entry");
    top.has_pending = true;
    top.pending_pc = target;
    top.pending_mask = taken_mask;
    active = not_taken;
    pc = next_pc;
}

} // namespace gpushield
