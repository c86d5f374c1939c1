/**
 * @file
 * Address-coalescing unit (ACU).
 *
 * Merges a warp's per-lane byte accesses into the minimal set of
 * line-sized memory transactions, exactly as the LSU front-end of
 * Fig. 12 does before the D-TLB/D-cache lookups and the BCU's
 * address-gather stage.
 */

#ifndef GPUSHIELD_SIM_LSU_H
#define GPUSHIELD_SIM_LSU_H

#include <vector>

#include "common/types.h"
#include "sim/interp.h"

namespace gpushield {

/**
 * Writes the sorted unique line addresses that the @p mask lanes of
 * @p op touch into @p lines (replacing its contents). The caller keeps
 * a reusable scratch vector, so the per-instruction coalesce costs no
 * allocation once the scratch has grown to steady state.
 *
 * @param mask      lanes to coalesce (op.mask, or the lanes that
 *                  survive a partial squash)
 * @param line_size transaction granularity (128B by default)
 */
void coalesce_into(const MemOp &op, LaneMask mask, std::uint64_t line_size,
                   std::vector<VAddr> &lines);

} // namespace gpushield

#endif // GPUSHIELD_SIM_LSU_H
