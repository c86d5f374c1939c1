/**
 * @file
 * Functional SIMT interpreter over the kernel IR.
 *
 * The interpreter advances one warp by one instruction, computing
 * architectural effects for every active lane. Global/local memory
 * operations are *described*, not performed: the core runs the BCU
 * check first and then applies the functional access (so detected
 * violations can suppress stores and zero loads, §5.5.2).
 */

#ifndef GPUSHIELD_SIM_INTERP_H
#define GPUSHIELD_SIM_INTERP_H

#include <array>
#include <cstdint>
#include <vector>

#include "driver/driver.h"
#include "isa/ir.h"
#include "sim/warp.h"

namespace gpushield {

/** Kind of step the warp just performed. */
enum class StepKind : std::uint8_t {
    Alu,       //!< simple arithmetic / moves / control
    Sfu,       //!< long-latency arithmetic (div/rem)
    GlobalMem, //!< described in the MemOp, to be executed by the core
    SharedMem, //!< scratchpad access (already performed functionally)
    Malloc,    //!< device-heap allocation (serialization cost applies)
    Barrier,   //!< warp reached a workgroup barrier
    Exited,    //!< warp finished
};

/** Description of a pending global/local memory operation. */
struct MemOp
{
    const Instr *instr = nullptr;
    int pc = -1;
    bool is_store = false;
    LaneMask mask = 0; //!< lanes participating

    /** Tagged pointer observed by the BCU: the address-register value
     *  (Method B) or the base register (Method C). */
    std::uint64_t pointer = 0;

    /** Canonical per-lane byte addresses, valid only where mask is
     *  set: the arrays are left uninitialized so a step does not zero
     *  512 bytes, and every reader goes through the mask. */
    std::array<VAddr, kWarpSize> lane_addr;
    /** Store payloads per lane (valid where mask is set). */
    std::array<std::int64_t, kWarpSize> store_val;
    int dest_reg = kNoReg;
    std::uint8_t size = 4;

    /** Base+offset (Method C) operands for Type 3 checking. */
    bool has_base_offset = false;
    std::int64_t min_offset = 0;
    std::int64_t max_offset_end = 0;

    /** Binding-table (Method A) access: bounds come straight from the
     *  BT entry, so the check needs no RCache/RBT traffic. */
    bool has_bt = false;
    Bounds bt_bounds;

    /** Warp-level address range [min_addr, max_end). */
    VAddr min_addr = 0;
    VAddr max_end = 0;
};

/** Result of stepping a warp once. */
struct StepResult
{
    StepKind kind = StepKind::Alu;
    MemOp mem; //!< valid when kind == GlobalMem
    std::uint32_t malloc_count = 0; //!< lanes that allocated
};

/** Executes kernel instructions for warps of one launch. */
class WarpInterpreter
{
  public:
    /**
     * @param launch  launch state (args, locals, heap, RBT)
     * @param driver  services device-side malloc
     */
    WarpInterpreter(LaunchState &launch, Driver &driver);

    /** Steps @p warp by one instruction. */
    StepResult step(WarpState &warp, std::vector<std::uint8_t> &shared_mem);

    /**
     * Applies the functional effect of a checked memory operation.
     * @param suppress_mask lanes whose access the BCU squashed: their
     *        stores are dropped and their loads return zero (§5.5.2).
     *        Detection is warp-granular, squashing is lane-granular —
     *        the store pipeline knows each lane's address.
     */
    void apply_mem(WarpState &warp, const MemOp &op,
                   LaneMask suppress_mask);

    const KernelProgram &program() const { return launch_.program; }

  private:
    LaunchState &launch_;
    Driver &driver_;
};

} // namespace gpushield

#endif // GPUSHIELD_SIM_INTERP_H
