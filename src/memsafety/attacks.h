/**
 * @file
 * Memory-safety attack scenarios (§3.1, Fig. 4, §5.7).
 *
 * Three reproducible demonstrations:
 *
 *  1. The Fig. 4 SVM overflow experiment: out-of-bounds writes that are
 *     (a) suppressed by 512B allocation alignment, (b) silently corrupt
 *     a neighbouring buffer within the 2MB page, and (c) abort the
 *     kernel when crossing into an unmapped page — and how GPUShield
 *     detects all three.
 *  2. Pointer forging: a kernel manufactures a pointer with a guessed
 *     ID tag; the per-kernel cipher makes the decrypted ID hit an
 *     invalid RBT entry.
 *  3. A mind-control-style attack: a buffer overflow overwrites a
 *     function-pointer slot stored after a victim buffer; GPUShield
 *     squashes the setup store.
 */

#ifndef GPUSHIELD_MEMSAFETY_ATTACKS_H
#define GPUSHIELD_MEMSAFETY_ATTACKS_H

#include <cstdint>
#include <string>

#include "shield/backend.h"
#include "sim/config.h"

namespace gpushield::memsafety {

/** Result of one Fig. 4 overflow case. */
struct OverflowCase
{
    std::string label;
    bool neighbor_corrupted = false; //!< victim buffer bytes changed
    bool kernel_aborted = false;     //!< illegal-memory-access abort
    bool detected = false;           //!< GPUShield logged a violation
    std::uint64_t violations = 0;
};

/** All three Fig. 4 cases. */
struct Fig4Outcome
{
    OverflowCase within_alignment; //!< case 1: inside 512B padding
    OverflowCase within_page;      //!< case 2: inside the 2MB page
    OverflowCase crossing_page;    //!< case 3: into an unmapped page
};

/** Runs the Fig. 4 experiment. @p shield enables GPUShield. */
Fig4Outcome run_fig4(const GpuConfig &cfg, bool shield);

/** Pointer-forging attempt outcome. */
struct ForgeOutcome
{
    bool detected = false;
    ViolationKind kind = ViolationKind::OutOfBounds;
    bool victim_intact = false; //!< victim buffer unmodified
};

/**
 * A malicious kernel rewrites its pointer's tag field to a guessed
 * (encrypted) ID and stores through it into a victim buffer.
 */
ForgeOutcome run_pointer_forging(const GpuConfig &cfg, bool shield);

/** Mind-control-style control-flow hijack setup. */
struct MindControlOutcome
{
    bool fptr_overwritten = false; //!< function-pointer slot corrupted
    bool detected = false;
};

/**
 * Overflows a data buffer to overwrite an adjacent function-pointer
 * table (the setup phase of the mind control attack [61]).
 */
MindControlOutcome run_mind_control(const GpuConfig &cfg, bool shield);

} // namespace gpushield::memsafety

#endif // GPUSHIELD_MEMSAFETY_ATTACKS_H
