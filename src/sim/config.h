/**
 * @file
 * Simulated GPU configurations (Table 5 of the paper).
 */

#ifndef GPUSHIELD_SIM_CONFIG_H
#define GPUSHIELD_SIM_CONFIG_H

#include <cstdint>
#include <string>

#include "common/types.h"
#include "mem/hierarchy.h"
#include "shield/config.h"

namespace gpushield {

/** Full configuration of a simulated GPU. */
struct GpuConfig
{
    std::string name = "gpu";
    unsigned num_cores = 16;
    unsigned max_warps_per_core = 32;       //!< 1024 threads per SM
    unsigned max_workgroups_per_core = 8;
    unsigned issue_width = 2;               //!< instructions issued per cycle

    Cycle alu_latency = 1;                  //!< pipelined simple ALU
    Cycle sfu_latency = 8;                  //!< div/rem and friends
    Cycle shared_latency = 24;              //!< scratchpad round trip
    Cycle lsu_pipeline_slack = 2;           //!< BCU shadow on D-cache hits

    /** Serialization cost per device-side malloc (the paper's footnote 2
     *  measures 4.9-63.7x slowdowns from allocator contention). */
    Cycle malloc_serialize_cycles = 6;

    /**
     * §5.5.2: when the GPU supports precise exceptions, a bounds
     * violation immediately raises a fault that terminates the kernel;
     * otherwise (default) the BCU logs the error, zeroes loads, drops
     * stores, and execution continues.
     */
    bool precise_exceptions = false;

    MemHierConfig mem;
    /** Bounds-checking hardware: backend selection + per-backend knobs
     *  (shield/config.h). `shield.region` carries the historic RCache
     *  fields. */
    ShieldConfig shield;

    /** Abort the simulation if a kernel exceeds this many cycles. */
    Cycle max_cycles = 400'000'000;
};

/** The paper's Nvidia-like configuration: 16 SMs @ 1.6 GHz, 16KB 4-way
 *  L1, 2MB 16-way shared L2, 64-entry L1 TLB, 1024-entry L2 TLB,
 *  2MB device pages. */
GpuConfig nvidia_config();

/** The paper's Intel-like configuration: 24 cores @ 1 GHz, 7 HW threads
 *  per core, 32KB 4-way L1, integrated-GPU 4KB pages. */
GpuConfig intel_config();

} // namespace gpushield

#endif // GPUSHIELD_SIM_CONFIG_H
