/**
 * @file
 * The benchmark corpus: named benchmarks from the paper's Table 6
 * (CUDA categories + the Intel OpenCL set), each instantiated from a
 * kernel pattern with per-benchmark parameters and initialized device
 * buffers.
 */

#ifndef GPUSHIELD_WORKLOADS_SUITES_H
#define GPUSHIELD_WORKLOADS_SUITES_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "isa/ir.h"

namespace gpushield::workloads {

/** A ready-to-launch workload: program + bound buffers + launch shape. */
struct WorkloadInstance
{
    KernelProgram program;
    std::uint32_t ntid = 256;
    std::uint32_t nctaid = 64;
    std::vector<BufferHandle> buffers;
    std::vector<std::int64_t> scalars;     //!< per arg position
    std::vector<bool> scalar_static;       //!< per arg position
    std::uint64_t heap_bytes = 0;
    bool replace_sw_checks = false;        //!< §6.4 guard replacement
    bool optimize_checks = false;          //!< loop-aware check-opt pass

    /** Builds the LaunchConfig (program pointer refers to this object —
     *  keep the instance alive across the launch). */
    LaunchConfig
    make_config(bool shield_enabled, bool use_static_analysis) const
    {
        LaunchConfig cfg;
        cfg.program = &program;
        cfg.ntid = ntid;
        cfg.nctaid = nctaid;
        cfg.buffers = buffers;
        cfg.scalars = scalars;
        cfg.scalar_static = scalar_static;
        cfg.shield_enabled = shield_enabled;
        cfg.use_static_analysis = use_static_analysis;
        cfg.replace_sw_checks = replace_sw_checks;
        cfg.optimize_checks = optimize_checks;
        cfg.heap_bytes = heap_bytes;
        return cfg;
    }
};

/** A named benchmark and how to materialize it. */
struct BenchmarkDef
{
    std::string name;
    std::string suite;    //!< Rodinia / Parboil / GraphBig / CUDA-SDK / OpenCL
    std::string category; //!< ML / LA / GT / GI / PS / IM / DM / OpenCL
    bool rcache_sensitive = false; //!< member of the Fig. 15 set
    std::function<WorkloadInstance(Driver &)> make;
};

/** The CUDA benchmark set (Table 6 categories). */
const std::vector<BenchmarkDef> &cuda_benchmarks();

/** The 17-benchmark Intel OpenCL set. */
const std::vector<BenchmarkDef> &opencl_benchmarks();

/** The Fig. 19 Rodinia subset used for software-tool comparisons. */
const std::vector<BenchmarkDef> &rodinia_fig19_benchmarks();

/**
 * Finds benchmark @p name in @p set ("cuda", "opencl" or "fig19"); with
 * no set, searches cuda, then opencl, then fig19. nullptr when absent
 * or when @p set names no set.
 */
const BenchmarkDef *find_benchmark(const std::string &name,
                                   const std::string &set = "");

} // namespace gpushield::workloads

#endif // GPUSHIELD_WORKLOADS_SUITES_H
