#include "workloads/runner.h"

#include "mem/hierarchy.h"

namespace gpushield::workloads {

StatSet
collect_mem_stats(Gpu &gpu)
{
    const auto add_prefixed = [](StatSet &into, const std::string &prefix,
                                 const StatSet &from) {
        for (const auto &[name, value] : from.counters())
            into.add(prefix + name, value);
    };

    MemoryHierarchy &hier = gpu.hierarchy();
    StatSet l1, l1_tlb;
    for (std::size_t c = 0; c < gpu.num_cores(); ++c) {
        l1.merge(hier.l1(static_cast<CoreId>(c)).stats());
        l1_tlb.merge(hier.l1_tlb(static_cast<CoreId>(c)).stats());
    }

    StatSet out;
    add_prefixed(out, "hier.", hier.stats());
    add_prefixed(out, "l1.", l1);
    add_prefixed(out, "l1_tlb.", l1_tlb);
    add_prefixed(out, "l2.", hier.l2().stats());
    add_prefixed(out, "l2_tlb.", hier.l2_tlb().stats());
    add_prefixed(out, "dram.", hier.dram().stats());
    return out;
}

RunOutcome
run_workload(const GpuConfig &cfg, Driver &driver,
             const WorkloadInstance &instance, bool shield, bool use_static,
             obs::Profiler *profiler, LaneObserver *lane_obs)
{
    Gpu gpu(cfg, driver);
    if (profiler != nullptr)
        gpu.set_profiler(profiler);
    if (lane_obs != nullptr)
        gpu.set_lane_observer(lane_obs);
    LaunchState state = driver.launch(instance.make_config(shield, use_static));
    const std::size_t idx = gpu.launch(std::move(state));
    gpu.run();

    RunOutcome out;
    out.result = gpu.result(idx);
    out.canaries = driver.finish(gpu.launch_state(idx));
    out.rcache = gpu.rcache_stats();
    out.bcu = gpu.bcu_stats();
    out.mem = collect_mem_stats(gpu);
    out.l1_rcache_hit_rate = gpu.rcache_l1_hit_rate();
    out.cycles_skipped = gpu.cycles_skipped();
    return out;
}

MultiLaunchOutcome
run_workload_n(const GpuConfig &cfg, Driver &driver,
               const WorkloadInstance &instance, unsigned launches,
               bool shield, bool use_static, Cycle extra_cycles_per_mem,
               unsigned extra_transactions, obs::Profiler *profiler)
{
    Gpu gpu(cfg, driver);
    if (profiler != nullptr)
        gpu.set_profiler(profiler);
    MultiLaunchOutcome out;
    for (unsigned i = 0; i < launches; ++i) {
        LaunchState state =
            driver.launch(instance.make_config(shield, use_static));
        const std::size_t idx =
            gpu.launch(std::move(state), ~std::uint64_t{0},
                       extra_cycles_per_mem, extra_transactions);
        gpu.run();
        const KernelResult r = gpu.result(idx);
        out.total_cycles += r.cycles();
        out.violations += r.violations.size();
        out.aborted |= r.aborted;
        driver.finish(gpu.launch_state(idx));
    }
    out.rcache = gpu.rcache_stats();
    out.bcu = gpu.bcu_stats();
    out.mem = collect_mem_stats(gpu);
    out.cycles_skipped = gpu.cycles_skipped();
    return out;
}

} // namespace gpushield::workloads
