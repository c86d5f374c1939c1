/**
 * @file
 * Event-driven engine tests.
 *
 * The engine (sim/gpu.cc) makes two promises this file pins down:
 * (1) clock jumps are *invisible* — every simulated result is
 * byte-identical to the classic per-cycle engine — and (2) the jumps
 * actually happen (long DRAM stalls are fast-forwarded, not scanned).
 * Coverage:
 *
 *   - golden smoke grid byte-identical against tests/golden/smoke.jsonl
 *   - end cycle + kernel counters of the memory effects the golden grid
 *     never exercises: device mallocs, a translation-fault abort, and a
 *     precise-exception abort
 *   - DRAM-stall fast-forward regression: an engine with jumps skips
 *     cycles but matches the per-cycle engine (profiler-attached
 *     A/B) on every simulated stat
 *   - host-side engine profiler observes without changing results
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "harness/executor.h"
#include "harness/suites.h"
#include "isa/builder.h"
#include "obs/engine_profile.h"
#include "obs/profiler.h"
#include "workloads/kernels.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

std::string
read_file(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

const workloads::BenchmarkDef &
cuda_benchmark(const std::string &name)
{
    for (const workloads::BenchmarkDef &d : workloads::cuda_benchmarks())
        if (d.name == name)
            return d;
    throw std::runtime_error("no cuda benchmark " + name);
}

TEST(Engine, GoldenSmokeByteIdentical)
{
    const std::string golden = read_file(
        std::string(GPUSHIELD_SOURCE_DIR) + "/tests/golden/smoke.jsonl");
    ASSERT_FALSE(golden.empty()) << "missing tests/golden/smoke.jsonl";

    harness::SweepOptions opts;
    opts.jobs = 1;
    const harness::SweepResult result =
        harness::run_sweep(harness::smoke_suite(), opts);
    EXPECT_TRUE(result.all_ok());

    std::ostringstream os;
    result.metrics.write_jsonl(os);
    EXPECT_EQ(os.str(), golden) << "smoke records diverged from golden";
}

/** What one kernel left behind: when it ended, whether it aborted, how
 *  many violations it logged, and every kernel counter. */
struct Pinned
{
    Cycle end_cycle = 0;
    bool aborted = false;
    std::size_t violations = 0;
    std::map<std::string, std::uint64_t> stats;
};

void
expect_pinned(const KernelResult &got, const Pinned &want)
{
    EXPECT_EQ(got.end_cycle, want.end_cycle);
    EXPECT_EQ(got.aborted, want.aborted);
    EXPECT_EQ(got.violations.size(), want.violations);
    EXPECT_EQ(got.stats.counters(), want.stats);
}

TEST(Engine, MemoryEffectsOutsideGoldenArePinned)
{
    // Device mallocs, translation faults and precise exceptions apply
    // their effects inside the issuing core's tick; no smoke/fig cell
    // reaches them, so these values are the record of that path.
    using workloads::WorkloadInstance;
    const GpuConfig cfg = nvidia_config();

    {
        // Every thread device-mallocs 32 B, writes its gid through the
        // heap pointer, and reads it back (footnote 2's contention).
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev);
        workloads::PatternParams p;
        p.name = "heap";
        WorkloadInstance w;
        w.program = workloads::make_heap(p);
        w.ntid = 64;
        w.nctaid = 2;
        w.buffers.push_back(driver.create_buffer(128 * 4));
        w.scalars.assign(w.program.args.size(), 0);
        w.scalar_static.assign(w.program.args.size(), false);
        w.scalars.back() = 32;
        w.heap_bytes = 1 << 20;
        expect_pinned(
            workloads::run_workload(cfg, driver, w, true, false).result,
            {789, false, 0,
             {{"checks", 12},
              {"instructions", 44},
              {"loads", 4},
              {"mallocs", 128},
              {"rbt_refills", 4},
              {"stores", 8},
              {"transactions", 68}}});
    }
    {
        // Fig. 4 case 3 in every thread of four workgroups: A[0x80000]
        // lies 2 MB past A, in an unmapped page, so the unshielded
        // store faults and the kernel aborts.
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev);
        KernelBuilder b("crossing");
        const int a = b.arg_ptr("A");
        const int addr = b.gep(b.ldarg(a), b.mov_imm(0x80000), 4);
        b.st(addr, b.mov_imm(0xBAD), 4);
        b.exit();
        WorkloadInstance w;
        w.program = b.finish();
        w.ntid = 64;
        w.nctaid = 4;
        w.buffers.push_back(driver.create_buffer(64));
        w.buffers.push_back(driver.create_buffer(64));
        expect_pinned(
            workloads::run_workload(cfg, driver, w, false, false).result,
            {4, true, 0,
             {{"instructions", 40},
              {"stores", 4},
              {"transactions", 4},
              {"translation_faults", 4}}});
    }
    {
        // Out-of-bounds stores with precise exceptions (§5.5.2): the
        // first violating store kills the kernel.
        GpuConfig precise = cfg;
        precise.precise_exceptions = true;
        GpuDevice dev(precise.mem.page_size);
        Driver driver(dev);
        workloads::PatternParams p;
        p.name = "oob";
        WorkloadInstance w;
        w.program = workloads::make_overflowing(p, 64);
        w.ntid = 128;
        w.nctaid = 2;
        w.buffers.push_back(driver.create_buffer(256 * 4));
        w.buffers.push_back(driver.create_buffer(256 * 4));
        expect_pinned(
            workloads::run_workload(precise, driver, w, true, false).result,
            {208, true, 1,
             {{"checks", 13},
              {"instructions", 51},
              {"loads", 8},
              {"rbt_refills", 4},
              {"stores", 5},
              {"transactions", 13},
              {"translation_faults", 1},
              {"violations", 1}}});
    }
}

TEST(Engine, DramStallFastForwardMatchesPerCycleEngine)
{
    // Crank DRAM into the multi-thousand-cycle range: under the old
    // per-cycle engine every one of those stall cycles was scanned;
    // the event-driven engine must jump them (cycles_skipped > 0)
    // without perturbing a single simulated stat. The per-cycle
    // reference comes from attaching the stall profiler, which forces
    // the classic visit-every-cycle engine but observes only.
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 2;
    cfg.mem.dram.row_hit_latency = 20000;
    cfg.mem.dram.row_miss_latency = 30000;

    const workloads::BenchmarkDef &def = cuda_benchmark("vectoradd");
    const auto run = [&](bool per_cycle) {
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev, {}, 0xD12A3ull);
        const workloads::WorkloadInstance inst = def.make(driver);
        obs::Profiler prof;
        return workloads::run_workload(cfg, driver, inst, /*shield=*/true,
                                       /*use_static=*/false, 0, 0,
                                       per_cycle ? &prof : nullptr);
    };

    const workloads::RunOutcome jumped = run(/*per_cycle=*/false);
    const workloads::RunOutcome scanned = run(/*per_cycle=*/true);

    EXPECT_GT(jumped.cycles_skipped, 0u)
        << "long DRAM stalls were scanned cycle-by-cycle, not jumped";
    EXPECT_EQ(scanned.cycles_skipped, 0u)
        << "profiler-attached engine must visit every cycle";

    EXPECT_EQ(jumped.result.cycles(), scanned.result.cycles());
    EXPECT_EQ(jumped.result.aborted, scanned.result.aborted);
    EXPECT_EQ(jumped.result.violations.size(),
              scanned.result.violations.size());
    EXPECT_TRUE(jumped.result.stats == scanned.result.stats);
    EXPECT_TRUE(jumped.rcache == scanned.rcache);
    EXPECT_TRUE(jumped.bcu == scanned.bcu);
    EXPECT_TRUE(jumped.mem == scanned.mem);
}

TEST(Engine, HostProfilerObservesWithoutChangingResults)
{
    const workloads::BenchmarkDef &def = cuda_benchmark("vectoradd");
    struct Outcome
    {
        KernelResult result;
        std::uint64_t cycles_skipped = 0;
    };
    const auto run = [&](obs::HostEngineProfiler *prof) {
        const GpuConfig cfg = nvidia_config();
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev, {}, 0xABCDull);
        const workloads::WorkloadInstance inst = def.make(driver);
        Gpu gpu(cfg, driver);
        gpu.set_engine_profiler(prof);
        const std::size_t idx =
            gpu.launch(driver.launch(inst.make_config(true, false)));
        gpu.run();
        return Outcome{gpu.result(idx), gpu.cycles_skipped()};
    };

    obs::HostEngineProfiler prof;
    const Outcome observed = run(&prof);
    const Outcome plain = run(nullptr);

    EXPECT_EQ(observed.result.cycles(), plain.result.cycles());
    EXPECT_TRUE(observed.result.stats == plain.result.stats);
    EXPECT_EQ(observed.cycles_skipped, plain.cycles_skipped);

    EXPECT_GT(prof.ns(obs::HostEngineProfiler::Phase::Issue) +
                  prof.ns(obs::HostEngineProfiler::Phase::Events),
              0u);
}

} // namespace
} // namespace gpushield
