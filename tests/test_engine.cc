/**
 * @file
 * Event-driven engine tests.
 *
 * The engine (sim/gpu.cc) makes two promises this file pins down:
 * (1) clock jumps are *invisible* — every simulated result is
 * byte-identical to stepping every cycle with Gpu::step() — and (2) the
 * jumps actually happen (long DRAM stalls are fast-forwarded, not
 * scanned). Coverage:
 *
 *   - golden smoke grid byte-identical against tests/golden/smoke.jsonl
 *   - end cycle + kernel counters of the memory effects the golden grid
 *     never exercises: device mallocs, a translation-fault abort, and a
 *     precise-exception abort
 *   - DRAM-stall fast-forward regression: run() skips cycles but
 *     matches the stepped engine on every simulated stat (the stall
 *     profiler's side of that promise is in test_attribution.cc)
 *   - host-side engine profiler observes without changing results
 *   - the exact issue sequence (core, kernel, warp, workgroup, pc) of
 *     the smoke cells, a barrier kernel and the abort paths, which the
 *     goldens' aggregate counters cannot see, and, with the cycles the
 *     engine jumped, of the cases around the scheduler's 64-cycle
 *     readiness wheel: warps due beyond it, zero ALU latency, and clock
 *     jumps longer than it
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "harness/executor.h"
#include "harness/suites.h"
#include "harness/sweep.h"
#include "isa/builder.h"
#include "obs/engine_profile.h"
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

/** Every thread device-mallocs 32 B, writes its gid through the heap
 *  pointer, and reads it back (footnote 2's contention). */
workloads::WorkloadInstance
heap_instance(Driver &driver)
{
    workloads::PatternParams p;
    p.name = "heap";
    workloads::WorkloadInstance w;
    w.program = workloads::make_heap(p);
    w.ntid = 64;
    w.nctaid = 2;
    w.buffers.push_back(driver.create_buffer(128 * 4));
    w.scalars.assign(w.program.args.size(), 0);
    w.scalar_static.assign(w.program.args.size(), false);
    w.scalars.back() = 32;
    w.heap_bytes = 1 << 20;
    return w;
}

/** Fig. 4 case 3 in every thread of four workgroups: A[0x80000] lies
 *  2 MB past A, in an unmapped page, so an unshielded store faults
 *  and the kernel aborts. */
workloads::WorkloadInstance
crossing_instance(Driver &driver)
{
    KernelBuilder b("crossing");
    const int a = b.arg_ptr("A");
    const int addr = b.gep(b.ldarg(a), b.mov_imm(0x80000), 4);
    b.st(addr, b.mov_imm(0xBAD), 4);
    b.exit();
    workloads::WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 64;
    w.nctaid = 4;
    w.buffers.push_back(driver.create_buffer(64));
    w.buffers.push_back(driver.create_buffer(64));
    return w;
}

/** Out-of-bounds stores; under precise exceptions (§5.5.2) the first
 *  violating store kills the kernel. */
workloads::WorkloadInstance
overflow_instance(Driver &driver)
{
    workloads::PatternParams p;
    p.name = "oob";
    workloads::WorkloadInstance w;
    w.program = workloads::make_overflowing(p, 64);
    w.ntid = 128;
    w.nctaid = 2;
    w.buffers.push_back(driver.create_buffer(256 * 4));
    w.buffers.push_back(driver.create_buffer(256 * 4));
    return w;
}

GpuConfig
precise_config()
{
    GpuConfig cfg = nvidia_config();
    cfg.precise_exceptions = true;
    return cfg;
}

TEST(Engine, MemoryEffectsOutsideGoldenArePinned)
{
    // Device mallocs, translation faults and precise exceptions apply
    // their effects inside the issuing core's tick; no smoke/fig cell
    // reaches them, so these values are the record of that path.
    const GpuConfig cfg = nvidia_config();

    {
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev);
        const workloads::WorkloadInstance w = heap_instance(driver);
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
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev);
        const workloads::WorkloadInstance w = crossing_instance(driver);
        expect_pinned(
            workloads::run_workload(cfg, driver, w, false, false).result,
            {4, true, 0,
             {{"instructions", 40},
              {"stores", 4},
              {"transactions", 4},
              {"translation_faults", 4}}});
    }
    {
        const GpuConfig precise = precise_config();
        GpuDevice dev(precise.mem.page_size);
        Driver driver(dev);
        const workloads::WorkloadInstance w = overflow_instance(driver);
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
    // Crank DRAM into the multi-thousand-cycle range: stepping the
    // engine with Gpu::step() visits every one of those stall cycles;
    // run() must jump them (cycles_skipped > 0) without perturbing a
    // single simulated stat.
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 2;
    cfg.mem.dram.row_hit_latency = 20000;
    cfg.mem.dram.row_miss_latency = 30000;

    const workloads::BenchmarkDef &def = cuda_benchmark("vectoradd");
    const auto run = [&](bool per_cycle) {
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev, {}, 0xD12A3ull);
        const workloads::WorkloadInstance inst = def.make(driver);
        Gpu gpu(cfg, driver);
        const std::size_t idx = gpu.launch(
            driver.launch(inst.make_config(/*shield=*/true,
                                           /*use_static=*/false)));
        if (per_cycle)
            while (!gpu.done())
                gpu.step();
        else
            gpu.run();
        workloads::RunOutcome out;
        out.result = gpu.result(idx);
        out.canaries = driver.finish(gpu.launch_state(idx));
        out.rcache = gpu.rcache_stats();
        out.bcu = gpu.bcu_stats();
        out.mem = workloads::collect_mem_stats(gpu);
        out.cycles_skipped = gpu.cycles_skipped();
        return out;
    };

    const workloads::RunOutcome jumped = run(/*per_cycle=*/false);
    const workloads::RunOutcome scanned = run(/*per_cycle=*/true);

    EXPECT_GT(jumped.cycles_skipped, 0u)
        << "long DRAM stalls were scanned cycle-by-cycle, not jumped";
    EXPECT_EQ(scanned.cycles_skipped, 0u)
        << "a stepped engine must visit every cycle";

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

/** Folds (core, kernel id, warp id, workgroup index, pc) of every
 *  issued instruction into an FNV-1a hash: the exact issue sequence. */
class IssueOrder : public LaneObserver
{
  public:
    void
    on_step(CoreId core, KernelId kernel, const WarpState &warp,
            const Instr &) override
    {
        for (const auto v : {static_cast<std::uint64_t>(core),
                             static_cast<std::uint64_t>(kernel),
                             static_cast<std::uint64_t>(warp.id),
                             static_cast<std::uint64_t>(warp.wg_index()),
                             static_cast<std::uint64_t>(warp.pc)}) {
            for (unsigned byte = 0; byte < 8; ++byte) {
                hash ^= (v >> (8 * byte)) & 0xFF;
                hash *= 0x100000001B3ull;
            }
        }
        ++steps;
    }

    std::uint64_t steps = 0;
    std::uint64_t hash = 0xCBF29CE484222325ull;
};

/** The issue order of smoke cell @p cell, launched the way the sweep
 *  executor launches it. */
IssueOrder
smoke_cell_order(const harness::SweepSpec &spec,
                 const harness::CellSpec &cell)
{
    const GpuConfig &cfg = spec.config(cell.config);
    GpuDevice dev(cfg.mem.page_size);
    Driver driver(dev, {}, harness::cell_seed(spec, cell));
    driver.set_shield_backend(cfg.shield.backend);
    IssueOrder order;
    Gpu gpu(cfg, driver);
    gpu.set_lane_observer(&order);
    const auto config = [&](const workloads::WorkloadInstance &w) {
        return w.make_config(cell.shield, cell.use_static);
    };
    const workloads::WorkloadInstance a =
        workloads::find_benchmark(cell.workload, cell.set)->make(driver);
    if (!cell.workload_b.empty()) {
        const workloads::WorkloadInstance b =
            workloads::find_benchmark(cell.workload_b, cell.set)
                ->make(driver);
        const std::uint64_t all = (std::uint64_t{1} << cfg.num_cores) - 1;
        const std::uint64_t lower =
            (std::uint64_t{1} << (cfg.num_cores / 2)) - 1;
        const bool split = cell.placement == harness::Placement::kSplit;
        gpu.launch(driver.launch(config(a)), split ? lower : all);
        gpu.launch(driver.launch(config(b)), split ? all & ~lower : all);
        gpu.run();
        return order;
    }
    for (unsigned n = 0; n < cell.launches; ++n) {
        const std::size_t idx = gpu.launch(driver.launch(config(a)));
        gpu.run();
        driver.finish(gpu.launch_state(idx));
    }
    return order;
}

/** The issue order of the instance @p make builds, run alone on @p cfg,
 *  and the run's outcome. */
std::pair<IssueOrder, workloads::RunOutcome>
kernel_run(const GpuConfig &cfg,
           workloads::WorkloadInstance (*make)(Driver &), bool shield)
{
    GpuDevice dev(cfg.mem.page_size);
    Driver driver(dev);
    const workloads::WorkloadInstance w = make(driver);
    IssueOrder order;
    workloads::RunOutcome outcome = workloads::run_workload(
        cfg, driver, w, shield, false, nullptr, &order);
    return {order, std::move(outcome)};
}

/** The issue order of the instance @p make builds, run alone on @p cfg. */
IssueOrder
kernel_order(const GpuConfig &cfg,
             workloads::WorkloadInstance (*make)(Driver &), bool shield)
{
    return kernel_run(cfg, make, shield).first;
}

/** heap_instance with 1024 threads in four workgroups (its own buffer
 *  stays allocated, unused): each warp's 32 mallocs serialize for 192
 *  cycles, so most warps wait far beyond the scheduler's 64-cycle
 *  readiness wheel. */
workloads::WorkloadInstance
wide_heap_instance(Driver &driver)
{
    workloads::WorkloadInstance w = heap_instance(driver);
    w.ntid = 256;
    w.nctaid = 4;
    w.buffers = {driver.create_buffer(1024 * 4)};
    return w;
}

workloads::WorkloadInstance
vectoradd_instance(Driver &driver)
{
    return cuda_benchmark("vectoradd").make(driver);
}

/** Three warps per workgroup load, diverge (odd threads loop), meet
 *  at a barrier and exchange values through shared memory. */
workloads::WorkloadInstance
barrier_instance(Driver &driver)
{
    KernelBuilder b("barrier");
    const int in = b.arg_ptr("in");
    const int out = b.arg_ptr("out");
    b.shared_mem(96 * 4);
    const int tid = b.sreg(SpecialReg::TidX);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int v = b.ld(b.gep(b.ldarg(in), gid, 4), 4);
    const int odd = b.setpi(Cmp::Ne, b.alui(Op::And, tid, 1), 0);
    b.if_then(odd, false, [&] {
        b.loop_n(3, [&](int i) { b.mov(v, b.alu(Op::Add, v, i)); });
    });
    b.sts(b.alui(Op::Mul, tid, 4), v, 4);
    b.bar();
    const int peer = b.alui(Op::Rem, b.alui(Op::Add, tid, 33), 96);
    const int got = b.lds(b.alui(Op::Mul, peer, 4), 4);
    b.st(b.gep(b.ldarg(out), gid, 4), got, 4);
    b.exit();
    workloads::WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 96;
    w.nctaid = 6;
    w.buffers.push_back(driver.create_buffer(96 * 6 * 4));
    w.buffers.push_back(driver.create_buffer(96 * 6 * 4));
    return w;
}

void
expect_order(const IssueOrder &got, std::uint64_t steps,
             std::uint64_t hash)
{
    EXPECT_EQ(got.steps, steps);
    EXPECT_EQ(got.hash, hash) << "got 0x" << std::hex << got.hash;
}

TEST(Engine, SmokeIssueOrderIsPinned)
{
    // (steps, hash) per smoke cell, in cell order, captured before the
    // scheduler kept per-slot ready masks. The warp scan must issue in
    // exactly this order: greedy warp, then slot, then warp.
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
        {7680, 0xd02a30a0753e5b65ull},  // vectoradd/base
        {7680, 0x5b0b40dcb2bdb665ull},  // vectoradd/shield
        {22528, 0xb7b70f4bd618b0c5ull}, // ConvSep/base
        {22528, 0x6c35403dd999a805ull}, // ConvSep/shield
        {7680, 0xd02a30a0753e5b65ull},  // vectoradd/shield+static
        {23040, 0x9e3a6af8947d6b05ull}, // vectoradd/shield/x3
        {30208, 0x9d7c6ea94ffd4f85ull}, // vectoradd+ConvSep@split
        {30208, 0x122845e1d0d70325ull}, // vectoradd+ConvSep@shared
    };
    const harness::SweepSpec spec = harness::smoke_suite();
    ASSERT_EQ(spec.cells.size(), want.size());
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        SCOPED_TRACE(harness::cell_key(spec, spec.cells[i]));
        expect_order(smoke_cell_order(spec, spec.cells[i]), want[i].first,
                     want[i].second);
    }
}

TEST(Engine, BarrierAndAbortIssueOrderIsPinned)
{
    GpuConfig two_cores = nvidia_config();
    two_cores.num_cores = 2;
    // Captured like the smoke pins above.
    expect_order(kernel_order(two_cores, &barrier_instance, true), 756,
                 0xbf27e7b30b8edea5ull);
    expect_order(kernel_order(nvidia_config(), &heap_instance, true), 44,
                 0x2d75873b09747325ull);
    expect_order(kernel_order(nvidia_config(), &crossing_instance, false),
                 40, 0xf65dbd0a87fce4a5ull);
    expect_order(kernel_order(precise_config(), &overflow_instance, true),
                 51, 0xe452ade0f59beb20ull);
}

TEST(Engine, ReadinessWheelIssueOrderIsPinned)
{
    // (steps, hash, end cycle, cycles jumped) per run, captured before
    // the scheduler filed warps in a 64-cycle readiness wheel.
    struct Want
    {
        std::uint64_t steps;
        std::uint64_t hash;
        Cycle cycles;
        std::uint64_t skipped;
    };
    const auto expect_run = [](const std::pair<IssueOrder,
                                               workloads::RunOutcome> &got,
                               const Want &want) {
        expect_order(got.first, want.steps, want.hash);
        EXPECT_EQ(got.second.result.cycles(), want.cycles);
        EXPECT_EQ(got.second.cycles_skipped, want.skipped);
        EXPECT_FALSE(got.second.result.aborted);
    };

    // Device mallocs: warps due beyond the wheel, in the far list.
    GpuConfig two_cores = nvidia_config();
    two_cores.num_cores = 2;
    {
        SCOPED_TRACE("wide heap");
        expect_run(kernel_run(two_cores, &wide_heap_instance, true),
                   {352, 0x42a31e6c16679b25ull, 6165, 5449});
    }
    // Zero ALU latency: a warp stays eligible after an ALU op and may
    // issue again in the same tick.
    GpuConfig no_alu_latency = two_cores;
    no_alu_latency.alu_latency = 0;
    {
        SCOPED_TRACE("alu_latency 0, barrier");
        expect_run(kernel_run(no_alu_latency, &barrier_instance, true),
                   {756, 0x2283d5b976192545ull, 476, 235});
    }
    {
        SCOPED_TRACE("alu_latency 0, vectoradd");
        expect_run(kernel_run(no_alu_latency, &vectoradd_instance, true),
                   {7680, 0x7c31cca8c5f2f965ull, 9791, 6778});
    }
    // Slow DRAM rows: the engine jumps the clock by more than the
    // wheel's span while every warp waits on a load.
    GpuConfig slow_dram = two_cores;
    slow_dram.mem.dram.row_hit_latency = 300;
    slow_dram.mem.dram.row_miss_latency = 450;
    {
        SCOPED_TRACE("slow DRAM");
        expect_run(kernel_run(slow_dram, &vectoradd_instance, true),
                   {7680, 0x0513e5b15cf06bc5ull, 42344, 38406});
    }
}

} // namespace
} // namespace gpushield
