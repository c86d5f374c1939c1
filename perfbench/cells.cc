#include "cells.h"

#include <bit>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/rng.h"
#include "compiler/check_opt.h"
#include "compiler/static_analysis.h"
#include "obs/profiler.h"
#include "sim/gpu.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace perfbench {

using namespace gpushield;
using harness::CellSpec;
using harness::Placement;
using harness::SweepSpec;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The CUDA benchmarks whose fig14 cells record zero hier.dram_retries
// (65 of 88, measured once and frozen here so a model change cannot
// silently move a benchmark between workloads).
const std::vector<std::string> kAffine = {
    "mm", "ConvSep", "kmeans", "backprop", "sad", "stencil", "ScalarProd",
    "vectoradd", "dct", "Reduction", "gaussian", "nn", "nn-256k-1", "cutcp",
    "tpacf", "blacksholes", "mersennetwister", "sorting", "MergeSort",
    "mri-q", "SobolQRNG", "DwtHarr", "hotspot", "lud-64", "lud-256",
    "LineOfSight", "Dxtc", "Histogram", "HSOpticalFlow", "dwt2d", "srad",
    "myocyte", "particlefilter", "hybridsort", "cfd", "hotspot3D",
    "pathfinder", "lbm", "histo", "mri-gridding", "transpose", "MonteCarlo",
    "cell", "scan", "radixsort", "lud-16", "nn-64k", "kmeans-fuzzy",
    "srad-v2", "backprop-l2", "sgemm", "leukocyte", "huffman", "srad-v1",
    "FDTD3d", "binomialOptions", "SobelFilter", "recursiveGaussian",
    "eigenvalues", "convolutionTexture", "volumeRender", "bilateralFilter",
    "matrixMul", "fastWalshTransform", "streamcluster"};

// Graph CUDA benchmarks whose DRAM queue refuses requests (about 1,000
// to 1,900 retries per DRAM request, so the event queue dominates host
// time). The heavier members of that class (pagerank, bc: ~5,000
// retries per request, several seconds per cell) are left out so that
// several passes fit in one run.
const std::vector<std::string> kGraph = {"bfs-parboil", "cc-dtc", "kcore"};

// Fig. 18 co-scheduled OpenCL pairs (Intel config).
const std::vector<std::pair<std::string, std::string>> kPairs = {
    {"bfs", "cfd"},         {"bfs", "kmeans"},
    {"cfd", "hotspot3D"},   {"cfd", "kmeans"},
    {"hotspot3D", "nn"},    {"hybridsort", "kmeans"},
    {"kmeans", "streamcluster"}, {"nn", "streamcluster"}};

// Back-to-back launches on one GPU: per-launch register, deregister
// and RCache flush.
const std::vector<std::string> kMultiLaunch = {"kmeans", "hotspot3D"};
constexpr unsigned kLaunches = 3;

template <typename T>
std::vector<T>
head(const std::vector<T> &v, bool reduced, std::size_t n)
{
    if (!reduced || v.size() <= n)
        return v;
    return {v.begin(), v.begin() + static_cast<long>(n)};
}

SweepSpec
affine_mix(bool reduced)
{
    SweepSpec spec;
    spec.name = "affine_mix";
    spec.add_config("nv", nvidia_config());
    for (const std::string &w : head(kAffine, reduced, 3)) {
        CellSpec cell;
        cell.workload = w;
        cell.config = "nv";
        spec.cells.push_back(cell); // base
        cell.shield = true;
        spec.cells.push_back(cell); // shield
        cell.use_static = true;
        spec.cells.push_back(cell); // shield + static
        cell.use_static = false;
        cell.check_opt = true;
        spec.cells.push_back(cell); // shield + check-opt
    }
    return spec;
}

SweepSpec
graph_dram_bound(bool reduced)
{
    SweepSpec spec;
    spec.name = "graph_dram_bound";
    spec.add_config("nv", nvidia_config());
    spec.add_grid("cuda", head(kGraph, reduced, 1), {"nv"}, {false, true});
    return spec;
}

SweepSpec
multikernel_intel(bool reduced)
{
    SweepSpec spec;
    spec.name = "multikernel_intel";
    spec.add_config("intel", intel_config());
    for (const auto &[a, b] : head(kPairs, reduced, 1)) {
        for (const Placement p : {Placement::kSplit, Placement::kShared}) {
            for (const bool shield : {false, true}) {
                CellSpec cell;
                cell.set = "opencl";
                cell.workload = a;
                cell.workload_b = b;
                cell.placement = p;
                cell.config = "intel";
                cell.shield = shield;
                spec.cells.push_back(cell);
            }
        }
    }
    spec.add_grid("opencl", head(kMultiLaunch, reduced, 1), {"intel"},
                  {false, true}, /*use_static=*/false, kLaunches);
    return spec;
}

const workloads::BenchmarkDef &
find_def(const std::string &set, const std::string &name)
{
    const std::vector<workloads::BenchmarkDef> &defs =
        set == "opencl" ? workloads::opencl_benchmarks()
                        : workloads::cuda_benchmarks();
    for (const workloads::BenchmarkDef &d : defs)
        if (d.name == name)
            return d;
    throw SimulationError("perfbench: no benchmark " + name + " in " + set);
}

/** Core masks of a two-kernel cell, as the sweep executor splits them. */
std::pair<std::uint64_t, std::uint64_t>
placement_masks(Placement placement, unsigned num_cores)
{
    const std::uint64_t all =
        num_cores >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << num_cores) - 1;
    if (placement != Placement::kSplit)
        return {all, all};
    const std::uint64_t lower = (std::uint64_t{1} << (num_cores / 2)) - 1;
    return {lower, all & ~lower};
}

/** The launch facts Driver::launch hands the static pass, rebuilt from
 *  public driver state. Only the power-of-two flag is approximate: the
 *  driver keeps it private, and a window aligned to its own power-of-two
 *  reservation stands in for it. This input only feeds the outside
 *  timing of the compiler passes; the counts come from the driver. */
StaticLaunchInfo
launch_info(const Driver &driver, const LaunchConfig &cfg)
{
    const KernelProgram &prog = *cfg.program;
    StaticLaunchInfo info;
    info.ntid = cfg.ntid;
    info.nctaid = cfg.nctaid;
    info.arg_buffer_sizes.assign(prog.args.size(), 0);
    info.arg_buffer_pow2.assign(prog.args.size(), false);
    info.arg_buffer_readonly.assign(prog.args.size(), false);
    info.scalar_values.assign(prog.args.size(), std::nullopt);
    for (std::size_t a = 0; a < prog.args.size(); ++a) {
        const KernelArgSpec &spec = prog.args[a];
        if (spec.is_pointer) {
            const VaRegion &r =
                driver.region(cfg.buffers.at(spec.buffer_index));
            info.arg_buffer_sizes[a] = r.size;
            info.arg_buffer_pow2[a] =
                std::has_single_bit(r.reserved) && r.base % r.reserved == 0;
            info.arg_buffer_readonly[a] = r.read_only;
        } else if (a < cfg.scalar_static.size() && cfg.scalar_static[a] &&
                   a < cfg.scalars.size()) {
            info.scalar_values[a] = cfg.scalars[a];
        }
    }
    return info;
}

/** Times the compiler passes from outside on the work Driver::launch
 *  does for @p cfg: analyze_kernel on every launch, optimize_checks
 *  only when the launch asks for it. */
void
time_compiler(const Driver &driver, const LaunchConfig &cfg, int id,
              Tracer *tracer)
{
    BoundsAnalysisTable bat;
    {
        SpanScope s(tracer, "compiler.analyze", id);
        bat = analyze_kernel(*cfg.program, launch_info(driver, cfg));
    }
    if (cfg.shield_enabled && cfg.optimize_checks) {
        SpanScope s(tracer, "compiler.check_opt", id);
        optimize_checks(bat, *cfg.program);
    }
}

/** State shared by the set-up and run halves of one cell. */
struct CellRun
{
    const CellSpec &cell;
    const GpuConfig &cfg;
    const Hooks &hooks;
    int id;
    CellResult &out;
    /** Set once Gpu::run has been called: set-up ends there, so the
     *  later launches of a multi-launch cell do not count as set-up. */
    bool simulated = false;

    void
    add_setup(Clock::time_point since)
    {
        out.setup_s += seconds_since(since);
    }

    /** Driver::launch + Gpu::launch. The compiler counts are read off
     *  the LaunchState the driver built. */
    std::size_t
    launch(Gpu &gpu, Driver &driver, const workloads::WorkloadInstance &w,
           std::uint64_t mask)
    {
        const LaunchConfig lc = w.make_config(cell.shield, cell.use_static);
        if (hooks.compiler)
            time_compiler(driver, lc, id, hooks.tracer);
        const Clock::time_point t = Clock::now();
        std::size_t idx = 0;
        {
            SpanScope s(simulated ? nullptr : hooks.tracer, "setup", id);
            LaunchState state;
            {
                SpanScope l(hooks.tracer, "driver.launch", id);
                state = driver.launch(lc);
            }
            out.compiler.rows += state.bat.entries.size();
            for (const BatEntry &e : state.bat.entries)
                if (e.verdict == Verdict::InBounds)
                    ++out.compiler.static_safe;
            const CheckOptStats &opt = state.check_opt_stats;
            out.compiler.covered += opt.hoisted + opt.widened + opt.elided;
            idx = gpu.launch(std::move(state), mask);
        }
        if (!simulated)
            add_setup(t);
        return idx;
    }

    void
    simulate(Gpu &gpu)
    {
        simulated = true;
        SpanScope s(hooks.tracer, "sim.run", id);
        gpu.run();
    }

    void
    finish(Gpu &gpu, Driver &driver, std::size_t idx)
    {
        const KernelResult res = gpu.result(idx);
        out.record.violations += res.violations.size();
        out.record.aborted |= res.aborted;
        out.record.kernel.merge(res.stats);
        SpanScope s(hooks.tracer, "driver.finish", id);
        const std::vector<CanaryReport> canaries =
            driver.finish(gpu.launch_state(idx));
        out.record.kernel.add("canary_reports", canaries.size());
    }

    std::unique_ptr<Gpu>
    make_gpu(Driver &driver, obs::Profiler *prof)
    {
        const Clock::time_point t = Clock::now();
        std::unique_ptr<Gpu> gpu;
        {
            SpanScope s(hooks.tracer, "setup", id);
            SpanScope g(hooks.tracer, "gpu.construct", id);
            gpu = std::make_unique<Gpu>(cfg, driver);
        }
        if (prof != nullptr)
            gpu->set_profiler(prof);
        if (hooks.engine != nullptr)
            gpu->set_engine_profiler(hooks.engine);
        add_setup(t);
        return gpu;
    }

    workloads::WorkloadInstance
    make(Driver &driver, const std::string &name)
    {
        const Clock::time_point t = Clock::now();
        workloads::WorkloadInstance w;
        {
            SpanScope s(hooks.tracer, "setup", id);
            SpanScope m(hooks.tracer, "workloads.make", id);
            w = find_def(cell.set, name).make(driver);
        }
        w.optimize_checks = cell.shield && cell.check_opt;
        add_setup(t);
        return w;
    }

    /** Runs the cell as the sweep executor does; returns false when
     *  Hooks::setup_only stopped it before the simulation. */
    bool
    simulate_cell(Driver &driver, obs::Profiler *prof)
    {
        if (!cell.workload_b.empty()) {
            // Two kernels co-scheduled on one GPU; cycles = makespan.
            const workloads::WorkloadInstance wa = make(driver, cell.workload);
            const workloads::WorkloadInstance wb =
                make(driver, cell.workload_b);
            const auto [mask_a, mask_b] =
                placement_masks(cell.placement, cfg.num_cores);
            std::unique_ptr<Gpu> gpu = make_gpu(driver, prof);
            const std::size_t ia = launch(*gpu, driver, wa, mask_a);
            const std::size_t ib = launch(*gpu, driver, wb, mask_b);
            if (hooks.setup_only)
                return false;
            simulate(*gpu);
            finish(*gpu, driver, ia);
            finish(*gpu, driver, ib);
            out.record.cycles = gpu->now();
            collect(*gpu);
            return true;
        }
        // Back-to-back launches on one GPU, cycles summed, as
        // workloads::run_workload_n does; the kernel stats it drops are
        // kept here, since sim_kips needs the instruction count.
        const workloads::WorkloadInstance w = make(driver, cell.workload);
        std::unique_ptr<Gpu> gpu = make_gpu(driver, prof);
        for (unsigned i = 0; i < cell.launches; ++i) {
            const std::size_t idx = launch(*gpu, driver, w, ~0ull);
            if (hooks.setup_only)
                return false;
            simulate(*gpu);
            out.record.cycles += gpu->result(idx).cycles();
            finish(*gpu, driver, idx);
        }
        collect(*gpu);
        return true;
    }

    void
    collect(Gpu &gpu)
    {
        out.record.rcache = gpu.rcache_stats();
        out.record.bcu = gpu.bcu_stats();
        out.record.mem = workloads::collect_mem_stats(gpu);
        out.record.l1_rcache_hit_rate = gpu.rcache_l1_hit_rate();
        out.record.cycles_skipped = gpu.cycles_skipped();
    }

    void
    run(Driver &driver)
    {
        obs::Profiler profiler;
        obs::Profiler *prof = hooks.profile ? &profiler : nullptr;
        if (!simulate_cell(driver, prof))
            return;
        if (prof != nullptr)
            out.record.obs = profiler.summary().to_statset();
        out.warp_insts = out.record.kernel.get("instructions");
        out.driver = driver.stats();
    }
};

} // namespace

SweepSpec
make_workload(const std::string &name, bool reduced)
{
    if (name == "affine_mix")
        return affine_mix(reduced);
    if (name == "graph_dram_bound")
        return graph_dram_bound(reduced);
    if (name == "multikernel_intel")
        return multikernel_intel(reduced);
    throw std::invalid_argument("unknown workload " + name);
}

Tracer::Tracer()
    : origin_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now().time_since_epoch())
                     .count())
{
}

double
Tracer::now() const
{
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count();
    return static_cast<double>(ns - origin_ns_) * 1e-9;
}

int
Tracer::begin(const char *name, int cell)
{
    Span s;
    s.name = name;
    s.cell = cell;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    // SpanScope closes spans in LIFO order, so id is the innermost one.
    spans_[static_cast<std::size_t>(id)].end = now();
    open_.pop_back();
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

std::string
pair_key(const SweepSpec &spec, std::size_t index)
{
    CellSpec base = spec.cells.at(index);
    base.shield = false;
    base.use_static = false;
    base.check_opt = false;
    return harness::cell_key(spec, base);
}

CellResult
run_cell(const SweepSpec &spec, std::size_t index, std::uint64_t seed,
         const Hooks &hooks)
{
    const CellSpec &cell = spec.cells.at(index);
    const int id = static_cast<int>(index);
    CellResult out;
    harness::RunRecord &r = out.record;
    r.key = harness::cell_key(spec, cell);
    r.suite = spec.name;
    r.set = cell.set;
    r.workload = cell.workload;
    r.workload_b = cell.workload_b;
    r.config = cell.config;
    r.placement = harness::to_string(cell.placement);
    r.shield = cell.shield;
    r.use_static = cell.use_static;
    r.launches = cell.launches;
    // Base and shield cells share the cell seed (and so the buffer
    // layout); the run seed perturbs every cell alike.
    std::uint64_t mix = seed;
    r.seed = harness::cell_seed(spec, cell) ^ splitmix64(mix);

    SpanScope cell_span(hooks.tracer, "cell", id);
    const Clock::time_point t0 = Clock::now();
    try {
        const GpuConfig &cfg = spec.config(cell.config);
        std::optional<GpuDevice> dev;
        std::optional<Driver> driver;
        {
            SpanScope s(hooks.tracer, "setup", id);
            SpanScope d(hooks.tracer, "driver.construct", id);
            dev.emplace(cfg.mem.page_size);
            driver.emplace(*dev, DriverPartition{}, r.seed);
            driver->set_shield_backend(cfg.shield.backend);
        }
        out.setup_s += seconds_since(t0);
        CellRun run{cell, cfg, hooks, id, out};
        run.run(*driver);
        r.ok = true;
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    out.wall_s = seconds_since(t0);
    return out;
}

} // namespace perfbench
