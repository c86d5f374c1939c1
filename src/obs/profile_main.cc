/**
 * @file
 * gpushield-profile: stall-attribution profiling CLI (docs/PROFILING.md).
 *
 * Single-benchmark mode — profile one named benchmark and export a
 * Chrome trace (load it in https://ui.perfetto.dev):
 *
 *   gpushield-profile --benchmark hotspot --out hotspot.json --summary
 *
 * Suite mode — profile every single-kernel cell of a sweep suite and
 * write one trace per cell (the CI profile-smoke stage):
 *
 *   gpushield-profile --suite smoke --out-dir build/profile-smoke --check
 *
 * --check re-parses every emitted trace (common/json.h), validates its
 * structure (obs/trace_json.h) and verifies the attribution invariant:
 * each warp's cause cycles sum to its workgroup's residency.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/gpushield_api.h"
#include "common/decimal.h"
#include "harness/suites.h"
#include "obs/profiler.h"
#include "obs/trace_json.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace {

using namespace gpushield;

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --benchmark NAME [options]\n"
        "       %s --suite NAME --out-dir DIR [--check]\n"
        "single-benchmark mode:\n"
        "  --benchmark NAME  benchmark to profile\n"
        "  --set NAME        benchmark set: cuda | opencl | fig19\n"
        "                    (default: search all sets)\n"
        "  --config NAME     machine config: nvidia | intel\n"
        "  --no-shield       run the unprotected baseline\n"
        "  --static          enable static-analysis check elision\n"
        "  --launches N      back-to-back launches (default 1)\n"
        "  --interval N      occupancy/IPC sampling period (default 64)\n"
        "  --out PATH        Chrome trace output ('-' = stdout)\n"
        "  --summary         print the stall-cause breakdown and the\n"
        "                    kernel counters of all launches\n"
        "suite mode:\n"
        "  --suite NAME      sweep suite (see gpushield-sweep --list)\n"
        "  --out-dir DIR     one trace file per single-kernel cell\n"
        "  --check           validate every emitted trace; exit 1 on\n"
        "                    malformed JSON or broken attribution\n",
        argv0, argv0);
    return 2;
}

void
print_summary(const obs::ProfileSummary &s, const StatSet &kernel)
{
    std::printf("profiled %llu cycles, %llu warp-cycles\n",
                static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(s.warp_cycles));
    for (std::size_t c = 0; c < obs::kNumStallCauses; ++c) {
        if (s.cause_cycles[c] == 0)
            continue;
        std::printf("  %-18s %6.2f%%  (%llu)\n",
                    obs::to_string(static_cast<obs::StallCause>(c)),
                    100.0 * s.fraction(static_cast<obs::StallCause>(c)),
                    static_cast<unsigned long long>(s.cause_cycles[c]));
    }
    if (!kernel.counters().empty()) {
        std::printf("kernel counters:\n");
        for (const auto &[name, value] : kernel.counters())
            std::printf("  %-26s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
    }
}

/**
 * Checks what the trace alone cannot express: per warp, the recorded
 * cause cycles sum exactly to the workgroup's residency.
 */
bool
check_attribution(const obs::Profiler &prof, std::string *error)
{
    for (const obs::WorkgroupSpan &wg : prof.workgroups()) {
        if (wg.open)
            continue;
        const Cycle resident = wg.end - wg.start;
        for (std::size_t w = 0; w < wg.warps.size(); ++w) {
            if (wg.warps[w].total() == resident)
                continue;
            std::ostringstream os;
            os << "core " << wg.core << " wg " << wg.wg_index << " warp "
               << w << ": attributed " << wg.warps[w].total()
               << " cycles, resident " << resident;
            *error = os.str();
            return false;
        }
    }
    return true;
}

bool
check_trace_file(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return obs::validate_trace(parse_json(buf.str()), error);
    } catch (const SimulationError &e) {
        *error = e.what();
        return false;
    }
}

std::string
sanitize(const std::string &key)
{
    std::string out = key;
    for (char &c : out)
        if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' &&
            c != '-' && c != '_')
            c = '_';
    return out;
}

int
run_single(const std::string &bench, const std::string &set,
           const std::string &config, bool shield, bool use_static,
           unsigned launches, Cycle interval, const std::string &out_path,
           bool summary)
{
    const workloads::BenchmarkDef *def =
        workloads::find_benchmark(bench, set);
    if (def == nullptr) {
        std::fprintf(stderr, "gpushield-profile: unknown benchmark %s\n",
                     bench.c_str());
        return 2;
    }
    if (config != "nvidia" && config != "intel") {
        std::fprintf(stderr, "gpushield-profile: unknown config %s\n",
                     config.c_str());
        return 2;
    }

    api::Context ctx(config == "intel" ? intel_config() : nvidia_config());
    const workloads::WorkloadInstance inst = def->make(ctx.driver());

    // WorkloadInstance stores buffers by buffer_index and scalars by arg
    // position; rebuild the positional Arg list the api expects.
    std::vector<api::Arg> args;
    for (std::size_t i = 0; i < inst.program.args.size(); ++i) {
        const KernelArgSpec &spec = inst.program.args[i];
        if (spec.is_pointer)
            args.push_back(api::arg(inst.buffers.at(
                static_cast<std::size_t>(spec.buffer_index))));
        else
            args.push_back(api::arg(inst.scalars.at(i),
                                    inst.scalar_static.at(i)
                                        ? api::Static::yes
                                        : api::Static::no));
    }

    api::LaunchOptions opts;
    opts.shield = shield;
    opts.static_analysis = use_static;
    opts.replace_sw_checks = inst.replace_sw_checks;
    opts.heap_bytes = inst.heap_bytes;
    obs::Profiler prof(interval);
    ctx.attach_profiler(&prof);

    api::LaunchResult last;
    StatSet kernel_stats; // every launch's counters, merged
    for (unsigned i = 0; i < launches; ++i) {
        last = ctx.launch(inst.program, {inst.ntid, inst.nctaid}, args, opts);
        kernel_stats.merge(last.stats);
        if (!last.ok())
            std::fprintf(stderr, "gpushield-profile: launch %u: %s (%s)\n",
                         i, api::to_string(last.status),
                         last.status_message.c_str());
    }

    if (out_path == "-") {
        prof.write_chrome_trace(std::cout);
    } else {
        std::ofstream out(out_path);
        if (!out.is_open()) {
            std::fprintf(stderr, "gpushield-profile: cannot open %s\n",
                         out_path.c_str());
            return 2;
        }
        prof.write_chrome_trace(out);
        std::fprintf(stderr, "gpushield-profile: wrote %s\n",
                     out_path.c_str());
    }
    if (summary)
        print_summary(prof.summary(), kernel_stats);
    return last.ok() ? 0 : 1;
}

int
run_suite(const std::string &suite_name, const std::string &out_dir,
          bool check)
{
    const harness::SuiteDef *suite = harness::find_suite(suite_name);
    if (suite == nullptr) {
        std::fprintf(stderr,
                     "gpushield-profile: unknown suite %s "
                     "(gpushield-sweep --list)\n",
                     suite_name.c_str());
        return 2;
    }
    std::filesystem::create_directories(out_dir);

    const harness::SweepSpec spec = suite->make();
    unsigned written = 0, skipped = 0, failed = 0;
    for (const harness::CellSpec &cell : spec.cells) {
        const std::string key = harness::cell_key(spec, cell);
        if (!cell.workload_b.empty()) {
            // Pair cells interleave two kernels on one timeline; the
            // per-cell trace story is single-kernel for now.
            std::fprintf(stderr, "skip  %s (multi-kernel cell)\n",
                         key.c_str());
            ++skipped;
            continue;
        }

        const std::string path = out_dir + "/" + sanitize(key) + ".json";
        try {
            const GpuConfig &cfg = spec.config(cell.config);
            GpuDevice dev(cfg.mem.page_size);
            Driver driver(dev, {}, harness::cell_seed(spec, cell));
            const workloads::BenchmarkDef *def =
                workloads::find_benchmark(cell.workload, cell.set);
            if (def == nullptr)
                throw SimulationError("no benchmark " + cell.workload +
                                      " in set " + cell.set);
            const workloads::WorkloadInstance inst = def->make(driver);

            obs::Profiler prof;
            if (cell.launches > 1)
                workloads::run_workload_n(cfg, driver, inst, cell.launches,
                                          cell.shield, cell.use_static, 0, 0,
                                          &prof);
            else
                workloads::run_workload(cfg, driver, inst, cell.shield,
                                        cell.use_static, &prof);

            std::string error;
            if (check && !check_attribution(prof, &error))
                throw SimulationError("attribution broken: " + error);

            std::ofstream out(path);
            if (!out.is_open())
                throw SimulationError("cannot open " + path);
            prof.write_chrome_trace(out);
            out.close();

            if (check && !check_trace_file(path, &error))
                throw SimulationError("invalid trace: " + error);

            std::fprintf(stderr, "ok    %s -> %s\n", key.c_str(),
                         path.c_str());
            ++written;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "FAIL  %s: %s\n", key.c_str(), e.what());
            ++failed;
        }
    }

    std::printf("profile suite %s: %u traces, %u skipped, %u failed%s\n",
                suite_name.c_str(), written, skipped, failed,
                check ? " (checked)" : "");
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench, set, config = "nvidia", suite_name, out_path = "-",
                out_dir;
    unsigned launches = 1;
    gpushield::Cycle interval = 64;
    bool shield = true, use_static = false, summary = false, check = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "gpushield-profile: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        const auto number = [&](std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t v = 0;
            if (!gpushield::parse_flag(argv[0], arg, value(), lo, hi, v))
                std::exit(usage(argv[0]));
            return v;
        };
        if (arg == "--benchmark")
            bench = value();
        else if (arg == "--set")
            set = value();
        else if (arg == "--config")
            config = value();
        else if (arg == "--suite")
            suite_name = value();
        else if (arg == "--no-shield")
            shield = false;
        else if (arg == "--static")
            use_static = true;
        else if (arg == "--launches")
            launches = static_cast<unsigned>(
                number(1, std::numeric_limits<unsigned>::max()));
        else if (arg == "--interval")
            interval =
                number(1, std::numeric_limits<gpushield::Cycle>::max());
        else if (arg == "--out")
            out_path = value();
        else if (arg == "--out-dir")
            out_dir = value();
        else if (arg == "--summary")
            summary = true;
        else if (arg == "--check")
            check = true;
        else
            return usage(argv[0]);
    }

    if (!suite_name.empty()) {
        if (out_dir.empty())
            return usage(argv[0]);
        return run_suite(suite_name, out_dir, check);
    }
    if (bench.empty())
        return usage(argv[0]);
    return run_single(bench, set, config, shield, use_static, launches,
                      interval, out_path, summary);
}
