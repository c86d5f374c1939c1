/**
 * @file
 * gpushield-sweep: CLI driver over the sweep harness.
 *
 *   gpushield-sweep --suite fig14 --jobs 8 --jsonl fig14.jsonl
 *
 * Records are emitted in cell order, so the JSONL/CSV output of a
 * sweep is byte-identical for any --jobs value.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/decimal.h"
#include "common/thread_pool.h"
#include "harness/executor.h"
#include "harness/suites.h"
#include "shield/config.h"

namespace {

using namespace gpushield::harness;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --suite NAME [options]\n"
                 "  --suite NAME   suite to run (see --list)\n"
                 "  --jobs N       worker threads, 1-%u (default: %u)\n"
                 "  --backend NAME bounds-check hardware point for every\n"
                 "                 config in the suite: 'region'\n"
                 "                 (default; BCU+RBT+RCache) or 'armor'\n"
                 "                 (tagged-pointer metadata table)\n"
                 "  --jsonl PATH   write JSON Lines records ('-' = stdout)\n"
                 "  --csv PATH     write CSV records ('-' = stdout)\n"
                 "  --check-opt    enable the loop-aware check-opt pass on\n"
                 "                 every shield cell (keys gain +checkopt)\n"
                 "  --profile      attach the stall-attribution profiler\n"
                 "                 (adds the \"obs\" JSONL field)\n"
                 "  --conform      attach the per-lane conformance oracle\n"
                 "                 to shield cells (adds \"conform\")\n"
                 "  --list         list available suites\n"
                 "  --quiet        suppress per-cell progress\n",
                 argv0, gpushield::ThreadPool::kMaxJobs,
                 gpushield::ThreadPool::hardware_jobs());
    return 2;
}

bool
write_to(const std::string &path, const MetricsRegistry &metrics, bool jsonl)
{
    const auto emit = [&](std::ostream &os) {
        jsonl ? metrics.write_jsonl(os) : metrics.write_csv(os);
    };
    if (path == "-") {
        emit(std::cout);
        return true;
    }
    std::ofstream out(path);
    if (!out.is_open()) {
        std::fprintf(stderr, "gpushield-sweep: cannot open %s\n",
                     path.c_str());
        return false;
    }
    emit(out);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string suite_name, jsonl_path, csv_path;
    unsigned jobs = gpushield::ThreadPool::hardware_jobs();
    gpushield::ShieldBackendKind backend =
        gpushield::ShieldBackendKind::Region;
    bool quiet = false, list = false, profile = false, conform = false;
    bool check_opt = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "gpushield-sweep: %s needs a value\n",
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
        if (arg == "--suite")
            suite_name = value();
        else if (arg == "--jobs")
            jobs = static_cast<unsigned>(
                number(1, gpushield::ThreadPool::kMaxJobs));
        else if (arg == "--backend") {
            const char *name = value();
            if (!gpushield::parse_shield_backend(name, backend)) {
                std::fprintf(stderr,
                             "gpushield-sweep: unknown shield backend "
                             "%s (region|armor)\n", name);
                return 2;
            }
        }
        else if (arg == "--jsonl")
            jsonl_path = value();
        else if (arg == "--csv")
            csv_path = value();
        else if (arg == "--check-opt")
            check_opt = true;
        else if (arg == "--profile")
            profile = true;
        else if (arg == "--conform")
            conform = true;
        else if (arg == "--list")
            list = true;
        else if (arg == "--quiet")
            quiet = true;
        else
            return usage(argv[0]);
    }

    if (list) {
        for (const SuiteDef &s : suites())
            std::printf("%-8s %s\n", s.name.c_str(), s.description.c_str());
        return 0;
    }
    if (suite_name.empty())
        return usage(argv[0]);

    const SuiteDef *suite = find_suite(suite_name);
    if (suite == nullptr) {
        std::fprintf(stderr, "gpushield-sweep: unknown suite %s (--list)\n",
                     suite_name.c_str());
        return 2;
    }

    SweepSpec spec = suite->make();
    for (auto &[cfg_name, cfg] : spec.configs)
        cfg.shield.backend = backend;
    if (check_opt)
        for (CellSpec &c : spec.cells)
            c.check_opt = c.shield;
    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = quiet ? nullptr : &std::cerr;
    opts.profile = profile;
    opts.conform = conform;

    const SweepResult result = run_sweep(spec, opts);

    if (!jsonl_path.empty() &&
        !write_to(jsonl_path, result.metrics, /*jsonl=*/true))
        return 2;
    if (!csv_path.empty() &&
        !write_to(csv_path, result.metrics, /*jsonl=*/false))
        return 2;

    result.summarize(std::cout);
    return result.all_ok() ? 0 : 1;
}
