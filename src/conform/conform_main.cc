/**
 * @file
 * gpushield-conformance: differential conformance checking of the
 * shield against the per-lane oracle.
 *
 *   gpushield-conformance --suite corpus             # every benchmark
 *   gpushield-conformance --seeds 200                # fuzz (clean + oob)
 *   gpushield-conformance --fuzz-one 17 --plant      # one kernel
 *
 * A failing fuzz cell is automatically shrunk by the greedy knob
 * minimizer, which prints a one-line repro command.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/decimal.h"
#include "conform/runner.h"

namespace {

using namespace gpushield;
using namespace gpushield::conform;

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--suite corpus] [--seeds N] [--fuzz-one SEED] "
        "[options]\n"
        "  --suite corpus   run every corpus benchmark (cuda + opencl)\n"
        "  --seeds N        run N clean + N planted fuzz kernels\n"
        "  --fuzz-one SEED  run a single fuzz kernel\n"
        "  --plant          plant one out-of-bounds access (--fuzz-one)\n"
        "  --steps N        fuzz generator steps     (--fuzz-one)\n"
        "  --nbufs N        fuzz buffer count, <=128 (--fuzz-one)\n"
        "  --ntid N         workgroup size, 1-1024   (--fuzz-one)\n"
        "  --nctaid N       workgroup count, >=1     (--fuzz-one)\n"
        "  --backend NAME   shield backend under test: region (default)\n"
        "                   or armor (collisions/granule slop counted\n"
        "                   as documented weakness, never as FN)\n"
        "  --check-opt      run shield legs with the loop-aware check\n"
        "                   optimization pass (oracle gates zero-FN)\n"
        "  --fp-table       print the warp-level false-positive table\n"
        "  --no-minimize    do not shrink failing fuzz cells\n"
        "  --quiet          suppress per-cell progress\n",
        argv0);
    return 2;
}

/** Greedily halves every knob while the cell keeps failing. */
FuzzKnobs
minimize(FuzzKnobs k, ShieldBackendKind backend)
{
    const auto still_fails = [backend](const FuzzKnobs &t) {
        ConformCell c = fuzz_cell(t);
        c.cfg.shield.backend = backend;
        return !run_conformance_cell(c).ok;
    };
    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        for (int knob = 0; knob < 4; ++knob) {
            FuzzKnobs t = k;
            switch (knob) {
              case 0: t.steps = t.steps > 1 ? t.steps / 2 : t.steps; break;
              case 1: t.nbufs = t.nbufs > 1 ? t.nbufs / 2 : t.nbufs; break;
              case 2: t.ntid = t.ntid > 32 ? t.ntid / 2 : t.ntid; break;
              case 3:
                t.nctaid = t.nctaid > 1 ? t.nctaid / 2 : t.nctaid;
                break;
            }
            if (t.steps == k.steps && t.nbufs == k.nbufs &&
                t.ntid == k.ntid && t.nctaid == k.nctaid)
                continue;
            if (still_fails(t)) {
                k = t;
                shrunk = true;
            }
        }
    }
    return k;
}

struct TableRow
{
    std::string group;
    StatSet conform;
    std::uint64_t cells = 0;
};

void
print_fp_table(const std::vector<TableRow> &rows)
{
    std::printf("| group | cells | checks | flagged | fp checks | "
                "fp rate | in-bounds lanes squashed | padding lanes |\n");
    std::printf("|---|---|---|---|---|---|---|---|\n");
    for (const TableRow &row : rows) {
        const std::uint64_t checks = row.conform.get("checked");
        const std::uint64_t flagged =
            row.conform.get("agree_violation") +
            row.conform.get("fp_checks");
        const std::uint64_t fp = row.conform.get("fp_checks");
        const double rate =
            checks > 0 ? static_cast<double>(fp) /
                             static_cast<double>(checks)
                       : 0.0;
        std::printf("| %s | %llu | %llu | %llu | %llu | %.6f | %llu | "
                    "%llu |\n",
                    row.group.c_str(),
                    static_cast<unsigned long long>(row.cells),
                    static_cast<unsigned long long>(checks),
                    static_cast<unsigned long long>(flagged),
                    static_cast<unsigned long long>(fp), rate,
                    static_cast<unsigned long long>(
                        row.conform.get("fp_lanes")),
                    static_cast<unsigned long long>(
                        row.conform.get("padding_lanes")));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool run_corpus = false;
    bool fuzz_one = false;
    bool fp_table = false;
    bool no_minimize = false;
    bool quiet = false;
    bool check_opt = false;
    unsigned long seeds = 0;
    FuzzKnobs one;
    ShieldBackendKind backend = ShieldBackendKind::Region;
    // fuzz_cell runs on nvidia_config(): a larger workgroup never fits
    // on a core and the cell could only deadlock.
    const std::uint64_t max_ntid =
        std::uint64_t{nvidia_config().max_warps_per_core} * kWarpSize;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "gpushield-conformance: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        const auto number = [&](std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t v = 0;
            if (!parse_flag(argv[0], arg, value(), lo, hi, v))
                std::exit(usage(argv[0]));
            return v;
        };
        if (arg == "--suite") {
            const std::string name = value();
            if (name != "corpus") {
                std::fprintf(stderr,
                             "gpushield-conformance: unknown suite %s\n",
                             name.c_str());
                return 2;
            }
            run_corpus = true;
        } else if (arg == "--seeds") {
            seeds = number(0, kMaxU32);
        } else if (arg == "--fuzz-one") {
            fuzz_one = true;
            one.seed = number(0, std::numeric_limits<std::uint64_t>::max());
        } else if (arg == "--plant") {
            one.plant = true;
        } else if (arg == "--steps") {
            one.steps = static_cast<unsigned>(number(0, kMaxU32));
        } else if (arg == "--nbufs") {
            one.nbufs = static_cast<unsigned>(number(0, kMaxKernelArgs));
        } else if (arg == "--ntid") {
            one.ntid = static_cast<std::uint32_t>(number(1, max_ntid));
        } else if (arg == "--nctaid") {
            one.nctaid = static_cast<std::uint32_t>(number(1, kMaxU32));
        } else if (arg == "--backend") {
            const char *name = value();
            if (!parse_shield_backend(name, backend)) {
                std::fprintf(stderr,
                             "gpushield-conformance: unknown shield "
                             "backend %s (region|armor)\n", name);
                return 2;
            }
        } else if (arg == "--fp-table") {
            fp_table = true;
        } else if (arg == "--check-opt") {
            check_opt = true;
        } else if (arg == "--no-minimize") {
            no_minimize = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (!run_corpus && seeds == 0 && !fuzz_one)
        return usage(argv[0]);

    struct Planned
    {
        ConformCell cell;
        bool is_fuzz = false;
        FuzzKnobs knobs;
        std::string group;
    };
    std::vector<Planned> plan;

    if (run_corpus) {
        for (const auto &def : workloads::cuda_benchmarks())
            plan.push_back({corpus_cell(def), false, {}, "corpus-cuda"});
        for (const auto &def : workloads::opencl_benchmarks())
            plan.push_back(
                {corpus_cell(def), false, {}, "corpus-opencl"});
    }
    for (unsigned long s = 0; s < seeds; ++s) {
        for (const bool plant : {false, true}) {
            FuzzKnobs k;
            k.seed = s;
            k.plant = plant;
            k = resolve_knobs(k);
            plan.push_back({fuzz_cell(k), true, k,
                            plant ? "fuzz-planted" : "fuzz-clean"});
        }
    }
    if (fuzz_one) {
        const FuzzKnobs k = resolve_knobs(one);
        plan.push_back({fuzz_cell(k), true, k, "fuzz-one"});
    }
    for (Planned &p : plan) {
        p.cell.cfg.shield.backend = backend;
        p.cell.check_opt = check_opt;
    }

    ConformSuiteResult suite;
    std::vector<TableRow> rows;
    std::uint64_t fn_checks = 0, divergences = 0, sched_dep = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const Planned &p = plan[i];
        ConformCellResult res = run_conformance_cell(p.cell);
        if (!quiet || !res.ok) {
            std::fprintf(stderr, "[%zu/%zu] %-40s %s\n", i + 1,
                         plan.size(), res.name.c_str(),
                         res.ok ? "ok" : "FAIL");
            for (const std::string &f : res.failures)
                std::fprintf(stderr, "    %s\n", f.c_str());
            if (!res.oracle_report.empty())
                std::fprintf(stderr, "%s", res.oracle_report.c_str());
        }
        fn_checks += res.conform.get("fn_checks");
        if (!res.image_match)
            ++divergences;
        if (res.schedule_dependent)
            ++sched_dep;

        TableRow *row = nullptr;
        for (TableRow &existing : rows)
            if (existing.group == p.group)
                row = &existing;
        if (row == nullptr) {
            rows.push_back({p.group, StatSet{}, 0});
            row = &rows.back();
        }
        row->conform.merge(res.conform);
        ++row->cells;
        suite.conform.merge(res.conform);

        if (!res.ok && p.is_fuzz && !no_minimize) {
            std::fprintf(stderr, "    minimizing...\n");
            const FuzzKnobs small = minimize(p.knobs, backend);
            std::fprintf(stderr, "    minimal repro: %s\n",
                         small.repro().c_str());
        }
        suite.cells.push_back(std::move(res));
    }

    if (fp_table)
        print_fp_table(rows);

    std::printf("conformance: %zu cells, %llu failed, "
                "false_negatives=%llu, image_divergences=%llu, "
                "fp_checks=%llu, schedule_dependent=%llu\n",
                suite.cells.size(),
                static_cast<unsigned long long>(suite.failures()),
                static_cast<unsigned long long>(fn_checks),
                static_cast<unsigned long long>(divergences),
                static_cast<unsigned long long>(
                    suite.conform.get("fp_checks")),
                static_cast<unsigned long long>(sched_dep));
    return suite.all_ok() ? 0 : 1;
}
