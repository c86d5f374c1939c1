/**
 * @file
 * gpushield-service — multi-tenant GPU service CLI.
 *
 *   gpushield-service --attacks            isolation attack battery
 *                                          (exit 1 on any escape)
 *   gpushield-service --fairness [--json F] fairness bench; JSON report
 *   gpushield-service --demo               2-tenant scheduling demo
 *
 * Common flags: --mode timeslice|cosched, --tenants N, --quantum N,
 * --quick (small grids), --quiet.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/decimal.h"
#include "service/fairness.h"
#include "service/isolation.h"
#include "workloads/kernels.h"

namespace {

using namespace gpushield;
using namespace gpushield::service;

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " (--attacks | --fairness | --demo) [options]\n"
           "  --attacks          run the cross-tenant attack battery;\n"
           "                     exit 1 if any attack escapes containment\n"
           "  --fairness         run the fairness bench (3 mixes)\n"
           "  --demo             2-tenant round-robin demo\n"
           "options:\n"
           "  --mode M           timeslice (default) or cosched\n"
           "  --tenants N        demo tenant count (default 2)\n"
           "  --quantum N        time-slice quantum (default 1)\n"
           "  --backend NAME     shield backend every tenant runs:\n"
           "                     region (default) or armor\n"
           "  --json FILE        fairness: write the JSON report here\n"
           "  --quick            shrink workloads (CI smoke)\n"
           "  --quiet            suppress per-item output\n";
    return 2;
}

int
run_attacks(const ServiceConfig &cfg, bool quiet)
{
    const IsolationReport report = run_isolation_suite(cfg);
    for (const AttackOutcome &o : report.outcomes) {
        if (!quiet || !o.contained)
            std::cout << (o.contained ? "[contained] " : "[ESCAPED]   ")
                      << o.name << ": " << o.detail << "\n";
    }
    const bool ok = report.all_contained();
    std::cout << "isolation: " << report.outcomes.size() << " attacks, "
              << (ok ? "all contained" : "CROSS-TENANT ESCAPE") << "\n";
    return ok ? 0 : 1;
}

int
run_fairness_cmd(const ServiceConfig &cfg, const std::string &json_path,
                 bool quick, bool quiet)
{
    const FairnessReport report = run_fairness(cfg, quick);
    if (!quiet) {
        for (const FairnessMixResult &mix : report.mixes) {
            std::cout << "mix " << mix.mix << " (" << to_string(mix.mode)
                      << "), " << mix.total_cycles << " cycles\n";
            for (const FairnessTenantResult &t : mix.tenants)
                std::cout << "  " << t.name << ": completed=" << t.completed
                          << " p50=" << t.p50 << " p99=" << t.p99
                          << " share=" << t.throughput_share << "\n";
        }
    }
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        write_json(report, out);
        if (!quiet)
            std::cout << "wrote " << json_path << "\n";
    } else {
        write_json(report, std::cout);
    }
    return 0;
}

int
run_demo(ServiceConfig cfg, unsigned tenants, bool quiet)
{
    cfg.max_tenants = tenants;
    GpuService svc(cfg);

    workloads::PatternParams p;
    p.inputs = 2;
    for (unsigned t = 0; t < tenants; ++t) {
        p.name = "demo_t" + std::to_string(t);
        const Credential cred = svc.admit("tenant" + std::to_string(t));
        const KernelProgram prog = workloads::make_streaming(p);
        std::vector<api::Arg> args;
        for (std::size_t a = 0; a < prog.args.size(); ++a)
            args.push_back(api::arg(svc.create_buffer(cred, 4 * 256)));
        for (unsigned s = 0; s < 4; ++s)
            (void)svc.submit(cred, prog, {64, 4}, args);
    }
    svc.drain();

    for (unsigned t = 1; t <= tenants; ++t) {
        const StatSet &s = svc.tenant_stats(static_cast<TenantId>(t));
        if (!quiet)
            std::cout << "tenant " << t
                      << ": launches=" << s.get("launches")
                      << " ok=" << s.get("launches_ok")
                      << " exec_cycles=" << s.get("exec_cycles")
                      << " p_latency_mean="
                      << (s.get("launches")
                              ? s.get("latency_cycles") / s.get("launches")
                              : 0)
                      << "\n";
    }
    std::cout << "demo: " << svc.stats().get("launches") << " launches, "
              << svc.now() << " cycles, mode " << to_string(cfg.mode)
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    enum class Cmd { None, Attacks, Fairness, Demo };
    Cmd cmd = Cmd::None;
    ServiceConfig cfg;
    unsigned tenants = 2;
    std::string json_path;
    bool quick = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << a << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        const auto number = [&](std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t v = 0;
            if (!parse_flag(argv[0], a, next(), lo, hi, v))
                std::exit(usage(argv[0]));
            return static_cast<unsigned>(v);
        };
        if (a == "--attacks") {
            cmd = Cmd::Attacks;
        } else if (a == "--fairness") {
            cmd = Cmd::Fairness;
        } else if (a == "--demo") {
            cmd = Cmd::Demo;
        } else if (a == "--mode") {
            const std::string m = next();
            if (m == "timeslice") {
                cfg.mode = SchedMode::TimeSlice;
            } else if (m == "cosched") {
                cfg.mode = SchedMode::CoSchedule;
            } else {
                std::cerr << "unknown mode " << m << "\n";
                return 2;
            }
        } else if (a == "--tenants") {
            tenants = number(1, kMaxU32);
        } else if (a == "--quantum") {
            cfg.quantum = number(1, kMaxU32);
        } else if (a == "--backend") {
            const char *name = next();
            if (!parse_shield_backend(name, cfg.gpu.shield.backend)) {
                std::cerr << "unknown shield backend " << name
                          << " (region|armor)\n";
                return 2;
            }
        } else if (a == "--json") {
            json_path = next();
        } else if (a == "--quick") {
            quick = true;
        } else if (a == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }

    try {
        switch (cmd) {
        case Cmd::Attacks: return run_attacks(cfg, quiet);
        case Cmd::Fairness:
            return run_fairness_cmd(cfg, json_path, quick, quiet);
        case Cmd::Demo: return run_demo(cfg, tenants, quiet);
        case Cmd::None: break;
        }
    } catch (const std::invalid_argument &e) {
        // A configuration the service rejects, e.g. more tenants than
        // the ID spaces can partition.
        std::cerr << e.what() << "\n";
    }
    return usage(argv[0]);
}
