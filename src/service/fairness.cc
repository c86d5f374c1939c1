#include "service/fairness.h"

#include <algorithm>
#include <ostream>

#include "common/json.h"
#include "workloads/kernels.h"

namespace gpushield::service {

namespace {

Cycle
percentile(const std::vector<Cycle> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

FairnessMixResult
run_mix(const ServiceConfig &cfg, const std::string &name,
        const std::vector<TenantLoad> &loads)
{
    ServiceConfig scfg = cfg;
    scfg.max_tenants = static_cast<unsigned>(loads.size());
    scfg.queue_capacity =
        std::max<std::size_t>(scfg.queue_capacity, [&] {
            std::size_t most = 0;
            for (const TenantLoad &l : loads)
                most = std::max<std::size_t>(most, l.submissions);
            return most;
        }());
    GpuService svc(scfg);

    struct TenantRun
    {
        Credential cred;
        KernelProgram program;
        std::vector<api::Arg> args;
        api::Grid grid;
        std::vector<Ticket> tickets;
    };
    std::vector<TenantRun> runs;

    for (const TenantLoad &load : loads) {
        TenantRun run;
        run.cred = svc.admit(load.name);
        workloads::PatternParams p;
        p.name = load.name + "_stream";
        p.inputs = 2;
        p.inner_iters = load.inner_iters;
        run.program = workloads::make_streaming(p);
        run.grid = {load.threads_per_block, load.blocks};
        const std::uint64_t bytes = std::uint64_t{load.threads_per_block} *
                                    load.blocks * p.elem_size;
        for (const KernelArgSpec &spec : run.program.args) {
            (void)spec;
            run.args.push_back(
                api::arg(svc.create_buffer(run.cred, bytes)));
        }
        runs.push_back(std::move(run));
    }

    // Enqueue round-robin across tenants so every queue is loaded before
    // the scheduler starts; latency then includes queueing delay.
    bool queued = true;
    for (unsigned round = 0; queued; ++round) {
        queued = false;
        for (std::size_t t = 0; t < runs.size(); ++t) {
            if (round >= loads[t].submissions)
                continue;
            const SubmitResult sr =
                svc.submit(runs[t].cred, runs[t].program, runs[t].grid,
                           runs[t].args);
            if (sr.status == SubmitStatus::Accepted)
                runs[t].tickets.push_back(sr.ticket);
            queued = true;
        }
    }

    svc.drain();

    FairnessMixResult mix;
    mix.mix = name;
    mix.mode = scfg.mode;
    mix.quantum = scfg.quantum;
    mix.total_cycles = svc.now();

    std::uint64_t total_exec = 0;
    for (std::size_t t = 0; t < runs.size(); ++t) {
        FairnessTenantResult r;
        r.name = loads[t].name;
        std::vector<Cycle> lat;
        std::uint64_t lat_sum = 0;
        for (const Ticket ticket : runs[t].tickets) {
            const LaunchRecord &rec = svc.record(ticket);
            if (!rec.done || rec.result.status != api::LaunchStatus::Ok)
                continue;
            ++r.completed;
            lat.push_back(rec.latency());
            lat_sum += rec.latency();
            r.exec_cycles += rec.result.cycles;
        }
        std::sort(lat.begin(), lat.end());
        r.p50 = percentile(lat, 0.50);
        r.p99 = percentile(lat, 0.99);
        r.mean = lat.empty() ? 0 : lat_sum / lat.size();
        total_exec += r.exec_cycles;
        mix.tenants.push_back(std::move(r));
    }
    for (FairnessTenantResult &r : mix.tenants)
        r.throughput_share =
            total_exec == 0
                ? 0.0
                : static_cast<double>(r.exec_cycles) /
                      static_cast<double>(total_exec);
    return mix;
}

FairnessReport
run_fairness(const ServiceConfig &base, bool quick)
{
    const unsigned subs_light = quick ? 3 : 8;
    const unsigned subs_heavy = quick ? 2 : 6;

    const std::vector<TenantLoad> uniform = {
        {"alice", subs_light, 4, 64, 2},
        {"bob", subs_light, 4, 64, 2},
        {"carol", subs_light, 4, 64, 2},
    };
    const std::vector<TenantLoad> skewed = {
        {"hog", subs_heavy, quick ? 8u : 16u, 128, quick ? 4u : 8u},
        {"bob", subs_light, 2, 64, 1},
        {"carol", subs_light, 2, 64, 1},
    };

    FairnessReport report;
    ServiceConfig ts = base;
    ts.mode = SchedMode::TimeSlice;
    report.mixes.push_back(run_mix(ts, "uniform", uniform));
    report.mixes.push_back(run_mix(ts, "skewed", skewed));
    ServiceConfig cs = base;
    cs.mode = SchedMode::CoSchedule;
    report.mixes.push_back(run_mix(cs, "skewed", skewed));
    return report;
}

void
write_json(const FairnessReport &report, std::ostream &os)
{
    os << "{\n  \"bench\": \"service_fairness\",\n  \"mixes\": [\n";
    for (std::size_t m = 0; m < report.mixes.size(); ++m) {
        const FairnessMixResult &mix = report.mixes[m];
        os << "    {\n      \"mix\": " << json_quote(mix.mix) << ",\n"
           << "      \"mode\": " << json_quote(to_string(mix.mode)) << ",\n"
           << "      \"quantum\": " << mix.quantum << ",\n"
           << "      \"total_cycles\": " << mix.total_cycles << ",\n"
           << "      \"tenants\": [\n";
        for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
            const FairnessTenantResult &r = mix.tenants[t];
            os << "        {\"name\": " << json_quote(r.name)
               << ", \"completed\": " << r.completed
               << ", \"p50_cycles\": " << r.p50
               << ", \"p99_cycles\": " << r.p99
               << ", \"mean_cycles\": " << r.mean
               << ", \"exec_cycles\": " << r.exec_cycles
               << ", \"throughput_share\": " << r.throughput_share << "}"
               << (t + 1 < mix.tenants.size() ? ",\n" : "\n");
        }
        os << "      ]\n    }"
           << (m + 1 < report.mixes.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

} // namespace gpushield::service
