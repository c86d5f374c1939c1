/**
 * @file
 * Observability subsystem tests: the stall-attribution invariant (per
 * warp, cause cycles sum to workgroup residency), Chrome-trace export /
 * parse / validate round-trips, the DRAM-retry series fed from the
 * hierarchy's counter, the trace validator's rejection paths,
 * and the harness integration (RunRecord::obs JSONL round-trip, the
 * profiled sweep path, and the unprofiled path staying byte-stable).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "harness/executor.h"
#include "harness/metrics.h"
#include "harness/suites.h"
#include "isa/builder.h"
#include "obs/profiler.h"
#include "obs/trace_json.h"
#include "sim/config.h"
#include "workloads/kernels.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

using namespace workloads;

/** vecadd over @p ntid x @p nctaid threads with initialized inputs. */
WorkloadInstance
vecadd_instance(Driver &driver, std::uint32_t ntid, std::uint32_t nctaid)
{
    PatternParams p;
    p.name = "vecadd";
    p.inputs = 2;
    p.inner_iters = 1;
    WorkloadInstance w;
    w.program = make_streaming(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    std::vector<std::int32_t> a(n), b(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::int32_t>(i);
        b[i] = static_cast<std::int32_t>(3 * i);
    }
    for (int k = 0; k < 3; ++k)
        w.buffers.push_back(driver.create_buffer(n * 4));
    driver.upload(w.buffers[0], a.data(), n * 4);
    driver.upload(w.buffers[1], b.data(), n * 4);
    return w;
}

TEST(StallAttribution, TwoWarpKernelSumsToResidency)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    // One workgroup of 64 threads = exactly two warps on one SM.
    WorkloadInstance w = vecadd_instance(driver, 64, 1);
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 1;

    obs::Profiler prof;
    const RunOutcome out =
        run_workload(cfg, driver, w, /*shield=*/true, /*use_static=*/false,
                     &prof);
    EXPECT_FALSE(out.result.aborted);

    ASSERT_EQ(prof.workgroups().size(), 1u);
    const obs::WorkgroupSpan &wg = prof.workgroups()[0];
    EXPECT_FALSE(wg.open);
    ASSERT_EQ(wg.warps.size(), 2u);
    const Cycle resident = wg.end - wg.start;
    EXPECT_GT(resident, 0u);
    for (std::size_t warp = 0; warp < wg.warps.size(); ++warp)
        EXPECT_EQ(wg.warps[warp].total(), resident) << "warp " << warp;

    // The summary aggregates exactly the same cycles.
    const obs::ProfileSummary s = prof.summary();
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.warp_cycles, 2 * resident);
    std::uint64_t cause_sum = 0;
    for (const std::uint64_t c : s.cause_cycles)
        cause_sum += c;
    EXPECT_EQ(cause_sum, s.warp_cycles);

    // Per-core totals agree with the per-workgroup breakdowns.
    const auto core = prof.core_stalls(0);
    std::uint64_t core_sum = 0;
    for (const std::uint64_t c : core)
        core_sum += c;
    EXPECT_EQ(core_sum, s.warp_cycles);

    // A memory-bound kernel issued something and waited on memory.
    using obs::StallCause;
    EXPECT_GT(s.cause_cycles[static_cast<std::size_t>(StallCause::Issued)],
              0u);
    EXPECT_GT(
        s.cause_cycles[static_cast<std::size_t>(StallCause::MemPending)],
        0u);

    // One kernel phase span, closed, covering the run.
    ASSERT_EQ(prof.kernels().size(), 1u);
    EXPECT_FALSE(prof.kernels()[0].aborted);
    EXPECT_GT(prof.kernels()[0].end, prof.kernels()[0].start);
}

TEST(StallAttribution, HoldsAcrossCoresAndWorkgroups)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 128, 6);
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 2;

    obs::Profiler prof;
    run_workload(cfg, driver, w, true, false, &prof);

    ASSERT_EQ(prof.workgroups().size(), 6u);
    std::uint64_t warp_cycles = 0;
    for (const obs::WorkgroupSpan &wg : prof.workgroups()) {
        EXPECT_FALSE(wg.open);
        for (const obs::WarpStallBreakdown &warp : wg.warps) {
            EXPECT_EQ(warp.total(), wg.end - wg.start)
                << "core " << wg.core << " wg " << wg.wg_index;
            warp_cycles += warp.total();
        }
    }
    EXPECT_EQ(prof.summary().warp_cycles, warp_cycles);
}

TEST(ChromeTrace, ExportParsesAndValidates)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 64, 4);
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 2;

    obs::Profiler prof;
    run_workload(cfg, driver, w, true, false, &prof);

    std::ostringstream os;
    prof.write_chrome_trace(os);

    const JsonValue root = parse_json(os.str());
    std::string error;
    EXPECT_TRUE(obs::validate_trace(root, &error)) << error;

    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is(JsonValue::Kind::Array));

    // The export carries kernel spans, workgroup slices, and counters.
    unsigned kernel_spans = 0, wg_slices = 0, counters = 0;
    for (const JsonValue &e : events->array) {
        const JsonValue *ph = e.find("ph");
        const JsonValue *pid = e.find("pid");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(pid, nullptr);
        if (ph->as_string() == "X" && pid->as_u64() == 0)
            ++kernel_spans;
        else if (ph->as_string() == "X" && pid->as_u64() >= 100)
            ++wg_slices;
        else if (ph->as_string() == "C")
            ++counters;
    }
    EXPECT_EQ(kernel_spans, 1u);
    EXPECT_EQ(wg_slices, 4u);
    EXPECT_GT(counters, 0u);
}

TEST(ChromeTrace, KernelSpanKeepsHostileName)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 64, 1);
    w.program.name = std::string("k\"q\\b\r") + '\x01';
    obs::Profiler prof;
    run_workload(nvidia_config(), driver, w, true, false, &prof);

    std::ostringstream os;
    prof.write_chrome_trace(os);
    const JsonValue root = parse_json(os.str());
    std::string error;
    ASSERT_TRUE(obs::validate_trace(root, &error)) << error;

    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    unsigned spans = 0;
    for (const JsonValue &e : events->array) {
        if (e.find("ph")->as_string() != "X" || e.find("pid")->as_u64() != 0)
            continue;
        ++spans;
        EXPECT_EQ(e.find("name")->as_string(), w.program.name);
    }
    EXPECT_EQ(spans, 1u);
}

/** Sum of the trace's dram_retries samples. */
double
sampled_dram_retries(const obs::Profiler &prof)
{
    std::ostringstream os;
    prof.write_chrome_trace(os);
    const JsonValue root = parse_json(os.str());
    double sum = 0.0;
    for (const JsonValue &e : root.find("traceEvents")->array)
        if (e.find("ph")->as_string() == "C" &&
            e.find("name")->as_string() == "dram_retries")
            sum += e.find("args")->find("value")->as_double();
    return sum;
}

TEST(ChromeTrace, DramRetrySeriesComesFromHierarchyCounter)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    // Poorly coalesced stores into a one-deep DRAM queue: requests are
    // still being retried when the kernel ends.
    PatternParams p;
    p.name = "scatter";
    p.stride = 8;
    WorkloadInstance w;
    w.program = make_strided(p);
    w.ntid = 256;
    w.nctaid = 4;
    const std::uint64_t n = std::uint64_t{w.ntid} * w.nctaid;
    w.buffers.push_back(driver.create_buffer(n * 4));
    w.buffers.push_back(driver.create_buffer(n * 4));
    w.scalars = {0, 0, static_cast<std::int64_t>(n)};
    w.scalar_static = {true, true, true};
    GpuConfig cfg = nvidia_config();
    cfg.mem.dram.queue_capacity = 1;
    obs::Profiler prof(1);
    const RunOutcome out =
        run_workload(cfg, driver, w, true, false, &prof);

    // With a one-cycle interval each sample is that cycle's retry count.
    // Retries after the last profiled cycle wait for a next sample, so
    // the series falls short of the hierarchy's total.
    const double total =
        static_cast<double>(out.mem.get("hier.dram_retries"));
    EXPECT_GT(sampled_dram_retries(prof), 0.0);
    EXPECT_LT(sampled_dram_retries(prof), total);

    // A second GPU on the same profiler takes the next sample: it holds
    // the first run's remaining retries, and a kernel without memory
    // traffic adds none of its own.
    KernelBuilder b("idle");
    b.exit();
    WorkloadInstance idle;
    idle.program = b.finish();
    idle.ntid = 32;
    idle.nctaid = 1;
    const RunOutcome quiet =
        run_workload(cfg, driver, idle, true, false, &prof);
    EXPECT_EQ(quiet.mem.get("hier.dram_retries"), 0u);
    EXPECT_EQ(sampled_dram_retries(prof), total);
}

TEST(ChromeTrace, ValidatorRejectsMalformedInput)
{
    EXPECT_THROW(parse_json("{\"traceEvents\":["), SimulationError);
    EXPECT_THROW(parse_json(""), SimulationError);

    std::string error;
    // Not a trace at all.
    EXPECT_FALSE(obs::validate_trace(parse_json("{}"), &error));
    // Unknown phase letter.
    EXPECT_FALSE(obs::validate_trace(
        parse_json("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\","
                   "\"pid\":0,\"tid\":0,\"ts\":0}]}"),
        &error));
    // Overlapping (non-nesting) spans on one track.
    EXPECT_FALSE(obs::validate_trace(
        parse_json(
            "{\"traceEvents\":["
            "{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":0,\"dur\":10},"
            "{\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":5,\"dur\":10}]}"),
        &error));
    EXPECT_NE(error.find("nest"), std::string::npos) << error;
}

TEST(HarnessObs, RunRecordObsRoundTripsThroughJsonl)
{
    harness::RunRecord r;
    r.key = "smoke/nv8/cuda:vectoradd/shield";
    r.suite = "smoke";
    r.set = "cuda";
    r.workload = "vectoradd";
    r.config = "nv8";
    r.placement = "whole";
    r.shield = true;
    r.ok = true;
    r.cycles = 1234;
    r.obs.set("warp_cycles", 999);
    r.obs.set("stall.issued", 100);
    r.obs.set("stall.mem_pending", 899);

    harness::MetricsRegistry reg(1);
    reg.record(0, r);
    std::ostringstream os;
    reg.write_jsonl(os);
    EXPECT_NE(os.str().find("\"obs\":{"), std::string::npos);

    std::istringstream is(os.str());
    const std::vector<harness::RunRecord> back =
        harness::MetricsRegistry::read_jsonl(is);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_TRUE(back[0] == r);
}

TEST(HarnessObs, UnprofiledRecordOmitsObsField)
{
    harness::RunRecord r;
    r.key = "k";
    r.ok = true;

    harness::MetricsRegistry reg(1);
    reg.record(0, r);
    std::ostringstream os;
    reg.write_jsonl(os);
    EXPECT_EQ(os.str().find("\"obs\""), std::string::npos)
        << "unprofiled records must serialize exactly as before the "
           "profiler existed (golden-file byte identity)";
}

TEST(HarnessObs, ProfiledCellCarriesStallBreakdown)
{
    const harness::SweepSpec spec = harness::smoke_suite();
    ASSERT_FALSE(spec.cells.empty());

    const harness::RunRecord plain = harness::run_cell(spec, 0, false);
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_TRUE(plain.obs.counters().empty());

    const harness::RunRecord profiled = harness::run_cell(spec, 0, true);
    ASSERT_TRUE(profiled.ok) << profiled.error;
    EXPECT_GT(profiled.obs.get("warp_cycles"), 0u);
    EXPECT_GT(profiled.obs.get("profiled_cycles"), 0u);

    // Observation must not perturb the simulated outcome.
    EXPECT_EQ(profiled.cycles, plain.cycles);
    EXPECT_EQ(profiled.kernel == plain.kernel, true);
}

} // namespace
} // namespace gpushield
