/**
 * @file
 * Sweep-harness tests: determinism of parallel vs serial execution,
 * JSONL/CSV round-trips, structured failure isolation, seed stability,
 * and the work-stealing pool itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "harness/executor.h"
#include "harness/metrics.h"
#include "harness/suites.h"
#include "harness/sweep.h"
#include "common/thread_pool.h"

namespace gpushield::harness {
namespace {

/** A seconds-scale grid covering every cell shape. */
SweepSpec
tiny_spec()
{
    SweepSpec spec;
    spec.name = "t";
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 4; // keep the tests fast; timing shape unchanged
    spec.add_config("n4", cfg);

    spec.add_grid("cuda", {"vectoradd", "ConvSep"}, {"n4"}, {false, true});
    spec.add_grid("cuda", {"vectoradd"}, {"n4"}, {true},
                  /*use_static=*/false, /*launches=*/2);

    CellSpec pair;
    pair.set = "cuda";
    pair.workload = "vectoradd";
    pair.workload_b = "ConvSep";
    pair.placement = Placement::kShared;
    pair.config = "n4";
    pair.shield = true;
    spec.cells.push_back(pair);
    return spec;
}

std::string
jsonl_of(const MetricsRegistry &m)
{
    std::ostringstream os;
    m.write_jsonl(os);
    return os.str();
}

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.wait_idle();
    EXPECT_EQ(sum.load(), 5050);

    // The pool stays usable after an idle barrier.
    pool.submit([&sum] { sum += 1; });
    pool.wait_idle();
    EXPECT_EQ(sum.load(), 5051);
}

TEST(Sweep, SeedsAreStableLayoutKeyedAndOrderIndependent)
{
    const SweepSpec spec = tiny_spec();

    // Cells that differ only in protection settings share a seed (their
    // overhead ratio must not include layout noise); cells with
    // different workloads/configs get distinct seeds.
    std::map<std::string, std::set<std::uint64_t>> by_layout;
    for (const CellSpec &cell : spec.cells) {
        const std::string layout = cell.config + "/" + cell.set + ":" +
                                   cell.workload + "+" + cell.workload_b +
                                   "@" + to_string(cell.placement);
        by_layout[layout].insert(cell_seed(spec, cell));
    }
    std::set<std::uint64_t> distinct;
    for (const auto &[layout, seeds] : by_layout) {
        EXPECT_EQ(seeds.size(), 1u)
            << "shield/static axes changed the seed for " << layout;
        distinct.insert(*seeds.begin());
    }
    EXPECT_EQ(distinct.size(), by_layout.size()) << "seed collision";

    // Seeds depend on coordinates, not grid position.
    SweepSpec reversed = spec;
    std::reverse(reversed.cells.begin(), reversed.cells.end());
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        EXPECT_EQ(cell_seed(spec, spec.cells[i]),
                  cell_seed(reversed,
                            reversed.cells[spec.cells.size() - 1 - i]));
    }
}

TEST(Sweep, ParallelMatchesSerialByteForByte)
{
    const SweepSpec spec = tiny_spec();

    SweepOptions serial;
    serial.jobs = 1;
    const SweepResult r1 = run_sweep(spec, serial);

    SweepOptions parallel;
    parallel.jobs = 4;
    const SweepResult r4 = run_sweep(spec, parallel);

    ASSERT_EQ(r1.metrics.records().size(), spec.cells.size());
    EXPECT_TRUE(r1.all_ok());
    EXPECT_TRUE(r4.all_ok());
    EXPECT_EQ(jsonl_of(r1.metrics), jsonl_of(r4.metrics));
    for (std::size_t i = 0; i < spec.cells.size(); ++i)
        EXPECT_TRUE(r1.metrics.records()[i] == r4.metrics.records()[i])
            << "record " << i << " differs";
}

TEST(Metrics, JsonlRoundTrips)
{
    const SweepResult result = run_sweep(tiny_spec());
    const std::string emitted = jsonl_of(result.metrics);

    std::istringstream is(emitted);
    const std::vector<RunRecord> parsed = MetricsRegistry::read_jsonl(is);
    ASSERT_EQ(parsed.size(), result.metrics.records().size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_TRUE(parsed[i] == result.metrics.records()[i])
            << "record " << i << " does not round-trip";

    // Re-emission of the parsed records is byte-identical.
    MetricsRegistry again(parsed.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        again.record(i, parsed[i]);
    EXPECT_EQ(jsonl_of(again), emitted);
}

TEST(Metrics, JsonlEscapesHostileStrings)
{
    RunRecord r;
    r.key = "k\"ey\\with\nnasty\tchars";
    r.error = std::string("nul \x01 ctrl");
    r.ok = false;
    r.l1_rcache_hit_rate = 1.0 / 3.0;
    r.rcache.add("l1_hits", 7);

    MetricsRegistry reg(1);
    reg.record(0, r);
    std::istringstream is(jsonl_of(reg));
    const std::vector<RunRecord> parsed = MetricsRegistry::read_jsonl(is);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_TRUE(parsed[0] == r);
}

TEST(Metrics, JsonlRejectsCountersThatAreNotU64)
{
    RunRecord r;
    r.key = "k";
    MetricsRegistry reg(1);
    reg.record(0, r);
    const std::string line = jsonl_of(reg);
    // Rewrites one field of an otherwise valid record, then parses it.
    const auto read_with = [&](const std::string &from,
                               const std::string &to) {
        std::string text = line;
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        text.replace(at, from.size(), to);
        std::istringstream is(text);
        return MetricsRegistry::read_jsonl(is);
    };
    EXPECT_THROW(read_with("\"cycles\":0", "\"cycles\":-1"),
                 SimulationError);
    EXPECT_THROW(read_with("\"cycles\":0", "\"cycles\":1.5"),
                 SimulationError);
    EXPECT_THROW(read_with("\"seed\":0", "\"seed\":18446744073709551616"),
                 SimulationError);
}

TEST(Metrics, JsonlRoundTripsFullU64)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    RunRecord r;
    r.key = "k";
    r.seed = kMax;
    r.kernel.set("instructions", kMax);

    MetricsRegistry reg(1);
    reg.record(0, r);
    std::istringstream is(jsonl_of(reg));
    const std::vector<RunRecord> parsed = MetricsRegistry::read_jsonl(is);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].seed, kMax);
    EXPECT_EQ(parsed[0].kernel.get("instructions"), kMax);
    EXPECT_TRUE(parsed[0] == r);
}

TEST(Metrics, CsvRoundTripsFieldStructure)
{
    const SweepResult result = run_sweep(tiny_spec());
    std::ostringstream os;
    result.metrics.write_csv(os);

    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    const std::vector<std::string> header = csv_split(line);
    EXPECT_EQ(header, MetricsRegistry::csv_header());

    std::size_t rows = 0;
    while (std::getline(is, line)) {
        const std::vector<std::string> cells = csv_split(line);
        ASSERT_EQ(cells.size(), header.size());
        const RunRecord &r = result.metrics.records()[rows];
        EXPECT_EQ(cells[0], r.key);
        EXPECT_EQ(cells[14], std::to_string(r.cycles));
        ++rows;
    }
    EXPECT_EQ(rows, result.metrics.records().size());

    // Quoting round-trips hostile cells.
    const std::string nasty = "a,\"b\"\nc";
    EXPECT_EQ(csv_split(csv_escape(nasty))[0], nasty);
}

TEST(Sweep, FailingCellDoesNotPoisonSiblings)
{
    SweepSpec spec = tiny_spec();
    GpuConfig starved = nvidia_config();
    starved.num_cores = 4;
    starved.max_cycles = 500; // guaranteed budget exhaustion
    spec.add_config("starved", starved);

    CellSpec doomed;
    doomed.set = "cuda";
    doomed.workload = "vectoradd";
    doomed.config = "starved";
    doomed.shield = true;
    spec.cells.push_back(doomed);

    SweepOptions opts;
    opts.jobs = 2;
    const SweepResult mixed = run_sweep(spec, opts);
    ASSERT_EQ(mixed.metrics.records().size(), spec.cells.size());

    const RunRecord &failure = mixed.metrics.records().back();
    EXPECT_FALSE(failure.ok);
    EXPECT_NE(failure.error.find("cycle budget"), std::string::npos)
        << failure.error;
    EXPECT_FALSE(mixed.all_ok());

    // Every sibling matches a sweep that never contained the bad cell.
    const SweepResult clean = run_sweep(tiny_spec());
    for (std::size_t i = 0; i < clean.metrics.records().size(); ++i)
        EXPECT_TRUE(mixed.metrics.records()[i] ==
                    clean.metrics.records()[i])
            << "sibling record " << i << " was poisoned";
}

TEST(Sweep, UnknownWorkloadIsAStructuredFailure)
{
    SweepSpec spec;
    spec.name = "t";
    spec.add_config("nv", nvidia_config());
    CellSpec cell;
    cell.set = "cuda";
    cell.workload = "no-such-benchmark";
    cell.config = "nv";
    spec.cells.push_back(cell);

    const SweepResult result = run_sweep(spec);
    ASSERT_EQ(result.metrics.records().size(), 1u);
    EXPECT_FALSE(result.metrics.records()[0].ok);
    EXPECT_NE(result.metrics.records()[0].error.find("no-such-benchmark"),
              std::string::npos);
}

TEST(Metrics, PairOverheadsJoinBaselineAndShield)
{
    const SweepResult result = run_sweep(tiny_spec());
    const std::vector<OverheadPair> pairs =
        pair_overheads(result.metrics.records());
    ASSERT_EQ(pairs.size(), 2u); // vectoradd and ConvSep single-kernel
    for (const OverheadPair &p : pairs) {
        EXPECT_FALSE(p.baseline->shield);
        EXPECT_TRUE(p.shielded->shield);
        EXPECT_EQ(p.baseline->workload, p.shielded->workload);
        EXPECT_GT(p.ratio(), 0.0);
    }
}

TEST(Suites, EveryRegisteredSuiteBuildsAValidSpec)
{
    for (const SuiteDef &s : suites()) {
        const SweepSpec spec = s.make();
        EXPECT_EQ(spec.name, s.name);
        EXPECT_FALSE(spec.cells.empty());
        std::set<std::string> keys;
        for (const CellSpec &cell : spec.cells) {
            spec.config(cell.config); // throws if dangling
            EXPECT_TRUE(keys.insert(cell_key(spec, cell)).second)
                << "duplicate cell key in suite " << s.name;
        }
    }
}

} // namespace
} // namespace gpushield::harness
