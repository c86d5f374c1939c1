/**
 * @file
 * Structured metrics for sweep runs.
 *
 * Every cell of a sweep produces one RunRecord: the cell's coordinates,
 * its deterministic seed, the outcome (cycles, violations, abort /
 * failure state), and the per-component StatSets (RCache, BCU, memory
 * hierarchy, kernel). A MetricsRegistry holds the records of one sweep
 * in cell order — making emission independent of completion order — and
 * serializes them as JSON Lines (full fidelity, one object per line) or
 * CSV (flat scalar columns). read_jsonl() reads write_jsonl() output
 * back through the common JSON parser, so records round-trip losslessly.
 */

#ifndef GPUSHIELD_HARNESS_METRICS_H
#define GPUSHIELD_HARNESS_METRICS_H

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/stats.h"

namespace gpushield::harness {

/** Uniform record of one sweep cell's simulation. */
struct RunRecord
{
    // Identity (mirrors CellSpec + the spec name).
    std::string key;         //!< stable cell key (see cell_key)
    std::string suite;       //!< sweep/spec name
    std::string set;         //!< benchmark set
    std::string workload;
    std::string workload_b;  //!< empty for single-kernel cells
    std::string config;
    std::string placement;
    bool shield = false;
    bool use_static = false;
    unsigned launches = 1;
    std::uint64_t seed = 0;

    // Outcome.
    bool ok = false;         //!< false: the cell failed structurally
    bool aborted = false;    //!< kernel aborted (precise exceptions)
    std::string error;       //!< failure reason when !ok
    std::uint64_t cycles = 0;
    std::uint64_t violations = 0;
    double l1_rcache_hit_rate = 0.0;
    /** Idle cycles the event-driven engine skipped for this cell, the
     *  same with or without a profiler attached. A host-side engine
     *  metric, not a simulated one, so deliberately NOT serialized to
     *  JSONL/CSV (golden files record simulated results only) and
     *  excluded from operator==. */
    std::uint64_t cycles_skipped = 0;

    // Per-component counters.
    StatSet rcache;
    StatSet bcu;
    StatSet mem;
    StatSet kernel;
    /** Stall-attribution roll-up (obs::ProfileSummary::to_statset());
     *  empty unless the sweep ran with SweepOptions::profile. The JSONL
     *  "obs" field is emitted only when non-empty, so unprofiled sweeps
     *  serialize byte-identically to pre-profiler records. */
    StatSet obs;
    /** Per-lane conformance roll-up (conform::LaneOracle::to_statset());
     *  empty unless the sweep ran with SweepOptions::conform on a
     *  shield cell. Like "obs", the JSONL field is emitted only when
     *  non-empty, so unconformed sweeps (and the golden files diffed in
     *  CI) serialize byte-identically. */
    StatSet conform;
};

bool operator==(const RunRecord &a, const RunRecord &b);

/** A baseline/shield record pair sharing every other coordinate. */
struct OverheadPair
{
    const RunRecord *baseline = nullptr;
    const RunRecord *shielded = nullptr;

    /** Shielded cycles normalized to baseline cycles. */
    double ratio() const;
};

/**
 * Joins records into (baseline, shield) pairs matched on every
 * coordinate except the shield flag; pairs appear in record order and
 * only when both sides completed ok with non-zero baseline cycles.
 */
std::vector<OverheadPair> pair_overheads(const std::vector<RunRecord> &records);

/** Collects the records of one sweep, ordered by cell index. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    explicit MetricsRegistry(std::size_t num_cells) { records_.resize(num_cells); }

    /**
     * Stores @p r at cell position @p index. Safe to call concurrently
     * for distinct indices (the vector is pre-sized at construction).
     */
    void
    record(std::size_t index, RunRecord r)
    {
        records_.at(index) = std::move(r);
    }

    const std::vector<RunRecord> &records() const { return records_; }

    /** One JSON object per record, one record per line. */
    void write_jsonl(std::ostream &os) const;

    /** Flat scalar columns; see csv_header(). */
    void write_csv(std::ostream &os) const;

    /**
     * Human-readable report: counts, failures, aborted kernels, geomean
     * shield overhead over the paired cells, and throughput when
     * @p wall_seconds > 0.
     */
    void write_summary(std::ostream &os, double wall_seconds = 0.0,
                       unsigned jobs = 1) const;

    static const std::vector<std::string> &csv_header();

    /** Parses write_jsonl() output back into records; throws
     *  SimulationError on malformed JSON, an unknown field, a field of
     *  the wrong type, or a counter that is not an unsigned 64-bit
     *  integer. */
    static std::vector<RunRecord> read_jsonl(std::istream &is);

  private:
    std::vector<RunRecord> records_;
};

/** The common escaper (common/json.h); perfbench/ calls it through
 *  this namespace. */
using gpushield::json_escape;

/** Quotes a CSV cell iff it contains a comma, quote, or newline. */
std::string csv_escape(const std::string &s);

/** Splits one CSV line emitted by write_csv() back into cells. */
std::vector<std::string> csv_split(const std::string &line);

/** Formats a double with fixed precision (CSV / table cells). */
std::string fmt(double v, int digits = 4);

/** Geometric mean of @p values (1.0 when empty). */
double geomean(const std::vector<double> &values);

/**
 * Plot-ready CSV side-channel retained from the original bench
 * harnesses: when the GPUSHIELD_CSV_DIR environment variable names a
 * directory, writes rows to `<dir>/<name>.csv`; otherwise every call
 * is a no-op.
 */
class CsvSink
{
  public:
    CsvSink(const std::string &name, const std::vector<std::string> &headers);

    /** Writes one comma-separated row (no-op when disabled). */
    void row(const std::vector<std::string> &cells);

  private:
    std::ofstream out_;
};

} // namespace gpushield::harness

#endif // GPUSHIELD_HARNESS_METRICS_H
