/**
 * @file
 * Sweep executor: runs every cell of a SweepSpec as an independent
 * simulation, optionally fanned out over a work-stealing thread pool.
 *
 * Isolation & determinism: each cell constructs its own GpuDevice and
 * Driver seeded from the cell's coordinates (harness/sweep.h), so cells
 * share no mutable state and N-way parallel sweeps emit bit-identical
 * records to serial ones. A cell that fails (SimulationError, bad spec,
 * any std::exception) yields a structured !ok record; sibling cells are
 * unaffected.
 */

#ifndef GPUSHIELD_HARNESS_EXECUTOR_H
#define GPUSHIELD_HARNESS_EXECUTOR_H

#include <iosfwd>

#include "harness/metrics.h"
#include "harness/sweep.h"

namespace gpushield::harness {

struct SweepOptions
{
    unsigned jobs = 1;                //!< worker threads (1 = run inline)
    std::ostream *progress = nullptr; //!< per-cell progress lines, if set
    /** Attach a stall-attribution profiler to every cell and record its
     *  roll-up in RunRecord::obs. Off by default: profiled records grow
     *  an extra JSONL field, and golden-file comparisons expect the
     *  unprofiled form. */
    bool profile = false;
    /** Attach the per-lane conformance oracle (conform::LaneOracle) to
     *  every shield cell and record its roll-up in RunRecord::conform.
     *  Off by default for the same reason as profile: the extra JSONL
     *  field would break golden-file comparisons. Baseline (shield-off)
     *  and multi-launch cells are unaffected. */
    bool conform = false;
};

/** A finished sweep: the records plus how the run went operationally. */
struct SweepResult
{
    MetricsRegistry metrics;
    double wall_seconds = 0.0;
    unsigned jobs = 1;

    /** True when every cell completed ok. */
    bool all_ok() const;

    /** Convenience: write_summary with this run's wall clock / jobs. */
    void summarize(std::ostream &os) const;
};

/**
 * Runs cell @p index of @p spec in isolation and returns its record.
 * Never throws: failures come back as !ok records. With @p profile the
 * cell runs under a private obs::Profiler and the record carries the
 * stall-attribution roll-up in RunRecord::obs. With @p conform, shield
 * cells additionally run under a conform::LaneOracle and the record
 * carries its counters in RunRecord::conform.
 */
RunRecord run_cell(const SweepSpec &spec, std::size_t index,
                   bool profile = false, bool conform = false);

/** Runs the whole grid; records are ordered by cell index. */
SweepResult run_sweep(const SweepSpec &spec, const SweepOptions &opts = {});

} // namespace gpushield::harness

#endif // GPUSHIELD_HARNESS_EXECUTOR_H
