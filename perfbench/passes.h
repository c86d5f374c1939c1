/**
 * @file
 * Passes over a workload and the metrics computed from them.
 *
 * A pass runs every cell of the workload once, back to back on this
 * thread, then serializes the records with MetricsRegistry::write_jsonl.
 * The timed phase repeats untraced passes; the layer breakdown comes
 * from traced passes alternating with untraced ones and one
 * stall-profiled pass (see main.cc).
 */

#ifndef PERFBENCH_PASSES_H
#define PERFBENCH_PASSES_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cells.h"

namespace perfbench {

/** One pass over every cell of a workload. */
struct PassResult
{
    std::vector<CellResult> cells;
    /** Set-up seconds of the set-up-only repeats run right after each
     *  cell (Hooks::setup_only); indexed [cell][repeat]. */
    std::vector<std::vector<double>> setup_only_s;
    /** MetricsRegistry::write_jsonl of the records, which leave out
     *  host-only fields and the profiler roll-up. */
    double write_jsonl_s = 0.0;
    double wall_s = 0.0; //!< Σ cell wall + write_jsonl
    /** FNV-1a over that JSONL: every simulated counter. */
    std::uint64_t sim_digest = 0;
    unsigned failed = 0; //!< cells not ok, aborted, or with violations
};

/** Runs every cell once with @p hooks; after each cell, runs its set-up
 *  alone @p setup_repeats more times. */
PassResult run_pass(const gpushield::harness::SweepSpec &spec,
                    std::uint64_t seed, const Hooks &hooks,
                    unsigned setup_repeats = 0);

/** A metric as printed: value, unit and, for ratios, the base count. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::string base; //!< name of the count this ratio divides by
    /** Value of the base when it is not itself a printed metric. */
    double base_value = 0.0;
};

using Metrics = std::map<std::string, Metric>;

/** End-to-end metrics from repeated untraced passes. Host times are
 *  per-cell minima, summed: the work of a cell is deterministic, so its
 *  fastest repeat is the one least slowed by other load on the host.
 *  setup_s also draws on each pass's set-up-only repeats. */
Metrics end_to_end_metrics(const gpushield::harness::SweepSpec &spec,
                           const std::vector<PassResult> &repeats,
                           double peak_rss_mb);

/** Simulated per-layer counters of one (untraced) pass. */
void add_counter_metrics(const PassResult &pass, Metrics &out);

/** Host per-layer times of the last traced pass, and the tracing
 *  overhead: median traced pass wall (less its extra compiler calls)
 *  over median untraced pass wall, from alternating passes. */
void add_traced_metrics(const std::vector<PassResult> &traced,
                        const std::vector<double> &traced_compiler_s,
                        const Tracer &tracer,
                        const gpushield::obs::HostEngineProfiler &engine,
                        const std::vector<PassResult> &untraced,
                        Metrics &out);

/** Shield-minus-base stall attribution of the profiled pass. */
void add_model_metrics(const gpushield::harness::SweepSpec &spec,
                       const PassResult &profiled, Metrics &out);

/** Host micro-timings of ShieldBackend::check (micro.cc). */
void add_shield_micro_metrics(Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_PASSES_H
