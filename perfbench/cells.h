/**
 * @file
 * Benchmark workloads and the instrumented cell runner.
 *
 * A workload is a frozen list of sweep cells (harness::SweepSpec). The
 * runner executes one cell the way the sweep executor does, but calls
 * each layer's public entry point itself so that it can time the call
 * from outside: BenchmarkDef::make, Driver::launch / finish, Gpu
 * construction and Gpu::run. Nothing inside src/ is instrumented.
 */

#ifndef PERFBENCH_CELLS_H
#define PERFBENCH_CELLS_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness/metrics.h"
#include "harness/sweep.h"

namespace gpushield::obs {
class HostEngineProfiler;
}

namespace perfbench {

using gpushield::StatSet;

/**
 * Cells of workload @p name. With @p reduced only the first few
 * benchmarks of each list are kept (self-test size). Throws
 * std::invalid_argument for an unknown name.
 */
gpushield::harness::SweepSpec make_workload(const std::string &name,
                                            bool reduced);

/** One recorded span: a timed call into a layer. Times are seconds
 *  since the tracer was created. */
struct Span
{
    std::string name;
    int cell = -1;   //!< cell index; -1 for pass-level spans
    int parent = -1; //!< index of the enclosing span; -1 for a root
    double start = 0.0;
    double end = 0.0;
};

/** In-memory span recorder; spans are written out only at the end. */
class Tracer
{
  public:
    Tracer();

    /** Opens a span nested in the innermost open one; returns its id. */
    int begin(const char *name, int cell);
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Σ duration of every span called @p name, in seconds. */
    double total(const std::string &name) const;

  private:
    double now() const;

    std::int64_t origin_ns_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a no-op when the tracer is null. */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name, int cell)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, cell) : -1)
    {
    }
    ~SpanScope()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/** Optional observers for one pass; all null in the timed pass. */
struct Hooks
{
    Tracer *tracer = nullptr;
    gpushield::obs::HostEngineProfiler *engine = nullptr;
    /** Stall-attribution profiling: each cell gets its own profiler and
     *  its roll-up lands in RunRecord::obs. */
    bool profile = false;
    /** Also time the compiler passes from outside the driver:
     *  analyze_kernel on every launch, optimize_checks on the launches
     *  that request it. */
    bool compiler = false;
    /** Stop before the first Gpu::run: only setup_s is meaningful. */
    bool setup_only = false;
};

/** Compiler-layer counts, read off each LaunchState the driver built. */
struct CompilerCounts
{
    std::uint64_t rows = 0;        //!< BAT rows (memory instructions)
    std::uint64_t static_safe = 0; //!< rows proven in bounds
    std::uint64_t covered = 0;     //!< rows check-opt moved off per-access
};

/** Everything one cell produced. */
struct CellResult
{
    gpushield::harness::RunRecord record;
    double wall_s = 0.0;  //!< whole cell, set-up to last finish
    /** device/driver, make, Gpu ctor, the launches before Gpu::run */
    double setup_s = 0.0;
    std::uint64_t warp_insts = 0;
    StatSet driver; //!< Driver::stats() at the end of the cell
    CompilerCounts compiler;
};

/**
 * Runs cell @p index of @p spec with the driver seed folded from
 * @p seed. Never throws: a failing cell comes back with
 * record.ok == false and record.error set.
 */
CellResult run_cell(const gpushield::harness::SweepSpec &spec,
                    std::size_t index, std::uint64_t seed,
                    const Hooks &hooks);

/** Key that a shield cell shares with its baseline cell. */
std::string pair_key(const gpushield::harness::SweepSpec &spec,
                     std::size_t index);

} // namespace perfbench

#endif // PERFBENCH_CELLS_H
