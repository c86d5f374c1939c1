// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--reduced] [--spans-out <file>]
//
// Runs one workload's cells back to back on this thread (a closed loop
// with one client) and prints, as the last line of standard output, a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 is the timed phase: untraced passes repeat while another
// fits in --seconds (at least three), each cell followed by a few runs
// of its set-up alone, and the end-to-end host times are per-cell minima.
// --trace 1 gives the per-layer metrics: untraced and traced passes
// alternate (simulated counters from the first untraced pass; spans
// around each layer call plus the host engine profiler from the last
// traced pass; tracing overhead from the pass medians), then one pass
// under the stall-attribution profiler (simulated numbers only: it
// forces per-cycle ticking), then the shield-check micro-timings. Every
// pass of one invocation must yield the same sim_digest; a cell that
// fails, aborts or reports a violation counts as a failed operation.

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "harness/metrics.h"
#include "obs/engine_profile.h"
#include "passes.h"

namespace {

using namespace perfbench;

// Set-up is ~1% of a pass, so each cell's set-up is repeated on its own
// right after the cell: the samples then spread over the whole run
// instead of one stretch of it.
constexpr unsigned kSetupRepeats = 4;

// Untraced/traced pass pairs of a --trace 1 run.
constexpr unsigned kTracePairs = 2;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool reduced = false;
    std::string spans_out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--reduced] "
                 "[--spans-out <file>]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                o.workload = value();
            } else if (arg == "--seed") {
                o.seed = std::stoull(value());
                have_seed = true;
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value());
            } else if (arg == "--trace") {
                o.trace = std::stoi(value());
            } else if (arg == "--spans-out") {
                o.spans_out = value();
            } else if (arg == "--reduced") {
                o.reduced = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (o.workload.empty() || !have_seed || !(o.seconds > 0.0) ||
        (o.trace != 0 && o.trace != 1))
        usage("--workload, --seed, --seconds > 0 and --trace 0|1 are "
              "required");
    return o;
}

std::string
num(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/** Resident-set high-water mark of this process image. VmHWM, unlike
 *  getrusage's ru_maxrss, starts afresh at exec, so the launching
 *  process's footprint does not leak into it. */
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/** The sanitizer the benchmark was compiled with, or "" for none. */
const char *
sanitizer()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#else
    return "";
#endif
}

bool
optimized()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

void
print_meta(const Options &o, std::size_t cells)
{
    const char *sha = std::getenv("PERFBENCH_GIT_SHA");
    std::cout << "{\"meta\": {\"workload\": \""
              << gpushield::harness::json_escape(o.workload)
              << "\", \"seed\": " << o.seed << ", \"seconds\": "
              << num(o.seconds) << ", \"trace\": " << o.trace
              << ", \"reduced\": " << (o.reduced ? "true" : "false")
              << ", \"cells\": " << cells << ", \"git_sha\": \""
              << gpushield::harness::json_escape(sha ? sha : "unknown")
              << "\", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"compiler\": \"g++ " << __VERSION__
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"optimized\": " << (optimized() ? "true" : "false")
              << ", \"sanitizer\": \"" << sanitizer() << "\"}}\n";
    const bool sanitized = *sanitizer() != '\0';
    if (!optimized() || sanitized)
        std::cerr << "perfbench: WARNING: build is "
                  << (optimized() ? "" : "not optimized ")
                  << (sanitized ? "sanitized" : "")
                  << "; host timings are not comparable\n";
}

void
write_spans(const std::string &path, const Tracer &tracer)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
    const std::vector<Span> &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
        out << "{\"id\": " << i << ", \"name\": \"" << spans[i].name
            << "\", \"cell\": " << spans[i].cell
            << ", \"parent\": " << spans[i].parent
            << ", \"start\": " << num(spans[i].start)
            << ", \"end\": " << num(spans[i].end) << "}\n";
}

int
run(const Options &o)
{
    const gpushield::harness::SweepSpec spec =
        make_workload(o.workload, o.reduced);
    print_meta(o, spec.cells.size());

    std::vector<PassResult> passes;
    Metrics metrics;
    const auto t0 = std::chrono::steady_clock::now();
    if (o.trace == 0) {
        double rss_mb = 0.0;
        for (;;) {
            passes.push_back(run_pass(spec, o.seed, Hooks{}, kSetupRepeats));
            // Peak RSS is taken over the first pass (every cell once):
            // heap fragmentation lets the high-water mark creep with the
            // pass count, which depends on host speed.
            if (passes.size() == 1)
                rss_mb = peak_rss_mb();
            // Later passes contribute timings and a digest only.
            if (passes.size() > 1)
                for (CellResult &c : passes.back().cells) {
                    c.record = {};
                    c.driver = {};
                }
            // Stop before a pass that would overrun --seconds.
            const double elapsed = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() - t0)
                                       .count();
            if (passes.size() >= 3 &&
                elapsed * (passes.size() + 1) / passes.size() > o.seconds)
                break;
        }
        metrics = end_to_end_metrics(spec, passes, rss_mb);
    } else {
        std::vector<PassResult> untraced, traced;
        std::vector<double> traced_compiler_s;
        std::optional<Tracer> tracer;
        std::optional<gpushield::obs::HostEngineProfiler> engine;
        for (unsigned k = 0; k < kTracePairs; ++k) {
            untraced.push_back(run_pass(spec, o.seed, Hooks{}));
            tracer.emplace();
            engine.emplace();
            Hooks hooks;
            hooks.tracer = &*tracer;
            hooks.engine = &*engine;
            hooks.compiler = true;
            traced.push_back(run_pass(spec, o.seed, hooks));
            traced_compiler_s.push_back(tracer->total("compiler.analyze") +
                                        tracer->total("compiler.check_opt"));
        }
        Hooks profiled;
        profiled.profile = true;
        const PassResult stalls = run_pass(spec, o.seed, profiled);

        add_counter_metrics(untraced.front(), metrics);
        add_traced_metrics(traced, traced_compiler_s, *tracer, *engine,
                           untraced, metrics);
        add_model_metrics(spec, stalls, metrics);
        add_shield_micro_metrics(metrics);
        if (!o.spans_out.empty())
            write_spans(o.spans_out, *tracer);
        passes = std::move(untraced);
        passes.insert(passes.end(), std::make_move_iterator(traced.begin()),
                      std::make_move_iterator(traced.end()));
        passes.push_back(stalls);
    }

    unsigned attempted = 0, failed = 0;
    bool stable = true;
    for (const PassResult &p : passes) {
        attempted += static_cast<unsigned>(p.cells.size());
        failed += p.failed;
        stable &= p.sim_digest == passes.front().sim_digest;
    }
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(passes.front().sim_digest));
    std::cout << "sim_digest " << o.workload << " " << digest << " over "
              << passes.size() << " passes: "
              << (stable ? "stable" : "UNSTABLE") << "\n";

    bool finite = true;
    for (const auto &[name, m] : metrics) {
        finite &= std::isfinite(m.value);
        std::cout << "  " << name << " = " << num(m.value) << " " << m.unit;
        if (!m.base.empty()) {
            const auto base = metrics.find(m.base);
            std::cout << "  (base " << m.base << " = "
                      << num(base != metrics.end() ? base->second.value
                                                   : m.base_value)
                      << ")";
        }
        std::cout << "\n";
    }

    const bool correct = failed == 0 && stable && finite;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, m] : metrics) {
        std::cout << sep << "\"" << name << "\": {\"value\": "
                  << (std::isfinite(m.value) ? num(m.value) : "0")
                  << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
