/**
 * @file
 * High-level host API — the CUDA-runtime-like facade over the full
 * stack. A downstream user who just wants "run my kernel under
 * GPUShield" uses this and never touches the driver, simulator, or
 * launch plumbing directly:
 *
 *   gpushield::api::Context ctx;                  // Nvidia-like GPU
 *   auto a = ctx.malloc(n * 4, {.label = "A"});
 *   ctx.upload(a, host_data, n * 4);
 *   auto r = ctx.launch(program, {256, 64}, {api::arg(a), api::arg(n)});
 *   if (!r.violations.empty()) ...                // attack caught
 *   ctx.download(a, host_data, n * 4);
 *
 * ## Error-reporting contract
 *
 * `Context::launch` separates two failure worlds:
 *
 *  - **Host-API misuse** — a malformed program (register, target or
 *    index outside its declared ranges), wrong argument count, buffer
 *    passed where a scalar is declared (or vice versa) — throws
 *    `std::invalid_argument` at bind time, before any simulation runs.
 *    These are bugs in the calling host program. `malloc(0)`, a
 *    `malloc` the rest of the device's global window cannot hold, an
 *    unknown buffer, and an `upload`/`download` past a buffer's end
 *    throw it too.
 *  - **Simulated-program outcomes** never throw. They come back on
 *    `LaunchResult::status`: `Ok` (ran to completion; bounds violations
 *    in error-logging mode still count as Ok — inspect
 *    `LaunchResult::violations`), `Aborted` (the simulated kernel was
 *    killed: translation fault, or a bounds violation on a
 *    precise-exception GPU), or `Error` (the simulation itself gave up:
 *    cycle budget exhausted / deadlock; or the driver refused the
 *    launch: RBT exhaustion, a region over the 32-bit RBT size field
 *    or past its allocator's window).
 *    `status_message` carries the human-readable cause for anything
 *    but Ok.
 *
 * `Context::launch` and the multi-tenant service (src/service/) run
 * their launches through one function, `run_batch`, so both report
 * these outcomes the same way.
 *
 * ## Profiling
 *
 * `attach_profiler()` attributes every warp-cycle of later launches to
 * a stall cause (see src/obs/profiler.h and docs/PROFILING.md).
 * Successive launches land on the profiler's single timeline, one
 * after the other. GT-Pin-style instruction observers attach via
 * `attach()`.
 */

#ifndef GPUSHIELD_API_GPUSHIELD_API_H
#define GPUSHIELD_API_GPUSHIELD_API_H

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "driver/driver.h"
#include "obs/profiler.h"
#include "sim/config.h"
#include "sim/observer.h"

namespace gpushield::api {

/** Opaque device-buffer handle. */
using Buffer = BufferHandle;

/** Kernel grid shape. */
struct Grid
{
    std::uint32_t threads_per_block = 256;
    std::uint32_t blocks = 1;
};

/** Allocation options for Context::malloc (designated-initializer
 *  friendly: `ctx.malloc(n, {.read_only = true, .label = "A"})`). */
struct BufferDesc
{
    bool read_only = false; //!< stores through this buffer violate
    bool pow2 = false;      //!< round the region up for Type 3 pointers
    std::string label;      //!< debugging / trace name
};

/** Whether a scalar argument's value is a host-code literal the static
 *  analysis may rely on (Fig. 5's host-code analysis). */
enum class Static : std::uint8_t { no, yes };

/**
 * One kernel argument: a buffer or a scalar. Construct through the
 * arg() factories; inspect through the typed accessors.
 */
class Arg
{
  public:
    /** Buffer argument. */
    static Arg
    of(Buffer buffer)
    {
        return Arg(buffer);
    }

    /** Scalar argument. */
    static Arg
    of(std::int64_t scalar, Static statically_known)
    {
        return Arg(Scalar{scalar, statically_known == Static::yes});
    }

    bool
    is_buffer() const
    {
        return std::holds_alternative<Buffer>(value_);
    }

    /** The buffer; requires is_buffer(). */
    Buffer buffer() const { return std::get<Buffer>(value_); }

    /** The scalar value; requires !is_buffer(). */
    std::int64_t scalar() const { return std::get<Scalar>(value_).value; }

    /** Whether the scalar is statically known; requires !is_buffer(). */
    bool
    scalar_static() const
    {
        return std::get<Scalar>(value_).statically_known;
    }

  private:
    struct Scalar
    {
        std::int64_t value = 0;
        bool statically_known = false;
    };

    explicit Arg(Buffer b) : value_(b) {}
    explicit Arg(Scalar s) : value_(s) {}

    std::variant<Buffer, Scalar> value_;
};

/** Binds a buffer argument. */
inline Arg
arg(Buffer buffer)
{
    return Arg::of(buffer);
}

/** Binds a scalar argument; pass Static::yes for host literals the
 *  static analysis may rely on. */
inline Arg
arg(std::int64_t scalar, Static statically_known = Static::no)
{
    return Arg::of(scalar, statically_known);
}

/** Per-launch protection options. */
struct LaunchOptions
{
    bool shield = true;            //!< GPUShield on
    bool static_analysis = true;   //!< elide proven-safe checks
    bool replace_sw_checks = false;//!< §6.4 guard replacement
    std::uint64_t heap_bytes = 0;  //!< device-malloc limit
    std::uint64_t core_mask = ~std::uint64_t{0};
};

/** How a launch ended (see the error-reporting contract above). */
enum class LaunchStatus : std::uint8_t {
    Ok,      //!< ran to completion (violations may still be logged)
    Aborted, //!< simulated kernel killed (fault / precise exception)
    Error,   //!< simulation gave up or the driver refused the launch
};

/** Stable lower-case spelling of @p status. */
const char *to_string(LaunchStatus status);

/**
 * Binds @p args to @p program positionally and returns the driver-level
 * launch configuration for @p driver. Shared by Context::launch and the
 * multi-tenant service front end (src/service/), which drives
 * per-tenant Drivers directly. The returned config aliases @p program —
 * the program must outlive any Driver::launch performed with it.
 * @throws std::invalid_argument when @p program fails
 *         KernelProgram::validate(), on argument count/kind mismatch,
 *         on a pointer argument whose buffer_index lies outside
 *         [0, args.size()), or on a buffer @p driver never made.
 */
LaunchConfig make_launch_config(const Driver &driver,
                                const KernelProgram &program, Grid grid,
                                const std::vector<Arg> &args,
                                const LaunchOptions &options);

/** Result of a synchronous launch. */
struct LaunchResult
{
    LaunchStatus status = LaunchStatus::Ok;
    std::string status_message; //!< empty when status == Ok
    Cycle cycles = 0;
    std::vector<Violation> violations;
    std::vector<CanaryReport> canaries;
    StatSet stats;
    double l1_rcache_hit_rate = 0.0;
    /** Tagged pointers and scalars the kernel's arguments held
     *  (capability forensics: the service's isolation suite replays
     *  them across tenants). Empty when the driver refused the launch. */
    std::vector<std::uint64_t> arg_values;

    bool ok() const { return status == LaunchStatus::Ok; }
};

/** One launch of a run_batch() batch. */
struct BatchJob
{
    Driver *driver = nullptr; //!< builds the launch and services it
    LaunchConfig config;      //!< from make_launch_config()
    std::uint64_t core_mask = ~std::uint64_t{0}; //!< SMs it may use
};

/** Outcome of run_batch(). */
struct BatchResult
{
    std::vector<LaunchResult> results; //!< one per job, in job order
    /** Per job: false when its driver refused it, so it never ran. */
    std::vector<bool> launched;
    Cycle makespan = 0; //!< device cycles the batch ran
};

/**
 * The launch path of Context::launch and the multi-tenant service:
 * runs @p jobs together on one Gpu built from @p config. A launch its
 * driver or the Gpu refuses, and every launch of a batch whose run
 * fails (cycle budget, deadlock), ends as LaunchStatus::Error; a
 * kernel killed by a fault or a precise exception ends as Aborted.
 * Every launched job is finished on its driver (canaries checked, IDs
 * released).
 * @param profiler  records the batch at @p time_base when non-null
 * @param observer  sees every launched instruction when non-null
 * @pre @p jobs is non-empty and every driver is bound to one device.
 * @throws std::invalid_argument, before any job launches, for a
 *         @p config whose cache or RCache geometry the Gpu refuses.
 */
BatchResult run_batch(const GpuConfig &config,
                      const std::vector<BatchJob> &jobs,
                      obs::Profiler *profiler, Cycle time_base,
                      LaneObserver *observer);

/**
 * A GPU context: device memory + driver + one simulated GPU. Launches
 * are synchronous (each runs the cycle loop to completion).
 */
class Context
{
  public:
    explicit Context(const GpuConfig &config = nvidia_config(),
                     std::uint64_t seed = 0xD81EE5ull);

    /// @name Memory management
    /// @{
    Buffer malloc(std::uint64_t bytes, const BufferDesc &desc = {});

    void upload(Buffer buffer, const void *data, std::size_t len,
                std::uint64_t offset = 0);
    void download(Buffer buffer, void *out, std::size_t len,
                  std::uint64_t offset = 0) const;
    /** Buffer's device virtual address (for layout-aware tests). */
    VAddr address_of(Buffer buffer) const;
    /// @}

    /**
     * Launches @p program synchronously and returns the outcome.
     * @throws std::invalid_argument on host-API misuse (a program that
     *         fails KernelProgram::validate(), argument count/kind
     *         mismatch, a buffer this context never made);
     *         simulated-program faults never throw — see
     *         LaunchResult::status.
     */
    LaunchResult launch(const KernelProgram &program, Grid grid,
                        const std::vector<Arg> &args,
                        const LaunchOptions &options = {});

    /// @name Observability
    /// @{
    /** Attaches a GT-Pin-style instruction observer to subsequent
     *  launches (not owned; must outlive the launches). */
    void attach(LaneObserver &observer) { observer_ = &observer; }

    /** Detaches the instruction observer. */
    void detach_observer() { observer_ = nullptr; }

    /** Attaches a stall-attribution profiler to subsequent launches;
     *  each lands on its timeline after the one before. Not owned;
     *  must outlive the launches. nullptr detaches. */
    void attach_profiler(obs::Profiler *profiler) { profiler_ = profiler; }
    /// @}

    const GpuConfig &config() const { return config_; }
    Driver &driver() { return driver_; }
    GpuDevice &device() { return device_; }

  private:
    GpuConfig config_;
    GpuDevice device_;
    Driver driver_;
    LaneObserver *observer_ = nullptr;
    obs::Profiler *profiler_ = nullptr;
    /** Each launch simulates from cycle 0; this offset strings profiled
     *  launches onto one trace timeline. */
    Cycle profile_time_base_ = 0;
};

} // namespace gpushield::api

#endif // GPUSHIELD_API_GPUSHIELD_API_H
