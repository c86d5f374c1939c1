/**
 * @file
 * Multi-tenant GPU service front end.
 *
 * A GpuService owns ONE simulated device and admits up to
 * ServiceConfig::max_tenants client contexts. Each tenant gets:
 *
 *  - a credential (tenant id + random 64-bit token) checked on every
 *    call — a tenant cannot operate on another tenant's buffers or
 *    queue by guessing ids;
 *  - its own Driver bound to the shared GpuDevice but restricted to a
 *    disjoint DriverPartition: a private slice of the 14-bit buffer-ID
 *    (RBT-namespace) space and of the 16-bit kernel-ID space, so RBT
 *    physical windows and BCU registrations can never collide across
 *    tenants, and a tenant exhausting its slice (a classic metadata-DoS
 *    vector, cf. Guardian) gets LaunchStatus::Error while every other
 *    tenant keeps launching;
 *  - a bounded submission queue (admission control: overflow rejects
 *    the submission instead of growing without bound);
 *  - a private key stream: each admit() seeds the tenant driver's RNG
 *    with the service seed + the credential token, so per-kernel
 *    pointer-signing keys are never shared or replayed across tenants
 *    or across evict()/admit() reuse of a partition slot.
 *
 * A scheduler drains the queues into the shared device through the
 * launch path api::Context uses (api::run_batch). Two modes:
 *
 *  - TimeSlice (default): round-robin over tenants, draining up to
 *    `quantum` submissions per turn; kernels are non-preemptive (as on
 *    real GPUs), so the slice boundary is kernel completion.
 *  - CoSchedule: one pending submission from every backlogged tenant
 *    runs concurrently, each restricted to a disjoint slice of the SMs
 *    via core masks (spatial partitioning).
 *
 * Every launch is tagged with its tenant: BCU violations carry
 * Violation::tenant, per-tenant StatSets aggregate kernel/shield
 * counters, and an attached obs::Profiler records tenant-tagged kernel
 * spans on the service-wide timeline. See docs/SERVICE.md.
 */

#ifndef GPUSHIELD_SERVICE_SERVICE_H
#define GPUSHIELD_SERVICE_SERVICE_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/gpushield_api.h"
#include "driver/driver.h"
#include "sim/config.h"

namespace gpushield::service {

/** Completion handle returned by submit(). */
using Ticket = std::uint64_t;

/** Proof of tenancy: checked on every tenant-scoped service call. */
struct Credential
{
    TenantId tenant = 0;
    std::uint64_t token = 0;
};

/** How the scheduler shares the device (see file comment). */
enum class SchedMode : std::uint8_t {
    TimeSlice,  //!< temporal: round-robin, whole device per slice
    CoSchedule, //!< spatial: disjoint SM partitions, one kernel each
};

/** Stable lower-case spelling of @p mode. */
const char *to_string(SchedMode mode);

/** Service-level configuration. */
struct ServiceConfig
{
    GpuConfig gpu = nvidia_config();
    unsigned max_tenants = 4;
    SchedMode mode = SchedMode::TimeSlice;
    /** Submissions drained per tenant per TimeSlice turn. */
    unsigned quantum = 1;
    /** Per-tenant pending-submission bound (admission control). */
    std::size_t queue_capacity = 64;
    /** Buffer IDs per tenant partition; 0 = split the space evenly. */
    std::size_t ids_per_tenant = 0;
    /** Kernel IDs per tenant partition; 0 = split the space evenly. */
    std::size_t kernels_per_tenant = 0;
    std::uint64_t seed = 0x5EB71CEull;
};

/** submit() admission outcome. */
enum class SubmitStatus : std::uint8_t {
    Accepted,
    QueueFull,      //!< per-tenant capacity reached; resubmit later
};

/** Outcome of a submit() call. */
struct SubmitResult
{
    SubmitStatus status = SubmitStatus::Accepted;
    Ticket ticket = 0; //!< valid only when Accepted
};

/** Completion record of one submission (valid once done). */
struct LaunchRecord
{
    Ticket ticket = 0;
    TenantId tenant = 0;
    std::string kernel_name;
    bool done = false;

    Cycle submit_time = 0;   //!< service clock when enqueued
    Cycle complete_time = 0; //!< service clock at completion

    /** Launch-to-completion latency on the service clock (queueing
     *  delay included — the fairness bench metric). */
    Cycle latency() const { return complete_time - submit_time; }

    /** How the launch ended, as api::Context::launch reports it;
     *  `result.cycles` is the device cycles the kernel actually ran. */
    api::LaunchResult result;
};

/** The multi-tenant GPU service (see file comment). */
class GpuService
{
  public:
    explicit GpuService(const ServiceConfig &cfg = {});

    /// @name Admission
    /// @{
    /**
     * Admits a client and returns its credential. Reuses the
     * lowest-numbered free partition slot (slots free on evict()), so
     * long-running services recycle partitions — the teardown ID-reuse
     * scenario the isolation suite attacks.
     * @throws SimulationError when all slots are occupied.
     */
    Credential admit(const std::string &name);

    /** Tears a tenant down: drops its queue (pending submissions
     *  complete as Error), frees its partition slot for re-admission.
     *  @throws std::invalid_argument on a bad credential. */
    void evict(const Credential &cred);

    unsigned num_tenants() const; //!< currently admitted
    /// @}

    /// @name Tenant-scoped device memory (credential-checked)
    /// Each throws std::invalid_argument on a bad credential, a zero
    /// size, a buffer handle that is not the tenant's, or a range past
    /// the buffer's end.
    /// @{
    BufferHandle create_buffer(const Credential &cred, std::uint64_t bytes,
                               const api::BufferDesc &desc = {});
    void upload(const Credential &cred, BufferHandle buffer,
                const void *data, std::size_t len, std::uint64_t offset = 0);
    void download(const Credential &cred, BufferHandle buffer, void *out,
                  std::size_t len, std::uint64_t offset = 0) const;
    VAddr address_of(const Credential &cred, BufferHandle buffer) const;
    /// @}

    /// @name Submission + scheduling
    /// @{
    /**
     * Enqueues a launch. The program/args are copied; execution happens
     * when the scheduler drains the tenant's queue (step()/drain()).
     * @throws std::invalid_argument on a bad credential, a program
     *         that fails KernelProgram::validate(), argument-binding
     *         misuse (count/kind mismatch), or a buffer handle that is
     *         not this tenant's. A launch the driver refuses later (a
     *         region over the 32-bit RBT size field or past its
     *         window, a local of zero bytes, RBT exhaustion) completes
     *         as LaunchStatus::Error.
     */
    SubmitResult submit(const Credential &cred,
                        const KernelProgram &program, api::Grid grid,
                        const std::vector<api::Arg> &args,
                        const api::LaunchOptions &options = {});

    /** Runs one scheduler turn. @return false when every queue was
     *  empty (nothing ran). */
    bool step();

    /** Steps until every queue is empty. */
    void drain();

    /** Pending submissions of @p tenant. */
    std::size_t pending(TenantId tenant) const;

    /** Completion record for @p ticket.
     *  @throws std::invalid_argument for an unknown ticket. */
    const LaunchRecord &record(Ticket ticket) const;
    /// @}

    /// @name Observability
    /// @{
    /** Service clock: total device cycles scheduled so far. */
    Cycle now() const { return now_; }

    /** Per-tenant aggregates (launches_ok/aborted/error, violations,
     *  exec_cycles, queue_rejects, plus merged kernel stats). */
    const StatSet &tenant_stats(TenantId tenant) const;

    /** Service-level counters (turns, launches, evictions, ...). */
    const StatSet &stats() const { return stats_; }

    /** Attaches a profiler: every scheduled launch is profiled onto the
     *  service-wide timeline with tenant-tagged kernel spans. Not
     *  owned; must outlive the service. nullptr detaches. */
    void attach_profiler(obs::Profiler *profiler) { profiler_ = profiler; }

    /** The tenant's driver (credential-gated; isolation tests use this
     *  to inspect partitions and RBT occupancy). */
    Driver &tenant_driver(const Credential &cred);

    const ServiceConfig &config() const { return cfg_; }
    GpuDevice &device() { return device_; }
    /// @}

  private:
    struct Pending
    {
        Ticket ticket = 0;
        KernelProgram program;
        api::Grid grid;
        std::vector<api::Arg> args;
        api::LaunchOptions options;
    };

    struct TenantCtx
    {
        TenantId id = 0; //!< slot + 1; stable across the slot's lifetime
        std::string name;
        std::uint64_t token = 0;
        bool active = false;
        std::uint64_t generation = 0; //!< admissions of this slot so far
        std::unique_ptr<Driver> driver;
        std::deque<Pending> queue;
        StatSet stats;
    };

    /** One submission and the SMs (`core_mask`) it may run on. */
    struct Job
    {
        TenantCtx *tenant = nullptr;
        Pending pending;
        std::uint64_t core_mask = ~std::uint64_t{0};
    };

    TenantCtx &authenticate(const Credential &cred);
    const TenantCtx &authenticate(const Credential &cred) const;
    DriverPartition partition_for_slot(unsigned slot) const;
    /** Runs @p jobs concurrently through api::run_batch, advances the
     *  service clock by its makespan and completes every job's record.
     *  The one launch path of both scheduler modes. */
    void run_batch(std::vector<Job> jobs);
    /** Runs one submission per backlogged tenant on disjoint SM sets. */
    bool run_coscheduled();

    ServiceConfig cfg_;
    GpuDevice device_;
    std::vector<TenantCtx> slots_;
    std::map<Ticket, LaunchRecord> records_;
    Ticket next_ticket_ = 1;
    unsigned rr_next_ = 0;
    Cycle now_ = 0;
    Rng rng_;
    obs::Profiler *profiler_ = nullptr;
    StatSet stats_;
};

} // namespace gpushield::service

#endif // GPUSHIELD_SERVICE_SERVICE_H
