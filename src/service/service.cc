#include "service/service.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"

namespace gpushield::service {

const char *
to_string(SchedMode mode)
{
    switch (mode) {
    case SchedMode::TimeSlice: return "timeslice";
    case SchedMode::CoSchedule: return "cosched";
    }
    return "unknown";
}

GpuService::GpuService(const ServiceConfig &cfg)
    : cfg_(cfg), device_(cfg.gpu.mem.page_size), rng_(cfg.seed)
{
    if (cfg_.max_tenants == 0)
        throw std::invalid_argument("service: max_tenants must be >= 1");
    if (cfg_.quantum == 0)
        cfg_.quantum = 1;
    if (cfg_.queue_capacity == 0)
        cfg_.queue_capacity = 1;

    // Partition sizing: every slot must fit inside the global ID spaces
    // (buffer IDs 1..kNumBufferIds-1, kernel IDs 1..0xFFFF).
    const std::size_t id_space = kNumBufferIds - 1;
    const std::size_t kernel_space = 0xFFFF;
    if (cfg_.ids_per_tenant == 0)
        cfg_.ids_per_tenant = id_space / cfg_.max_tenants;
    if (cfg_.kernels_per_tenant == 0)
        cfg_.kernels_per_tenant = kernel_space / cfg_.max_tenants;
    if (cfg_.ids_per_tenant == 0 || cfg_.kernels_per_tenant == 0 ||
        cfg_.ids_per_tenant * cfg_.max_tenants > id_space ||
        cfg_.kernels_per_tenant * cfg_.max_tenants > kernel_space)
        throw std::invalid_argument(
            "service: tenant partitions do not fit the ID spaces (" +
            std::to_string(cfg_.max_tenants) + " tenants x " +
            std::to_string(cfg_.ids_per_tenant) + " buffer IDs / " +
            std::to_string(cfg_.kernels_per_tenant) + " kernel IDs)");

    slots_.resize(cfg_.max_tenants);
    for (unsigned s = 0; s < cfg_.max_tenants; ++s)
        slots_[s].id = static_cast<TenantId>(s + 1);
}

DriverPartition
GpuService::partition_for_slot(unsigned slot) const
{
    DriverPartition p;
    p.id_first = static_cast<BufferId>(1 + slot * cfg_.ids_per_tenant);
    p.id_count = cfg_.ids_per_tenant;
    p.kernel_first =
        static_cast<KernelId>(1 + slot * cfg_.kernels_per_tenant);
    p.kernel_count = cfg_.kernels_per_tenant;
    p.tenant = static_cast<TenantId>(slot + 1);
    return p;
}

Credential
GpuService::admit(const std::string &name)
{
    for (unsigned s = 0; s < slots_.size(); ++s) {
        TenantCtx &t = slots_[s];
        if (t.active)
            continue;
        t.name = name;
        do {
            t.token = rng_.next64();
        } while (t.token == 0);
        t.active = true;
        ++t.generation;
        t.queue.clear();
        t.stats.clear();
        // Fresh driver per admission: a recycled slot gets a NEW key
        // stream (seed mixes the fresh token), so capabilities signed
        // before an evict can never validate for the slot's next owner.
        t.driver = std::make_unique<Driver>(device_, partition_for_slot(s),
                                            cfg_.seed ^ t.token);
        t.driver->set_shield_backend(cfg_.gpu.shield.backend);
        stats_.add("admissions");
        return Credential{t.id, t.token};
    }
    throw SimulationError("service full: " +
                          std::to_string(cfg_.max_tenants) +
                          " tenant slots occupied");
}

void
GpuService::evict(const Credential &cred)
{
    TenantCtx &t = authenticate(cred);
    // Pending submissions die with the tenant; their records complete
    // as errors so waiting tickets resolve rather than dangle.
    for (const Pending &p : t.queue) {
        LaunchRecord &rec = records_.at(p.ticket);
        rec.result.status = api::LaunchStatus::Error;
        rec.result.status_message = "tenant evicted before launch";
        rec.complete_time = now_;
        rec.done = true;
    }
    t.queue.clear();
    t.driver.reset();
    t.active = false;
    t.token = 0;
    stats_.add("evictions");
}

unsigned
GpuService::num_tenants() const
{
    unsigned n = 0;
    for (const TenantCtx &t : slots_)
        n += t.active ? 1u : 0u;
    return n;
}

GpuService::TenantCtx &
GpuService::authenticate(const Credential &cred)
{
    if (cred.tenant >= 1 && cred.tenant <= slots_.size()) {
        TenantCtx &t = slots_[cred.tenant - 1];
        if (t.active && cred.token != 0 && t.token == cred.token)
            return t;
    }
    stats_.add("auth_failures");
    throw std::invalid_argument("service: bad credential for tenant " +
                                std::to_string(cred.tenant));
}

const GpuService::TenantCtx &
GpuService::authenticate(const Credential &cred) const
{
    return const_cast<GpuService *>(this)->authenticate(cred);
}

BufferHandle
GpuService::create_buffer(const Credential &cred, std::uint64_t bytes,
                          const api::BufferDesc &desc)
{
    TenantCtx &t = authenticate(cred);
    return t.driver->create_buffer(bytes, desc.read_only, desc.pow2,
                                   desc.label);
}

void
GpuService::upload(const Credential &cred, BufferHandle buffer,
                   const void *data, std::size_t len, std::uint64_t offset)
{
    authenticate(cred).driver->upload(buffer, data, len, offset);
}

void
GpuService::download(const Credential &cred, BufferHandle buffer, void *out,
                     std::size_t len, std::uint64_t offset) const
{
    authenticate(cred).driver->download(buffer, out, len, offset);
}

VAddr
GpuService::address_of(const Credential &cred, BufferHandle buffer) const
{
    return authenticate(cred).driver->region(buffer).base;
}

Driver &
GpuService::tenant_driver(const Credential &cred)
{
    return *authenticate(cred).driver;
}

const StatSet &
GpuService::tenant_stats(TenantId tenant) const
{
    if (tenant < 1 || tenant > slots_.size())
        throw std::invalid_argument("service: unknown tenant " +
                                    std::to_string(tenant));
    return slots_[tenant - 1].stats;
}

SubmitResult
GpuService::submit(const Credential &cred, const KernelProgram &program,
                   api::Grid grid, const std::vector<api::Arg> &args,
                   const api::LaunchOptions &options)
{
    TenantCtx &t = authenticate(cred);
    // Validate and bind now so a malformed program, argument-count/
    // kind misuse or another tenant's buffer handle throws at submit
    // time (the api::Context contract), not inside the scheduler.
    (void)api::make_launch_config(*t.driver, program, grid, args, options);

    if (t.queue.size() >= cfg_.queue_capacity) {
        t.stats.add("queue_rejects");
        stats_.add("queue_rejects");
        return SubmitResult{SubmitStatus::QueueFull, 0};
    }

    Pending p;
    p.ticket = next_ticket_++;
    p.program = program;
    p.grid = grid;
    p.args = args;
    p.options = options;
    LaunchRecord &rec = records_[p.ticket];
    rec.ticket = p.ticket;
    rec.tenant = t.id;
    rec.kernel_name = program.name;
    rec.submit_time = now_;
    t.queue.push_back(std::move(p));
    t.stats.add("submissions");
    stats_.add("submissions");
    return SubmitResult{SubmitStatus::Accepted, next_ticket_ - 1};
}

std::size_t
GpuService::pending(TenantId tenant) const
{
    if (tenant < 1 || tenant > slots_.size())
        return 0;
    return slots_[tenant - 1].queue.size();
}

const LaunchRecord &
GpuService::record(Ticket ticket) const
{
    const auto it = records_.find(ticket);
    if (it == records_.end())
        throw std::invalid_argument("service: unknown ticket " +
                                    std::to_string(ticket));
    return it->second;
}

void
GpuService::run_batch(std::vector<Job> jobs)
{
    std::vector<api::BatchJob> launches;
    for (const Job &job : jobs) {
        const Pending &p = job.pending;
        launches.push_back(
            {job.tenant->driver.get(),
             api::make_launch_config(*job.tenant->driver, p.program, p.grid,
                                     p.args, p.options),
             job.core_mask});
    }
    api::BatchResult batch =
        api::run_batch(cfg_.gpu, launches, profiler_, now_, nullptr);

    // A launch the driver refused completes when the batch starts, one
    // that ran when the batch ends. Either way the tenant keeps its
    // slot and its later submissions proceed.
    const Cycle start = now_;
    now_ += batch.makespan;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        StatSet &tenant = jobs[j].tenant->stats;
        LaunchRecord &rec = records_.at(jobs[j].pending.ticket);
        rec.result = std::move(batch.results[j]);
        rec.complete_time = batch.launched[j] ? now_ : start;
        rec.done = true;
        tenant.add("launches");
        switch (rec.result.status) {
        case api::LaunchStatus::Ok: tenant.add("launches_ok"); break;
        case api::LaunchStatus::Aborted: tenant.add("launches_aborted"); break;
        case api::LaunchStatus::Error: tenant.add("launches_error"); break;
        }
        tenant.add("violations", rec.result.violations.size());
        tenant.add("exec_cycles", rec.result.cycles);
        tenant.add("latency_cycles", rec.latency());
        tenant.merge(rec.result.stats);
        stats_.add("launches");
    }
}

bool
GpuService::run_coscheduled()
{
    // One pending submission per backlogged tenant, each on its own
    // contiguous slice of the SMs (§6.2 inter-core sharing).
    std::vector<TenantCtx *> ready;
    for (TenantCtx &t : slots_)
        if (t.active && !t.queue.empty())
            ready.push_back(&t);
    if (ready.empty())
        return false;

    const unsigned cores = cfg_.gpu.num_cores;
    if (ready.size() > cores)
        ready.resize(cores); // the rest run next turn
    const unsigned per = cores / static_cast<unsigned>(ready.size());

    std::vector<Job> jobs;
    for (std::size_t i = 0; i < ready.size(); ++i) {
        TenantCtx &t = *ready[i];
        // Partition mask: tenant i gets cores [i*per, (i+1)*per), the
        // last tenant absorbing the remainder.
        const unsigned lo = static_cast<unsigned>(i) * per;
        const unsigned hi =
            i + 1 == ready.size() ? cores : lo + per;
        std::uint64_t mask = 0;
        for (unsigned c = lo; c < hi; ++c)
            mask |= std::uint64_t{1} << c;
        jobs.push_back({&t, std::move(t.queue.front()), mask});
        t.queue.pop_front();
    }
    run_batch(std::move(jobs));
    stats_.add("cosched_batches");
    return true;
}

bool
GpuService::step()
{
    if (cfg_.mode == SchedMode::CoSchedule) {
        const bool ran = run_coscheduled();
        if (ran)
            stats_.add("turns");
        return ran;
    }

    // TimeSlice: round-robin to the next backlogged tenant, drain up to
    // `quantum` of its submissions, move the cursor past it.
    for (unsigned probe = 0; probe < slots_.size(); ++probe) {
        const unsigned slot =
            (rr_next_ + probe) % static_cast<unsigned>(slots_.size());
        TenantCtx &t = slots_[slot];
        if (!t.active || t.queue.empty())
            continue;
        for (unsigned q = 0; q < cfg_.quantum && !t.queue.empty(); ++q) {
            const std::uint64_t mask = t.queue.front().options.core_mask;
            std::vector<Job> batch;
            batch.push_back({&t, std::move(t.queue.front()), mask});
            t.queue.pop_front();
            run_batch(std::move(batch));
        }
        t.stats.add("turns");
        stats_.add("turns");
        rr_next_ = (slot + 1) % static_cast<unsigned>(slots_.size());
        return true;
    }
    return false;
}

void
GpuService::drain()
{
    while (step()) {
    }
}

} // namespace gpushield::service
