#include "api/gpushield_api.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common/log.h"
#include "sim/gpu.h"

namespace gpushield::api {

const char *
to_string(LaunchStatus status)
{
    switch (status) {
    case LaunchStatus::Ok: return "ok";
    case LaunchStatus::Aborted: return "aborted";
    case LaunchStatus::Error: return "error";
    }
    return "unknown";
}

Context::Context(const GpuConfig &config, std::uint64_t seed)
    : config_(config), device_(config.mem.page_size),
      driver_(device_, {}, seed)
{
    driver_.set_shield_backend(config.shield.backend);
}

Buffer
Context::malloc(std::uint64_t bytes, const BufferDesc &desc)
{
    return driver_.create_buffer(bytes, desc.read_only, desc.pow2,
                                 desc.label);
}

void
Context::upload(Buffer buffer, const void *data, std::size_t len,
                std::uint64_t offset)
{
    driver_.upload(buffer, data, len, offset);
}

void
Context::download(Buffer buffer, void *out, std::size_t len,
                  std::uint64_t offset) const
{
    driver_.download(buffer, out, len, offset);
}

VAddr
Context::address_of(Buffer buffer) const
{
    return driver_.region(buffer).base;
}

LaunchConfig
make_launch_config(const Driver &driver, const KernelProgram &program,
                   Grid grid, const std::vector<Arg> &args,
                   const LaunchOptions &options)
{
    // Host-API misuse throws (the contract in the header); everything
    // the simulated program does is reported via LaunchResult::status.
    // The program may come from a tenant: a register or target outside
    // its declared ranges would otherwise be dereferenced by the core.
    program.validate();
    if (args.size() != program.args.size())
        throw std::invalid_argument(
            "api::launch: argument count mismatch (" +
            std::to_string(args.size()) + " given, " +
            std::to_string(program.args.size()) + " declared)");

    LaunchConfig cfg;
    cfg.program = &program;
    cfg.ntid = grid.threads_per_block;
    cfg.nctaid = grid.blocks;
    cfg.shield_enabled = options.shield;
    cfg.use_static_analysis = options.static_analysis;
    cfg.replace_sw_checks = options.replace_sw_checks;
    cfg.heap_bytes = options.heap_bytes;
    cfg.scalars.assign(args.size(), 0);
    cfg.scalar_static.assign(args.size(), false);

    // Buffers bind positionally: the i-th pointer argument takes the
    // i-th buffer Arg. KernelArgSpec::buffer_index already encodes the
    // slot when the builder declared the args in order.
    for (std::size_t i = 0; i < args.size(); ++i) {
        const bool declared_ptr = program.args[i].is_pointer;
        if (declared_ptr != args[i].is_buffer())
            throw std::invalid_argument(
                "api::launch: argument " + std::to_string(i) +
                (declared_ptr ? " must be a buffer" : " must be a scalar"));
        if (args[i].is_buffer()) {
            // A decoded binary may carry any index: bound it before it
            // sizes or indexes the buffer table.
            const int slot = program.args[i].buffer_index;
            if (slot < 0 || static_cast<std::size_t>(slot) >= args.size())
                throw std::invalid_argument(
                    "api::launch: argument " + std::to_string(i) +
                    " has buffer index " + std::to_string(slot) +
                    " outside [0, " + std::to_string(args.size()) + ")");
            (void)driver.region(args[i].buffer()); // one of its buffers
            const auto idx = static_cast<std::size_t>(slot);
            cfg.buffers.resize(std::max(cfg.buffers.size(), idx + 1));
            cfg.buffers[idx] = args[i].buffer();
        } else {
            cfg.scalars[i] = args[i].scalar();
            cfg.scalar_static[i] = args[i].scalar_static();
        }
    }
    return cfg;
}

BatchResult
run_batch(const GpuConfig &config, const std::vector<BatchJob> &jobs,
          obs::Profiler *profiler, Cycle time_base, LaneObserver *observer)
{
    // Every driver is bound to one device; each launch's mallocs go to
    // the driver that built it (LaunchState::driver).
    Gpu gpu(config, *jobs.front().driver);
    if (profiler != nullptr) {
        profiler->set_time_base(time_base);
        gpu.set_profiler(profiler);
    }
    gpu.set_lane_observer(observer);

    BatchResult batch;
    batch.results.resize(jobs.size());
    batch.launched.assign(jobs.size(), false);
    std::vector<std::size_t> idx(jobs.size(), 0);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        try {
            idx[j] = gpu.launch(jobs[j].driver->launch(jobs[j].config),
                                jobs[j].core_mask);
            batch.launched[j] = true;
        } catch (const std::exception &e) {
            // The driver or the GPU refused the launch (RBT or kernel-ID
            // exhaustion, a region the RBT cannot carry or its window
            // cannot hold, another backend's signature): it never ran,
            // and the launches beside it proceed.
            batch.results[j].status = LaunchStatus::Error;
            batch.results[j].status_message = e.what();
        }
    }

    std::optional<std::string> run_error;
    try {
        gpu.run(); // returns at once when nothing was launched
    } catch (const SimulationError &e) {
        run_error = e.what();
    }
    batch.makespan = gpu.now();

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (!batch.launched[j])
            continue;
        LaunchResult &r = batch.results[j];
        if (run_error) {
            r.status = LaunchStatus::Error;
            r.status_message = *run_error;
        }
        const KernelResult kr = gpu.result(idx[j]);
        LaunchState &state = gpu.launch_state(idx[j]);
        r.cycles = r.status == LaunchStatus::Error ? gpu.now() : kr.cycles();
        r.violations = kr.violations;
        r.stats = kr.stats;
        r.l1_rcache_hit_rate = gpu.rcache_l1_hit_rate();
        r.arg_values = state.arg_values;
        if (r.status == LaunchStatus::Ok && kr.aborted) {
            r.status = LaunchStatus::Aborted;
            r.status_message =
                config.precise_exceptions && kr.stats.get("violations") > 0
                    ? "bounds violation (precise exception)"
                    : "illegal memory access (translation fault)";
        }
        r.canaries = jobs[j].driver->finish(state);
    }
    return batch;
}

LaunchResult
Context::launch(const KernelProgram &program, Grid grid,
                const std::vector<Arg> &args, const LaunchOptions &options)
{
    const std::vector<BatchJob> jobs = {
        {&driver_, make_launch_config(driver_, program, grid, args, options),
         options.core_mask}};
    BatchResult batch =
        run_batch(config_, jobs, profiler_, profile_time_base_, observer_);
    if (profiler_ != nullptr)
        profile_time_base_ += batch.makespan;
    return std::move(batch.results.front());
}

} // namespace gpushield::api
