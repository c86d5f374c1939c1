#include "api/gpushield_api.h"

#include <stdexcept>

#include "common/log.h"

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
make_launch_config(const KernelProgram &program, Grid grid,
                   const std::vector<Arg> &args,
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

LaunchResult
Context::launch(const KernelProgram &program, Grid grid,
                const std::vector<Arg> &args, const LaunchOptions &options)
{
    const LaunchConfig cfg = make_launch_config(program, grid, args, options);

    Gpu gpu(config_, driver_);
    if (observer_ != nullptr)
        gpu.set_lane_observer(observer_);
    if (options.profile.enabled) {
        if (!profiler_)
            profiler_ = std::make_unique<obs::Profiler>(
                options.profile.sample_interval);
        profiler_->set_time_base(profile_time_base_);
        gpu.set_profiler(profiler_.get());
    }

    LaunchResult result;
    std::size_t idx = 0;
    try {
        // Driver-side launch setup can fail recoverably (RBT / kernel-ID
        // exhaustion): the kernel never starts and no launch state
        // exists, so report the error without touching the GPU.
        idx = gpu.launch(driver_.launch(cfg), options.core_mask);
    } catch (const SimulationError &e) {
        result.status = LaunchStatus::Error;
        result.status_message = e.what();
        return result;
    }

    try {
        gpu.run();
    } catch (const SimulationError &e) {
        result.status = LaunchStatus::Error;
        result.status_message = e.what();
    }

    if (options.profile.enabled)
        profile_time_base_ += gpu.now();

    const KernelResult kr = gpu.result(idx);
    result.cycles =
        result.status == LaunchStatus::Error ? gpu.now() : kr.cycles();
    result.violations = kr.violations;
    result.stats = kr.stats;
    result.l1_rcache_hit_rate = gpu.rcache_l1_hit_rate();
    if (result.status == LaunchStatus::Ok && kr.aborted) {
        result.status = LaunchStatus::Aborted;
        result.status_message =
            config_.precise_exceptions && kr.stats.get("violations") > 0
                ? "bounds violation (precise exception)"
                : "illegal memory access (translation fault)";
    }
    result.canaries = driver_.finish(gpu.launch_state(idx));
    if (profiler_)
        result.profile = profiler_->summary();
    return result;
}

} // namespace gpushield::api
