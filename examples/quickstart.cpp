/**
 * @file
 * Quickstart: run a vector-add kernel on the simulated Nvidia-like GPU
 * with GPUShield enabled, then demonstrate that an out-of-bounds write
 * is detected and suppressed — all through the high-level host API.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <fstream>
#include <vector>

#include "api/gpushield_api.h"
#include "obs/profiler.h"
#include "workloads/kernels.h"

using namespace gpushield;
using namespace gpushield::api;

int
main()
{
    // 1. A GPU context: device memory, GPUShield driver, 16-SM GPU.
    Context ctx;

    // 2. Build a vector-add kernel (in0[i] + in1[i] -> out[i]).
    workloads::PatternParams params;
    params.name = "vecadd";
    params.inputs = 2;
    params.inner_iters = 1; // pure a[i] + b[i]
    const KernelProgram vecadd = workloads::make_streaming(params);

    // 3. Allocate and fill device buffers.
    const std::uint64_t n = 256 * 16;
    std::vector<std::int32_t> host_a(n), host_b(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        host_a[i] = static_cast<std::int32_t>(i);
        host_b[i] = static_cast<std::int32_t>(2 * i);
    }
    const Buffer a = ctx.malloc(n * 4);
    const Buffer b = ctx.malloc(n * 4);
    const Buffer c = ctx.malloc(n * 4);
    ctx.upload(a, host_a.data(), n * 4);
    ctx.upload(b, host_b.data(), n * 4);

    // 4. Launch under GPUShield (on by default) and inspect the run.
    const LaunchResult run =
        ctx.launch(vecadd, {256, 16}, {arg(a), arg(b), arg(c)});
    std::printf("vecadd: %llu cycles, %llu instructions, "
                "%llu checks elided by static analysis, %zu violations\n",
                static_cast<unsigned long long>(run.cycles),
                static_cast<unsigned long long>(
                    run.stats.get("instructions")),
                static_cast<unsigned long long>(
                    run.stats.get("checks_elided")),
                run.violations.size());

    // 5. Verify the result on the host.
    std::vector<std::int32_t> out(n);
    ctx.download(c, out.data(), n * 4);
    unsigned wrong = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        wrong += out[i] != host_a[i] + host_b[i];
    std::printf("vecadd: %u wrong elements (expect 0)\n", wrong);

    // 6. A buggy kernel that writes 8 elements past the buffer end:
    //    GPUShield detects it and squashes the escaping lanes.
    workloads::PatternParams bad = params;
    bad.name = "vecadd_oob";
    const KernelProgram buggy = workloads::make_overflowing(bad, 8);
    const Buffer in2 = ctx.malloc(n * 4);
    const Buffer out2 = ctx.malloc(n * 4);
    const LaunchResult bad_run =
        ctx.launch(buggy, {256, 16}, {arg(in2), arg(out2)});
    std::printf("vecadd_oob: %zu violation(s) detected "
                "(out-of-bounds stores were suppressed)\n",
                bad_run.violations.size());
    if (!bad_run.violations.empty()) {
        const Violation &v = bad_run.violations.front();
        std::printf("  first: kernel %u pc %d range [0x%llx, 0x%llx)\n",
                    v.kernel, v.pc,
                    static_cast<unsigned long long>(v.min_addr),
                    static_cast<unsigned long long>(v.max_end));
    }

    // 7. Profile a launch: every warp-cycle is attributed to a stall
    //    cause, and the timeline exports as Chrome trace JSON (load
    //    quickstart_profile.json in https://ui.perfetto.dev).
    obs::Profiler prof;
    ctx.attach_profiler(&prof);
    (void)ctx.launch(vecadd, {256, 16}, {arg(a), arg(b), arg(c)});
    const obs::ProfileSummary profile = prof.summary();
    std::printf("profiled: %.1f%% of warp-cycles issued, %.1f%% waiting "
                "on memory\n",
                100.0 * profile.fraction(obs::StallCause::Issued),
                100.0 * profile.fraction(obs::StallCause::MemPending));
    std::ofstream trace("quickstart_profile.json");
    prof.write_chrome_trace(trace);

    return wrong == 0 && !bad_run.violations.empty() ? 0 : 1;
}
