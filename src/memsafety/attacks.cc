#include "memsafety/attacks.h"

#include "api/gpushield_api.h"
#include "isa/builder.h"

namespace gpushield::memsafety {

namespace {

/** Launches @p prog on one thread of @p ctx, without static analysis.
 *  @throws SimulationError when the launch ends in
 *          api::LaunchStatus::Error */
api::LaunchResult
launch_one_thread(api::Context &ctx, const KernelProgram &prog,
                  const std::vector<api::Arg> &args, bool shield)
{
    api::LaunchOptions options;
    options.shield = shield;
    options.static_analysis = false;
    api::LaunchResult r = ctx.launch(prog, {1, 1}, args, options);
    if (r.status == api::LaunchStatus::Error)
        throw SimulationError(r.status_message);
    return r;
}

/** Single-thread kernel storing 0xBAD at A[elem_offset]. */
KernelProgram
make_oob_store(std::int64_t elem_offset)
{
    KernelBuilder b("kernel_overflow");
    const int a = b.arg_ptr("A");
    const int base = b.ldarg(a);
    const int idx = b.mov_imm(elem_offset);
    const int addr = b.gep(base, idx, 4);
    const int v = b.mov_imm(0xBAD);
    b.st(addr, v, 4);
    b.exit();
    return b.finish();
}

/** Runs a one-thread kernel against buffers A,B; reports the outcome. */
OverflowCase
run_case(const GpuConfig &cfg, bool shield, std::int64_t elem_offset,
         std::string label)
{
    api::Context ctx(cfg);
    const api::Buffer a = ctx.malloc(sizeof(std::int32_t) * 0x10,
                                     {.label = "A"});
    const api::Buffer bb = ctx.malloc(sizeof(std::int32_t) * 0x10,
                                      {.label = "B"});
    const std::int32_t sentinel = 0x5AFE;
    std::int32_t init[0x10];
    for (auto &v : init)
        v = sentinel;
    ctx.upload(a, init, sizeof(init));
    ctx.upload(bb, init, sizeof(init));

    const KernelProgram prog = make_oob_store(elem_offset);
    const api::LaunchResult result =
        launch_one_thread(ctx, prog, {api::arg(a)}, shield);

    OverflowCase out;
    out.label = std::move(label);
    out.kernel_aborted = result.status == api::LaunchStatus::Aborted;
    out.detected = !result.violations.empty();
    out.violations = result.violations.size();

    std::int32_t b0 = 0;
    ctx.download(bb, &b0, sizeof(b0));
    out.neighbor_corrupted = b0 != sentinel;
    return out;
}

} // namespace

Fig4Outcome
run_fig4(const GpuConfig &cfg, bool shield)
{
    Fig4Outcome out;
    // Case 1: A[0x10] — one element past the 64B buffer, still inside
    // the 512B-aligned reservation.
    out.within_alignment = run_case(cfg, shield, 0x10, "within-512B");
    // Case 2: A[0x80] — 512B past the base: exactly buffer B.
    out.within_page = run_case(cfg, shield, 0x80, "within-2MB");
    // Case 3: A[0x80000] — 2MB past the base: unmapped page.
    out.crossing_page = run_case(cfg, shield, 0x80000, "crossing-2MB");
    return out;
}

ForgeOutcome
run_pointer_forging(const GpuConfig &cfg, bool shield)
{
    api::Context ctx(cfg);
    const api::Buffer mine = ctx.malloc(64, {.label = "mine"});
    const api::Buffer victim = ctx.malloc(64, {.label = "victim"});
    const std::int32_t sentinel = 0x7E57;
    std::int32_t init[16];
    for (auto &v : init)
        v = sentinel;
    ctx.upload(victim, init, sizeof(init));

    // The attacker rewrites their pointer: flip ID-field bits and point
    // the address bits at the victim (layout is known: consecutive
    // 512B-aligned allocations).
    KernelBuilder b("forge");
    const int own = b.arg_ptr("mine");
    const int victim_base = b.arg_scalar("victim_base");
    const int p = b.ldarg(own);
    // Keep the tag class/field bits but perturb the embedded ID.
    const int perturbed =
        b.alui(Op::Xor, p, std::int64_t{0x1555} << 48);
    const int tag_only = b.alui(
        Op::And, perturbed,
        static_cast<std::int64_t>(0xFFFF000000000000ull));
    const int vb = b.ldarg(victim_base);
    const int forged = b.alu(Op::Or, tag_only, vb);
    const int payload = b.mov_imm(0xDEAD);
    b.st(forged, payload, 4);
    b.exit();
    const KernelProgram prog = b.finish();

    const api::LaunchResult result = launch_one_thread(
        ctx, prog,
        {api::arg(mine),
         api::arg(static_cast<std::int64_t>(ctx.address_of(victim)))},
        shield);

    ForgeOutcome out;
    out.detected = !result.violations.empty();
    if (out.detected)
        out.kind = result.violations.front().kind;
    std::int32_t v0 = 0;
    ctx.download(victim, &v0, sizeof(v0));
    out.victim_intact = v0 == sentinel;
    return out;
}

MindControlOutcome
run_mind_control(const GpuConfig &cfg, bool shield)
{
    api::Context ctx(cfg);
    // Victim layout: a 256B data buffer followed by a dispatch table
    // whose first slot holds a "function pointer".
    const api::Buffer data = ctx.malloc(256, {.label = "data"});
    const api::Buffer table = ctx.malloc(64, {.label = "dispatch"});
    const std::int64_t benign_fptr = 0x1111'2222;
    ctx.upload(table, &benign_fptr, sizeof(benign_fptr));

    // The attacker controls the length input: 80 elements x 4B = 320B,
    // 64B past the data buffer — with 512B-aligned packing that reaches
    // the reservation padding, so target the table directly at +512B:
    // elements [0, len) with len = 160 covers data + padding + table.
    KernelBuilder b("mind_control_setup");
    const int d = b.arg_ptr("data");
    const int len_arg = b.arg_scalar("len");
    const int base = b.ldarg(d);
    const int len = b.ldarg(len_arg);
    b.loop_count(len, [&](int i) {
        const int addr = b.gep(base, i, 4);
        const int payload = b.mov_imm(0x41414141);
        b.st(addr, payload, 4);
    });
    b.exit();
    const KernelProgram prog = b.finish();

    // Malicious input: 160 > 64 elements.
    const api::LaunchResult result = launch_one_thread(
        ctx, prog, {api::arg(data), api::arg(160)}, shield);

    MindControlOutcome out;
    out.detected = !result.violations.empty();
    std::int64_t fptr = 0;
    ctx.download(table, &fptr, sizeof(fptr));
    out.fptr_overwritten = fptr != benign_fptr;
    return out;
}

} // namespace gpushield::memsafety
