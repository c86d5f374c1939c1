#include "service/isolation.h"

#include <cstring>

#include "isa/builder.h"

namespace gpushield::service {

namespace {

constexpr std::int32_t kSentinel = 0x5EC2E7;

/** Kernel that only reads its own buffer (gives the victim a completed
 *  launch whose record carries its signed capability). */
KernelProgram
make_touch()
{
    KernelBuilder b("touch");
    const int out = b.arg_ptr("out");
    const int base = b.ldarg(out);
    (void)b.ld(base, 4);
    b.exit();
    return b.finish();
}

/** Kernel storing 0xDEAD through a raw 64-bit capability received as a
 *  scalar (the replayed/stolen pointer), then through its own buffer
 *  (proving the attacker's legitimate accesses still work). */
KernelProgram
make_replay()
{
    KernelBuilder b("replay");
    const int own = b.arg_ptr("own");
    const int cap = b.arg_scalar("stolen_cap");
    const int p = b.ldarg(cap);
    const int payload = b.mov_imm(0xDEAD);
    b.st(p, payload, 4);
    const int q = b.ldarg(own);
    b.st(q, payload, 4);
    b.exit();
    return b.finish();
}

/** Pointer-forging kernel (src/memsafety idiom, cross-tenant variant):
 *  perturb the own capability's ID field, keep the tag bits, re-base
 *  the address at the victim's known VA. */
KernelProgram
make_forge()
{
    KernelBuilder b("forge_cross");
    const int own = b.arg_ptr("own");
    const int victim_base = b.arg_scalar("victim_base");
    const int p = b.ldarg(own);
    const int perturbed = b.alui(Op::Xor, p, std::int64_t{0x1555} << 48);
    const int tag_only =
        b.alui(Op::And, perturbed,
               static_cast<std::int64_t>(0xFFFF000000000000ull));
    const int vb = b.ldarg(victim_base);
    const int forged = b.alu(Op::Or, tag_only, vb);
    const int payload = b.mov_imm(0xDEAD);
    b.st(forged, payload, 4);
    b.exit();
    return b.finish();
}

/** Kernel demanding @p locals distinct RBT namespace IDs (locals are
 *  never merged, so each needs its own entry). */
KernelProgram
make_greedy(unsigned locals)
{
    KernelBuilder b("greedy");
    std::vector<int> idx;
    for (unsigned i = 0; i < locals; ++i)
        idx.push_back(b.local("l" + std::to_string(i), 4, 8));
    const int payload = b.mov_imm(1);
    for (const int l : idx)
        b.st(b.ldloc(l), payload, 4);
    b.exit();
    return b.finish();
}

/** Reads @p len bytes of device memory at @p va through the page table
 *  (white-box ground truth: did any adversarial store land?). */
bool
device_mem_equals(GpuService &svc, VAddr va, const void *expect,
                  std::size_t len)
{
    std::vector<std::uint8_t> got(len);
    for (std::size_t i = 0; i < len; ++i) {
        const Translation tr =
            svc.device().page_table().translate(va + i, false);
        if (!tr.ok)
            return false;
        svc.device().mem().read(tr.paddr, &got[i], 1);
    }
    return std::memcmp(got.data(), expect, len) == 0;
}

/** True when every violation in @p rec names @p attacker. */
bool
attributed_to(const LaunchRecord &rec, TenantId attacker)
{
    for (const Violation &v : rec.result.violations)
        if (v.tenant != attacker)
            return false;
    return true;
}

AttackOutcome
attack_capability_replay(const ServiceConfig &base)
{
    AttackOutcome out;
    out.name = "capability_replay";

    ServiceConfig cfg = base;
    cfg.max_tenants = 2;
    GpuService svc(cfg);
    const Credential victim = svc.admit("victim");
    const Credential attacker = svc.admit("attacker");

    std::int32_t init[16];
    for (auto &v : init)
        v = kSentinel;
    const BufferHandle buf_v = svc.create_buffer(victim, sizeof(init));
    svc.upload(victim, buf_v, init, sizeof(init));
    const VAddr va_v = svc.address_of(victim, buf_v);

    const KernelProgram touch = make_touch();
    const Ticket tv =
        svc.submit(victim, touch, {1, 1}, {api::arg(buf_v)}).ticket;
    svc.drain();
    // The exfiltrated capability: the exact tagged pointer the service
    // bound to the victim's kernel argument.
    const std::uint64_t stolen = svc.record(tv).result.arg_values[0];

    const BufferHandle buf_a = svc.create_buffer(attacker, 64);
    const KernelProgram replay = make_replay();
    const Ticket ta =
        svc.submit(attacker, replay, {1, 1},
                   {api::arg(buf_a),
                    api::arg(static_cast<std::int64_t>(stolen))})
            .ticket;
    svc.drain();

    const LaunchRecord &rec = svc.record(ta);
    out.violations = rec.result.violations.size();
    out.attributed = attributed_to(rec, attacker.tenant);
    const bool intact = device_mem_equals(svc, va_v, init, sizeof(init));
    out.contained = out.violations > 0 && out.attributed && intact;
    out.detail = "stolen capability replayed: " +
                 std::to_string(out.violations) + " violation(s), victim " +
                 (intact ? "intact" : "CORRUPTED");
    return out;
}

AttackOutcome
attack_forged_id(const ServiceConfig &base)
{
    AttackOutcome out;
    out.name = "forged_id";

    ServiceConfig cfg = base;
    cfg.max_tenants = 2;
    GpuService svc(cfg);
    const Credential victim = svc.admit("victim");
    const Credential attacker = svc.admit("attacker");

    std::int32_t init[16];
    for (auto &v : init)
        v = kSentinel;
    const BufferHandle buf_v = svc.create_buffer(victim, sizeof(init));
    svc.upload(victim, buf_v, init, sizeof(init));
    const VAddr va_v = svc.address_of(victim, buf_v);

    const BufferHandle buf_a = svc.create_buffer(attacker, 64);
    const KernelProgram forge = make_forge();
    const Ticket ta =
        svc.submit(attacker, forge, {1, 1},
                   {api::arg(buf_a),
                    api::arg(static_cast<std::int64_t>(va_v))})
            .ticket;
    svc.drain();

    const LaunchRecord &rec = svc.record(ta);
    out.violations = rec.result.violations.size();
    out.attributed = attributed_to(rec, attacker.tenant);
    const bool intact = device_mem_equals(svc, va_v, init, sizeof(init));
    out.contained = out.violations > 0 && out.attributed && intact;
    out.detail = "forged pointer at victim VA: " +
                 std::to_string(out.violations) + " violation(s), victim " +
                 (intact ? "intact" : "CORRUPTED");
    return out;
}

AttackOutcome
attack_rbt_exhaustion(const ServiceConfig &base)
{
    AttackOutcome out;
    out.name = "rbt_exhaustion_dos";

    ServiceConfig cfg = base;
    cfg.max_tenants = 2;
    cfg.ids_per_tenant = 4; // tiny partition: 6 locals cannot fit
    GpuService svc(cfg);
    const Credential victim = svc.admit("victim");
    const Credential attacker = svc.admit("attacker");

    const KernelProgram greedy = make_greedy(6);
    const Ticket ta = svc.submit(attacker, greedy, {1, 1}, {}).ticket;

    // The victim keeps launching while the attacker's launch fails.
    std::int32_t init[16];
    for (auto &v : init)
        v = kSentinel;
    const BufferHandle buf_v = svc.create_buffer(victim, sizeof(init));
    svc.upload(victim, buf_v, init, sizeof(init));
    const KernelProgram touch = make_touch();
    const Ticket tv =
        svc.submit(victim, touch, {1, 1}, {api::arg(buf_v)}).ticket;
    svc.drain();

    const LaunchRecord &ra = svc.record(ta);
    const LaunchRecord &rv = svc.record(tv);
    const bool attacker_rejected =
        ra.result.status == api::LaunchStatus::Error &&
        ra.result.status_message.find("RBT exhausted") != std::string::npos;
    const bool victim_ok = rv.result.ok();

    // The attacker's slot must stay healthy for well-formed work.
    const BufferHandle buf_a = svc.create_buffer(attacker, 64);
    const Ticket ta2 =
        svc.submit(attacker, touch, {1, 1}, {api::arg(buf_a)}).ticket;
    svc.drain();
    const bool attacker_recovers = svc.record(ta2).result.ok();

    out.contained = attacker_rejected && victim_ok && attacker_recovers;
    out.detail = std::string("greedy launch ") +
                 (attacker_rejected ? "rejected" : "NOT rejected") +
                 ", victim " + (victim_ok ? "unaffected" : "DISRUPTED") +
                 ", attacker slot " +
                 (attacker_recovers ? "recovered" : "wedged");
    return out;
}

AttackOutcome
attack_teardown_reuse(const ServiceConfig &base)
{
    AttackOutcome out;
    out.name = "teardown_reuse";

    // One buffer ID and one kernel ID per tenant: the recycled slot's
    // next owner is GUARANTEED to reuse the departed tenant's exact
    // buffer-ID slot, RBT physical window, and kernel ID. Only the
    // per-admission key stream stands between the stale capability and
    // the new tenant's table entry.
    ServiceConfig cfg = base;
    cfg.max_tenants = 2;
    cfg.ids_per_tenant = 1;
    cfg.kernels_per_tenant = 1;
    GpuService svc(cfg);

    const Credential first = svc.admit("departed");
    std::int32_t init[16];
    for (auto &v : init)
        v = kSentinel;
    const BufferHandle buf_f = svc.create_buffer(first, sizeof(init));
    svc.upload(first, buf_f, init, sizeof(init));
    const VAddr va_f = svc.address_of(first, buf_f);

    const KernelProgram touch = make_touch();
    const Ticket tf =
        svc.submit(first, touch, {1, 1}, {api::arg(buf_f)}).ticket;
    svc.drain();
    const std::uint64_t stale = svc.record(tf).result.arg_values[0];
    svc.evict(first);

    // The slot is recycled; the attacker re-admits into it and replays
    // the capability signed under the previous admission's key.
    const Credential attacker = svc.admit("squatter");
    const BufferHandle buf_a = svc.create_buffer(attacker, 64);
    const KernelProgram replay = make_replay();
    const Ticket ta =
        svc.submit(attacker, replay, {1, 1},
                   {api::arg(buf_a),
                    api::arg(static_cast<std::int64_t>(stale))})
            .ticket;
    svc.drain();

    const LaunchRecord &rec = svc.record(ta);
    out.violations = rec.result.violations.size();
    out.attributed = attributed_to(rec, attacker.tenant);
    const bool intact = device_mem_equals(svc, va_f, init, sizeof(init));
    out.contained = out.violations > 0 && out.attributed && intact;
    out.detail = "stale capability on recycled slot: " +
                 std::to_string(out.violations) +
                 " violation(s), departed tenant's memory " +
                 (intact ? "intact" : "CORRUPTED");
    return out;
}

} // namespace

IsolationReport
run_isolation_suite(const ServiceConfig &base)
{
    IsolationReport report;
    report.outcomes.push_back(attack_capability_replay(base));
    report.outcomes.push_back(attack_forged_id(base));
    report.outcomes.push_back(attack_rbt_exhaustion(base));
    report.outcomes.push_back(attack_teardown_reuse(base));
    return report;
}

} // namespace gpushield::service
