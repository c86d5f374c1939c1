/**
 * @file
 * Tests for the multi-tenant GPU service (src/service/): admission and
 * credentials, partition disjointness, queue bounds, round-robin and
 * co-schedule draining, per-tenant attribution, RBT-exhaustion error
 * surfacing, teardown/readmission, the isolation attack battery, and
 * the fairness bench plumbing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "isa/builder.h"
#include "obs/profiler.h"
#include "service/fairness.h"
#include "service/isolation.h"
#include "service/service.h"
#include "shield/pointer.h"
#include "workloads/kernels.h"

namespace gpushield::service {
namespace {

/** Minimal kernel touching (loading from) its single buffer. */
KernelProgram
touch_kernel()
{
    KernelBuilder b("touch");
    const int out = b.arg_ptr("out");
    const int base = b.ldarg(out);
    (void)b.ld(base, 4);
    b.exit();
    return b.finish();
}

/** Kernel demanding @p locals distinct (unmergeable) RBT IDs. */
KernelProgram
greedy_kernel(unsigned locals)
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

TEST(Service, AdmitAssignsDisjointPartitions)
{
    ServiceConfig cfg;
    cfg.max_tenants = 4;
    GpuService svc(cfg);

    std::vector<Credential> creds;
    for (int i = 0; i < 4; ++i)
        creds.push_back(svc.admit("t" + std::to_string(i)));
    EXPECT_EQ(svc.num_tenants(), 4u);

    for (std::size_t i = 0; i < creds.size(); ++i) {
        const DriverPartition &a =
            svc.tenant_driver(creds[i]).partition();
        EXPECT_EQ(a.tenant, creds[i].tenant);
        EXPECT_GE(a.id_first, 1u); // buffer ID 0 is reserved
        EXPECT_GE(a.kernel_first, 1u);
        for (std::size_t j = i + 1; j < creds.size(); ++j) {
            const DriverPartition &b =
                svc.tenant_driver(creds[j]).partition();
            const bool ids_disjoint =
                a.id_first + a.id_count <= b.id_first ||
                b.id_first + b.id_count <= a.id_first;
            const bool kernels_disjoint =
                a.kernel_first + a.kernel_count <= b.kernel_first ||
                b.kernel_first + b.kernel_count <= a.kernel_first;
            EXPECT_TRUE(ids_disjoint);
            EXPECT_TRUE(kernels_disjoint);
        }
    }
}

TEST(Service, BadCredentialRejected)
{
    GpuService svc;
    const Credential good = svc.admit("alice");
    Credential bad = good;
    bad.token ^= 1;
    EXPECT_THROW((void)svc.create_buffer(bad, 64), std::invalid_argument);
    Credential other = good;
    other.tenant = static_cast<TenantId>(good.tenant + 1);
    EXPECT_THROW((void)svc.create_buffer(other, 64),
                 std::invalid_argument);
    EXPECT_EQ(svc.stats().get("auth_failures"), 2u);
    EXPECT_NO_THROW((void)svc.create_buffer(good, 64));
}

TEST(Service, AdmissionBeyondCapacityThrows)
{
    ServiceConfig cfg;
    cfg.max_tenants = 1;
    GpuService svc(cfg);
    (void)svc.admit("only");
    EXPECT_THROW((void)svc.admit("excess"), SimulationError);
}

TEST(Service, QueueBoundRejectsOverflow)
{
    ServiceConfig cfg;
    cfg.queue_capacity = 2;
    GpuService svc(cfg);
    const Credential cred = svc.admit("alice");
    const BufferHandle buf = svc.create_buffer(cred, 64);
    const KernelProgram prog = touch_kernel();

    EXPECT_EQ(svc.submit(cred, prog, {1, 1}, {api::arg(buf)}).status,
              SubmitStatus::Accepted);
    EXPECT_EQ(svc.submit(cred, prog, {1, 1}, {api::arg(buf)}).status,
              SubmitStatus::Accepted);
    const SubmitResult third =
        svc.submit(cred, prog, {1, 1}, {api::arg(buf)});
    EXPECT_EQ(third.status, SubmitStatus::QueueFull);
    EXPECT_EQ(third.ticket, 0u);
    EXPECT_EQ(svc.tenant_stats(cred.tenant).get("queue_rejects"), 1u);
    EXPECT_EQ(svc.pending(cred.tenant), 2u);

    svc.drain();
    EXPECT_EQ(svc.pending(cred.tenant), 0u);
    EXPECT_EQ(svc.tenant_stats(cred.tenant).get("launches_ok"), 2u);
}

TEST(Service, SubmitValidatesArgBindingEagerly)
{
    GpuService svc;
    const Credential cred = svc.admit("alice");
    const KernelProgram prog = touch_kernel();
    // Scalar where a buffer is declared: throws at submit, not drain.
    EXPECT_THROW((void)svc.submit(cred, prog, {1, 1}, {api::arg(7)}),
                 std::invalid_argument);
    EXPECT_THROW((void)svc.submit(cred, prog, {1, 1}, {}),
                 std::invalid_argument);
    // A buffer index outside the argument list throws at submit too.
    const BufferHandle buf = svc.create_buffer(cred, 64);
    for (const int bad : {-1, 1 << 30}) {
        KernelProgram mangled = prog;
        mangled.args[0].buffer_index = bad;
        EXPECT_THROW((void)svc.submit(cred, mangled, {1, 1},
                                      {api::arg(buf)}),
                     std::invalid_argument)
            << bad;
    }
    // So does a load whose address register, or base+offset index
    // register, lies past the register file: accepted, it would read
    // outside the warp's registers at drain() and take down every
    // tenant.
    for (const bool index : {false, true}) {
        KernelProgram mangled = prog;
        for (Instr &in : mangled.code) {
            if (in.op != Op::Ld)
                continue;
            in.base_offset = index;
            (index ? in.rb : in.ra) = 1 << 20;
        }
        EXPECT_THROW((void)svc.submit(cred, mangled, {1, 1},
                                      {api::arg(buf)}),
                     std::invalid_argument)
            << index;
    }
    EXPECT_EQ(svc.pending(cred.tenant), 0u);
}

TEST(Service, TimeSliceAlternatesTenants)
{
    ServiceConfig cfg;
    cfg.max_tenants = 2;
    cfg.quantum = 1;
    GpuService svc(cfg);
    const Credential a = svc.admit("alice");
    const Credential b = svc.admit("bob");
    const KernelProgram prog = touch_kernel();
    const BufferHandle ba = svc.create_buffer(a, 64);
    const BufferHandle bb = svc.create_buffer(b, 64);

    std::vector<Ticket> tickets;
    for (int i = 0; i < 3; ++i) {
        tickets.push_back(
            svc.submit(a, prog, {1, 1}, {api::arg(ba)}).ticket);
        tickets.push_back(
            svc.submit(b, prog, {1, 1}, {api::arg(bb)}).ticket);
    }
    svc.drain();

    // Completion order on the service clock alternates tenants.
    std::vector<const LaunchRecord *> recs;
    for (const Ticket t : tickets)
        recs.push_back(&svc.record(t));
    std::sort(recs.begin(), recs.end(),
              [](const LaunchRecord *x, const LaunchRecord *y) {
                  return x->complete_time < y->complete_time;
              });
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_TRUE(recs[i]->done);
        EXPECT_EQ(recs[i]->result.status, api::LaunchStatus::Ok);
        EXPECT_EQ(recs[i]->tenant, i % 2 == 0 ? a.tenant : b.tenant);
    }
    EXPECT_EQ(svc.stats().get("turns"), 6u);
}

TEST(Service, QuantumDrainsMultiplePerTurn)
{
    ServiceConfig cfg;
    cfg.max_tenants = 2;
    cfg.quantum = 3;
    GpuService svc(cfg);
    const Credential a = svc.admit("alice");
    const KernelProgram prog = touch_kernel();
    const BufferHandle ba = svc.create_buffer(a, 64);
    for (int i = 0; i < 3; ++i)
        (void)svc.submit(a, prog, {1, 1}, {api::arg(ba)});
    EXPECT_TRUE(svc.step()); // one turn, whole backlog
    EXPECT_EQ(svc.pending(a.tenant), 0u);
    EXPECT_FALSE(svc.step());
}

TEST(Service, PerTenantViolationAttribution)
{
    ServiceConfig cfg;
    cfg.max_tenants = 2;
    GpuService svc(cfg);
    const Credential clean = svc.admit("clean");
    const Credential rogue = svc.admit("rogue");

    workloads::PatternParams p;
    p.name = "rogue_overflow";
    p.inputs = 1;
    const KernelProgram overflowing = workloads::make_overflowing(p, 16);
    const KernelProgram benign = touch_kernel();

    const std::uint64_t bytes = 64 * 4;
    const BufferHandle cb = svc.create_buffer(clean, bytes);
    std::vector<api::Arg> rogue_args;
    const KernelProgram *rp = &overflowing;
    for (std::size_t i = 0; i < rp->args.size(); ++i)
        rogue_args.push_back(api::arg(svc.create_buffer(rogue, bytes)));

    const Ticket tc =
        svc.submit(clean, benign, {1, 1}, {api::arg(cb)}).ticket;
    const Ticket tr =
        svc.submit(rogue, overflowing, {64, 1}, rogue_args).ticket;
    svc.drain();

    const LaunchRecord &rc = svc.record(tc);
    const LaunchRecord &rr = svc.record(tr);
    EXPECT_TRUE(rc.result.violations.empty());
    ASSERT_FALSE(rr.result.violations.empty());
    for (const Violation &v : rr.result.violations)
        EXPECT_EQ(v.tenant, rogue.tenant);
    EXPECT_EQ(svc.tenant_stats(clean.tenant).get("violations"), 0u);
    EXPECT_GT(svc.tenant_stats(rogue.tenant).get("violations"), 0u);
    EXPECT_EQ(rr.tenant, rogue.tenant);
    EXPECT_EQ(rc.tenant, clean.tenant);
}

TEST(Service, RbtExhaustionSurfacesAsLaunchError)
{
    ServiceConfig cfg;
    cfg.max_tenants = 2;
    cfg.ids_per_tenant = 4;
    GpuService svc(cfg);
    const Credential cred = svc.admit("greedy");

    const Ticket t = svc.submit(cred, greedy_kernel(6), {1, 1}, {}).ticket;
    svc.drain();

    const LaunchRecord &rec = svc.record(t);
    EXPECT_EQ(rec.result.status, api::LaunchStatus::Error);
    EXPECT_NE(rec.result.status_message.find("RBT exhausted"),
              std::string::npos);
    EXPECT_GE(svc.tenant_driver(cred).stats().get("rbt_exhausted"), 1u);
    // The failed launch must not leak namespace IDs.
    EXPECT_EQ(svc.tenant_driver(cred).ids_in_use(), 0u);

    // The tenant is not wedged: a well-formed launch still works.
    const BufferHandle buf = svc.create_buffer(cred, 64);
    const Ticket ok =
        svc.submit(cred, touch_kernel(), {1, 1}, {api::arg(buf)}).ticket;
    svc.drain();
    EXPECT_EQ(svc.record(ok).result.status, api::LaunchStatus::Ok);
}

TEST(Service, DivisionOverflowDoesNotEndTheService)
{
    // INT64_MIN / -1 and INT64_MIN % -1 would trap the host's divide
    // instruction and end the service for every tenant. The tenant's
    // batch completes with the wrapped results, and the next batch runs.
    GpuService svc;
    const Credential cred = svc.admit("divider");
    KernelBuilder b("min_div");
    const int out = b.arg_ptr("out");
    const int min = b.mov_imm(std::numeric_limits<std::int64_t>::min());
    const int minus_one = b.mov_imm(-1);
    const int base = b.ldarg(out);
    b.st(base, b.alu(Op::Divi, min, minus_one), 8);
    b.st(b.gep(base, b.mov_imm(1), 8), b.alu(Op::Rem, min, minus_one), 8);
    b.st(b.gep(base, b.mov_imm(2), 8), b.alui(Op::Divi, min, -1), 8);
    b.exit();
    const KernelProgram prog = b.finish();

    const BufferHandle buf = svc.create_buffer(cred, 3 * 8);
    const std::int64_t junk[3] = {7, 7, 7};
    svc.upload(cred, buf, junk, sizeof junk);
    const Ticket t = svc.submit(cred, prog, {1, 1}, {api::arg(buf)}).ticket;
    svc.drain();
    EXPECT_EQ(svc.record(t).result.status, api::LaunchStatus::Ok);
    std::int64_t got[3] = {};
    svc.download(cred, buf, got, sizeof got);
    EXPECT_EQ(got[0], std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(got[1], 0);
    EXPECT_EQ(got[2], std::numeric_limits<std::int64_t>::min());

    const BufferHandle other = svc.create_buffer(cred, 64);
    const Ticket next =
        svc.submit(cred, touch_kernel(), {1, 1}, {api::arg(other)}).ticket;
    svc.drain();
    EXPECT_EQ(svc.record(next).result.status, api::LaunchStatus::Ok);
}

// --- Bad input refused, never the end of the service ----------------
//
// Each input below used to reach a fatal() inside submit() or drain()
// and end the process for every tenant. Now it is refused at submit
// (std::invalid_argument) or its launch completes as Error, and the
// tenant's next launch still runs.

/** Submits a well-formed launch and drains: the service still serves
 *  @p cred after whatever came before. */
void
expect_next_launch_ok(GpuService &svc, const Credential &cred)
{
    const BufferHandle buf = svc.create_buffer(cred, 64);
    const Ticket t =
        svc.submit(cred, touch_kernel(), {1, 1}, {api::arg(buf)}).ticket;
    svc.drain();
    EXPECT_EQ(svc.record(t).result.status, api::LaunchStatus::Ok);
}

/** Drains @p ticket's launch and expects it refused by the driver. */
void
expect_launch_error(GpuService &svc, Ticket ticket, const char *fragment)
{
    svc.drain();
    const LaunchRecord &rec = svc.record(ticket);
    EXPECT_TRUE(rec.done);
    EXPECT_EQ(rec.result.status, api::LaunchStatus::Error);
    EXPECT_NE(rec.result.status_message.find(fragment), std::string::npos)
        << rec.result.status_message;
}

TEST(Service, UnknownBufferHandleRefusedAtSubmit)
{
    GpuService svc;
    const Credential cred = svc.admit("alice");
    for (const int bad : {-1, 0, 7})
        EXPECT_THROW((void)svc.submit(cred, touch_kernel(), {1, 1},
                                      {api::arg(BufferHandle{bad})}),
                     std::invalid_argument)
            << bad;
    EXPECT_EQ(svc.pending(cred.tenant), 0u);
    expect_next_launch_ok(svc, cred);
}

TEST(Service, BufferOver4GiBLaunchIsAnError)
{
    // The RBT size field is 32 bits: the launch is refused, not
    // truncated.
    GpuService svc;
    const Credential cred = svc.admit("alice");
    const BufferHandle huge = svc.create_buffer(cred, (1ull << 32) + 512);
    const Ticket t =
        svc.submit(cred, touch_kernel(), {1, 1}, {api::arg(huge)}).ticket;
    expect_launch_error(svc, t, "32-bit");
    EXPECT_EQ(svc.tenant_driver(cred).ids_in_use(), 0u);
    expect_next_launch_ok(svc, cred);
}

TEST(Service, MoreThan128ArgumentsRefusedAtSubmit)
{
    GpuService svc;
    const Credential cred = svc.admit("alice");
    KernelBuilder b("many_args");
    for (int i = 0; i < 128; ++i)
        b.arg_scalar("s" + std::to_string(i));
    b.exit();
    KernelProgram prog = b.finish();
    prog.args.push_back(prog.args.back()); // after finish() validated
    const std::vector<api::Arg> args(prog.args.size(), api::arg(1));
    EXPECT_THROW((void)svc.submit(cred, prog, {1, 1}, args),
                 std::invalid_argument);
    EXPECT_EQ(svc.pending(cred.tenant), 0u);
    expect_next_launch_ok(svc, cred);
}

/** One-thread kernel storing to local variable @p elems x @p elem_size. */
KernelProgram
local_kernel(std::uint32_t elem_size, std::uint32_t elems)
{
    KernelBuilder b("local");
    const int l = b.local("l", elem_size, elems);
    b.st(b.ldloc(l), b.mov_imm(1), 4);
    b.exit();
    return b.finish();
}

TEST(Service, EightGiBLocalLaunchIsAnError)
{
    // 8 GiB for the one thread: refused before the local is allocated.
    GpuService svc;
    const Credential cred = svc.admit("alice");
    Driver &driver = svc.tenant_driver(cred);
    const VAddr local_cursor = driver.device().local_alloc().cursor();
    const Ticket t =
        svc.submit(cred, local_kernel(8, 1u << 30), {1, 1}, {}).ticket;
    expect_launch_error(svc, t, "32-bit");
    EXPECT_EQ(driver.device().local_alloc().cursor(), local_cursor);
    expect_next_launch_ok(svc, cred);
}

TEST(Service, ZeroByteLocalLaunchIsAnError)
{
    GpuService svc;
    const Credential cred = svc.admit("alice");
    const Ticket t = svc.submit(cred, local_kernel(4, 0), {1, 1}, {}).ticket;
    expect_launch_error(svc, t, "of 0 bytes");
    // 2^32 + 2 bytes per thread for 2^32 threads wraps 64 bits; the
    // wrapped size reads 0 and is refused the same way, not allocated.
    const Ticket wrapped = svc.submit(cred, local_kernel(2, 0x80000001u),
                                      {1u << 16, 1u << 16}, {})
                               .ticket;
    expect_launch_error(svc, wrapped, "of 0 bytes");
    expect_next_launch_ok(svc, cred);
}

TEST(Service, HeapOver4GiBLaunchIsAnError)
{
    GpuService svc;
    const Credential cred = svc.admit("alice");
    const BufferHandle buf = svc.create_buffer(cred, 64);
    api::LaunchOptions options;
    options.heap_bytes = 1ull << 33;
    const Ticket t = svc.submit(cred, touch_kernel(), {1, 1},
                                {api::arg(buf)}, options)
                         .ticket;
    expect_launch_error(svc, t, "32-bit");
    expect_next_launch_ok(svc, cred);
}

TEST(Service, LocalOrHeapPastItsWindowIsAnError)
{
    // Under the RBT's 32-bit size limit but over its 1 GiB window: the
    // launch is refused before anything is mapped, instead of laying
    // the region over the next window.
    GpuService svc;
    const Credential cred = svc.admit("alice");
    Driver &driver = svc.tenant_driver(cred);
    const VAddr local_cursor = driver.device().local_alloc().cursor();
    const Ticket local =
        svc.submit(cred, local_kernel(4, 1u << 29), {1, 1}, {}).ticket;
    expect_launch_error(svc, local, "window");
    EXPECT_EQ(driver.device().local_alloc().cursor(), local_cursor);

    api::LaunchOptions options;
    options.heap_bytes = 3ull << 30;
    const Ticket heap =
        svc.submit(cred, touch_kernel(), {1, 1},
                   {api::arg(svc.create_buffer(cred, 64))}, options)
            .ticket;
    expect_launch_error(svc, heap, "window");
    EXPECT_EQ(driver.ids_in_use(), 0u);
    expect_next_launch_ok(svc, cred);
}

TEST(Service, MallocWithoutHeapReturnsNull)
{
    // No heap configured: malloc fails like CUDA's, returning NULL.
    GpuService svc;
    const Credential cred = svc.admit("alice");
    KernelBuilder b("malloc_no_heap");
    const int out = b.arg_ptr("out");
    const int p = b.malloc_heap(b.mov_imm(16));
    b.st(b.ldarg(out), p, 8);
    b.exit();
    const KernelProgram prog = b.finish();

    const BufferHandle buf = svc.create_buffer(cred, 8);
    const std::int64_t junk = 7;
    svc.upload(cred, buf, &junk, sizeof junk);
    const Ticket t = svc.submit(cred, prog, {1, 1}, {api::arg(buf)}).ticket;
    svc.drain();
    EXPECT_EQ(svc.record(t).result.status, api::LaunchStatus::Ok);
    std::int64_t got = -1;
    svc.download(cred, buf, &got, sizeof got);
    EXPECT_EQ(got, 0);
    expect_next_launch_ok(svc, cred);
}

TEST(Service, BufferSizeThatWrapsIsRefused)
{
    // 2^64 - 1 bytes round up to 0: the buffer used to be accepted with
    // no page mapped, and the first upload to it ended the process.
    GpuService svc;
    const Credential cred = svc.admit("alice");
    for (const bool pow2 : {false, true}) {
        api::BufferDesc desc;
        desc.pow2 = pow2;
        EXPECT_THROW((void)svc.create_buffer(cred, ~std::uint64_t{0}, desc),
                     std::invalid_argument)
            << pow2;
    }
    expect_next_launch_ok(svc, cred);
}

TEST(Service, ZeroByteBufferRefused)
{
    GpuService svc;
    const Credential cred = svc.admit("alice");
    api::BufferDesc pow2;
    pow2.pow2 = true;
    EXPECT_THROW((void)svc.create_buffer(cred, 0), std::invalid_argument);
    EXPECT_THROW((void)svc.create_buffer(cred, 0, pow2),
                 std::invalid_argument);
    expect_next_launch_ok(svc, cred);
}

TEST(Service, OutOfRangeCopiesRefused)
{
    GpuService svc;
    const Credential cred = svc.admit("alice");
    const BufferHandle buf = svc.create_buffer(cred, 64);
    std::array<std::uint8_t, 16> bytes{};
    // Past the end, straddling it, and an offset that wraps offset + len.
    for (const std::uint64_t offset :
         {std::uint64_t{64}, std::uint64_t{56}, ~std::uint64_t{0}}) {
        EXPECT_THROW(svc.upload(cred, buf, bytes.data(), bytes.size(), offset),
                     std::invalid_argument)
            << offset;
        EXPECT_THROW(
            svc.download(cred, buf, bytes.data(), bytes.size(), offset),
            std::invalid_argument)
            << offset;
    }
    EXPECT_THROW(svc.upload(cred, BufferHandle{9}, bytes.data(), 1),
                 std::invalid_argument);
    expect_next_launch_ok(svc, cred);
}

TEST(Service, EvictRecyclesSlotAndKillsCredential)
{
    ServiceConfig cfg;
    cfg.max_tenants = 1;
    GpuService svc(cfg);
    const Credential first = svc.admit("first");
    const BufferHandle buf = svc.create_buffer(first, 64);
    const Ticket pending =
        svc.submit(first, touch_kernel(), {1, 1}, {api::arg(buf)}).ticket;

    svc.evict(first);
    EXPECT_EQ(svc.num_tenants(), 0u);
    // The queued submission resolved as an error instead of dangling.
    EXPECT_TRUE(svc.record(pending).done);
    EXPECT_EQ(svc.record(pending).result.status, api::LaunchStatus::Error);
    // The dead credential no longer authenticates.
    EXPECT_THROW((void)svc.create_buffer(first, 64),
                 std::invalid_argument);

    // The slot is reusable, with the same tenant id but a new token.
    const Credential second = svc.admit("second");
    EXPECT_EQ(second.tenant, first.tenant);
    EXPECT_NE(second.token, first.token);
    const BufferHandle buf2 = svc.create_buffer(second, 64);
    const Ticket ok =
        svc.submit(second, touch_kernel(), {1, 1}, {api::arg(buf2)})
            .ticket;
    svc.drain();
    EXPECT_EQ(svc.record(ok).result.status, api::LaunchStatus::Ok);
}

TEST(Service, RepeatedLaunchesHoldNoMoreDeviceMemory)
{
    // One tenant's launches each zero-fill a fresh kernel's 256 KiB RBT
    // table; a long-running service must not keep those frames.
    GpuService svc;
    const Credential cred = svc.admit("alice");
    const BufferHandle buf = svc.create_buffer(cred, 64);
    const KernelProgram prog = touch_kernel();
    const auto launch = [&] {
        const Ticket t =
            svc.submit(cred, prog, {1, 1}, {api::arg(buf)}).ticket;
        svc.drain();
        return svc.record(t).result.status;
    };
    ASSERT_EQ(launch(), api::LaunchStatus::Ok);
    const std::size_t frames = svc.device().mem().backed_frames();
    for (int i = 1; i < 1000; ++i)
        ASSERT_EQ(launch(), api::LaunchStatus::Ok);
    EXPECT_EQ(svc.device().mem().backed_frames(), frames);
}

TEST(Service, CoScheduleRunsTenantsInOneBatch)
{
    ServiceConfig cfg;
    cfg.max_tenants = 2;
    cfg.mode = SchedMode::CoSchedule;
    GpuService svc(cfg);
    const Credential a = svc.admit("alice");
    const Credential b = svc.admit("bob");
    const KernelProgram prog = touch_kernel();
    const Ticket ta =
        svc.submit(a, prog, {1, 1}, {api::arg(svc.create_buffer(a, 64))})
            .ticket;
    const Ticket tb =
        svc.submit(b, prog, {1, 1}, {api::arg(svc.create_buffer(b, 64))})
            .ticket;

    EXPECT_TRUE(svc.step());
    EXPECT_FALSE(svc.step());
    EXPECT_EQ(svc.stats().get("cosched_batches"), 1u);
    const LaunchRecord &ra = svc.record(ta);
    const LaunchRecord &rb = svc.record(tb);
    EXPECT_EQ(ra.result.status, api::LaunchStatus::Ok);
    EXPECT_EQ(rb.result.status, api::LaunchStatus::Ok);
    // Same batch: both complete at the same service-clock instant.
    EXPECT_EQ(ra.complete_time, rb.complete_time);
}

TEST(Service, CoScheduledRefusedLaunchCompletesAtBatchStart)
{
    // A launch the driver refuses never runs: it completes when its
    // batch starts, while the launch beside it completes when the batch
    // ends.
    ServiceConfig cfg;
    cfg.max_tenants = 2;
    cfg.mode = SchedMode::CoSchedule;
    GpuService svc(cfg);
    const Credential a = svc.admit("alice");
    const Credential b = svc.admit("bob");
    (void)svc.submit(a, touch_kernel(), {1, 1},
                     {api::arg(svc.create_buffer(a, 64))});
    svc.drain(); // the batch under test starts after cycle 0
    const Cycle start = svc.now();
    ASSERT_GT(start, 0u);

    const Ticket refused =
        svc.submit(a, local_kernel(4, 0), {1, 1}, {}).ticket;
    const Ticket ran =
        svc.submit(b, touch_kernel(), {1, 1},
                   {api::arg(svc.create_buffer(b, 64))})
            .ticket;
    EXPECT_TRUE(svc.step());
    EXPECT_EQ(svc.stats().get("cosched_batches"), 2u);
    const LaunchRecord &rr = svc.record(refused);
    const LaunchRecord &rb = svc.record(ran);
    EXPECT_EQ(rr.result.status, api::LaunchStatus::Error);
    EXPECT_EQ(rb.result.status, api::LaunchStatus::Ok);
    EXPECT_EQ(rr.complete_time, start);
    EXPECT_GT(svc.now(), start);
    EXPECT_EQ(rb.complete_time, svc.now());
}

// --- Outcomes read as api::Context reports them ----------------------

TEST(Service, PreciseExceptionAbortIsReported)
{
    ServiceConfig cfg;
    cfg.gpu.precise_exceptions = true;
    GpuService svc(cfg);
    const Credential cred = svc.admit("rogue");
    workloads::PatternParams p;
    p.name = "oob_precise";
    const KernelProgram prog = workloads::make_overflowing(p, 32);
    std::vector<api::Arg> args;
    for (std::size_t i = 0; i < prog.args.size(); ++i)
        args.push_back(api::arg(svc.create_buffer(cred, 1024 * 4)));
    const Ticket t = svc.submit(cred, prog, {256, 4}, args).ticket;
    svc.drain();
    const api::LaunchResult &r = svc.record(t).result;
    EXPECT_EQ(r.status, api::LaunchStatus::Aborted);
    EXPECT_EQ(r.status_message, "bounds violation (precise exception)");
}

TEST(Service, UnmappedPageAbortIsReported)
{
    // A raw address carries no tag, so no bounds check stands between
    // the load and the page table, and page 0 is never mapped.
    GpuService svc;
    const Credential cred = svc.admit("prober");
    KernelBuilder b("unmapped");
    (void)b.ld(b.ldarg(b.arg_scalar("addr")), 4);
    b.exit();
    const Ticket t =
        svc.submit(cred, b.finish(), {1, 1}, {api::arg(64)}).ticket;
    svc.drain();
    const api::LaunchResult &r = svc.record(t).result;
    EXPECT_EQ(r.status, api::LaunchStatus::Aborted);
    EXPECT_EQ(r.status_message, "illegal memory access (translation fault)");
    expect_next_launch_ok(svc, cred);
}

TEST(Service, CycleBudgetOverrunIsAnError)
{
    ServiceConfig cfg;
    cfg.gpu.max_cycles = 8; // far below any real kernel's runtime
    GpuService svc(cfg);
    const Credential cred = svc.admit("slow");
    const Ticket t = svc.submit(cred, touch_kernel(), {1, 1},
                                {api::arg(svc.create_buffer(cred, 64))})
                         .ticket;
    expect_launch_error(svc, t, "budget");
}

TEST(Service, DeviceMallocsGoToTheLaunchingTenantsDriver)
{
    // Each kernel's device mallocs must reach the driver that launched
    // it, in both scheduler modes. The tenants run different thread
    // counts, so a malloc charged to the wrong driver shows up in both
    // tenants' counts.
    for (const SchedMode mode :
         {SchedMode::TimeSlice, SchedMode::CoSchedule}) {
        ServiceConfig cfg;
        cfg.max_tenants = 2;
        cfg.mode = mode;
        GpuService svc(cfg);
        workloads::PatternParams p;
        p.name = "heap";
        const KernelProgram prog = workloads::make_heap(p);
        api::LaunchOptions opts;
        opts.heap_bytes = 1 << 20;

        struct Tenant
        {
            Credential cred;
            api::Grid grid;
            BufferHandle out;
            Ticket ticket = 0;
        };
        std::vector<Tenant> tenants = {{svc.admit("alice"), {64, 1}, {}},
                                       {svc.admit("bob"), {32, 3}, {}}};
        for (Tenant &t : tenants) {
            const std::uint32_t n =
                t.grid.threads_per_block * t.grid.blocks;
            t.out = svc.create_buffer(t.cred, n * 4);
            t.ticket = svc.submit(t.cred, prog, t.grid,
                                  {api::arg(t.out), api::arg(32)}, opts)
                           .ticket;
        }
        svc.drain();

        for (Tenant &t : tenants) {
            const std::uint32_t n =
                t.grid.threads_per_block * t.grid.blocks;
            const LaunchRecord &rec = svc.record(t.ticket);
            EXPECT_EQ(rec.result.status, api::LaunchStatus::Ok)
                << to_string(mode) << ": " << rec.result.status_message;
            EXPECT_EQ(svc.tenant_driver(t.cred).stats().get(
                          "device_mallocs"),
                      n)
                << to_string(mode);
            std::vector<std::int32_t> got(n);
            svc.download(t.cred, t.out, got.data(), n * 4);
            for (std::uint32_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], static_cast<std::int32_t>(i))
                    << to_string(mode) << " tenant " << t.cred.tenant;
        }
    }
}

TEST(Service, IsolationSuiteAllContainedTimeSlice)
{
    const IsolationReport report = run_isolation_suite();
    EXPECT_EQ(report.outcomes.size(), 4u);
    for (const AttackOutcome &o : report.outcomes)
        EXPECT_TRUE(o.contained) << o.name << ": " << o.detail;
}

TEST(Service, IsolationSuiteAllContainedCoSchedule)
{
    ServiceConfig cfg;
    cfg.mode = SchedMode::CoSchedule;
    const IsolationReport report = run_isolation_suite(cfg);
    EXPECT_TRUE(report.all_contained());
}

TEST(Service, PartitionedDriverNeverHandsOutUnencryptedCapabilities)
{
    // Single-tenant statically-safe launches demote to Type 1 pointers;
    // a partitioned (tenant-tagged) driver must keep Type 2 encryption
    // on every capability it signs, or a leaked pointer is replayable
    // across tenants (see docs/SERVICE.md threat model).
    GpuService svc;
    const Credential cred = svc.admit("alice");
    const BufferHandle buf = svc.create_buffer(cred, 64);
    const Ticket t =
        svc.submit(cred, touch_kernel(), {1, 1}, {api::arg(buf)}).ticket;
    svc.drain();
    const LaunchRecord &rec = svc.record(t);
    ASSERT_EQ(rec.result.arg_values.size(), 1u);
    EXPECT_EQ(ptr_class(rec.result.arg_values[0]), PtrClass::TaggedId);
}

TEST(Service, ProfilerRecordsTenantTaggedSpans)
{
    ServiceConfig cfg;
    cfg.max_tenants = 2;
    GpuService svc(cfg);
    obs::Profiler prof;
    svc.attach_profiler(&prof);

    const Credential a = svc.admit("alice");
    const Credential b = svc.admit("bob");
    const KernelProgram prog = touch_kernel();
    (void)svc.submit(a, prog, {1, 1},
                     {api::arg(svc.create_buffer(a, 64))});
    (void)svc.submit(b, prog, {1, 1},
                     {api::arg(svc.create_buffer(b, 64))});
    svc.drain();

    std::ostringstream trace;
    prof.write_chrome_trace(trace);
    EXPECT_NE(trace.str().find("\"tenant\":1"), std::string::npos);
    EXPECT_NE(trace.str().find("\"tenant\":2"), std::string::npos);
}

TEST(Service, FairnessQuickReportsPercentilesAndShares)
{
    const FairnessReport report = run_fairness({}, /*quick=*/true);
    ASSERT_EQ(report.mixes.size(), 3u);
    for (const FairnessMixResult &mix : report.mixes) {
        EXPECT_EQ(mix.tenants.size(), 3u);
        double share_sum = 0.0;
        for (const FairnessTenantResult &t : mix.tenants) {
            EXPECT_GT(t.completed, 0u);
            EXPECT_GE(t.p99, t.p50);
            EXPECT_GT(t.p50, 0u);
            share_sum += t.throughput_share;
        }
        EXPECT_NEAR(share_sum, 1.0, 1e-9);
    }

    std::ostringstream os;
    write_json(report, os);
    EXPECT_NE(os.str().find("\"bench\": \"service_fairness\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"p99_cycles\""), std::string::npos);
}

TEST(Service, FairnessJsonQuotesHostileNames)
{
    const std::string hostile = std::string("q\"b\\r\r") + '\x01';
    FairnessTenantResult tenant;
    tenant.name = "tenant " + hostile;
    FairnessMixResult mix;
    mix.mix = "mix " + hostile;
    mix.tenants.push_back(tenant);
    FairnessReport report;
    report.mixes.push_back(mix);

    std::ostringstream os;
    write_json(report, os);
    const JsonValue root = parse_json(os.str());
    const JsonValue *mixes = root.find("mixes");
    ASSERT_NE(mixes, nullptr);
    ASSERT_EQ(mixes->array.size(), 1u);
    const JsonValue &m = mixes->array[0];
    ASSERT_NE(m.find("mix"), nullptr);
    EXPECT_EQ(m.find("mix")->as_string(), mix.mix);
    const JsonValue *tenants = m.find("tenants");
    ASSERT_NE(tenants, nullptr);
    ASSERT_EQ(tenants->array.size(), 1u);
    ASSERT_NE(tenants->array[0].find("name"), nullptr);
    EXPECT_EQ(tenants->array[0].find("name")->as_string(), tenant.name);
}

} // namespace
} // namespace gpushield::service
