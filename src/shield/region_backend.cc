#include "shield/region_backend.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/log.h"
#include "shield/pointer.h"

namespace gpushield {

RCacheConfig
to_rcache_config(const RegionShieldConfig &cfg)
{
    RCacheConfig rc;
    rc.l1_entries = cfg.l1_entries;
    rc.l2_entries = cfg.l2_entries;
    rc.l1_latency = cfg.l1_latency;
    rc.l2_latency = cfg.l2_latency;
    rc.partitions = cfg.partitions;
    return rc;
}

RegionShieldBackend::RegionShieldBackend(const RCacheConfig &cfg,
                                         Cycle pipeline_slack)
    : rcache_(cfg), pipeline_slack_(pipeline_slack),
      c_checks_(stats_.counter("checks")),
      c_bt_checks_(stats_.counter("bt_checks")),
      c_type2_checks_(stats_.counter("type2_checks")),
      c_type3_checks_(stats_.counter("type3_checks")),
      c_skipped_unprotected_(stats_.counter("skipped_unprotected")),
      c_guard_suppressed_(stats_.counter("guard_suppressed")),
      c_violations_(stats_.counter("violations")),
      c_stall_cycles_(stats_.counter("stall_cycles"))
{
}

void
RegionShieldBackend::register_kernel(KernelId kernel, std::uint64_t key,
                                     const RegionBoundsTable *rbt)
{
    KernelState state;
    state.cipher.rekey(key);
    state.rbt = rbt;
    kernels_[kernel] = state;
}

void
RegionShieldBackend::deregister_kernel(KernelId kernel)
{
    kernels_.erase(kernel);
    // §5.5: only the terminating kernel's RCache state is dropped;
    // concurrently-resident kernels keep their cached bounds (§6.2).
    rcache_.invalidate_kernel(kernel);
}

void
RegionShieldBackend::log(const BcuRequest &req, ViolationKind kind)
{
    if (req.cover_probe)
        return; // a failed cover probe is a fallback, not a violation
    if (req.silent) {
        // §6.4 guard replacement: the squash is expected behaviour of
        // the removed software guard, not an error.
        ++c_guard_suppressed_;
        return;
    }
    Violation v;
    v.kernel = req.kernel;
    v.tenant = req.tenant;
    v.core = req.core;
    v.pc = req.pc;
    v.warp = req.warp;
    v.is_store = req.is_store;
    v.min_addr = req.min_addr;
    v.max_end = req.max_end;
    v.kind = kind;
    violations_.push_back(v);
    ++c_violations_;
}

Cycle
RegionShieldBackend::exposed_stall(const BcuRequest &req,
                                   Cycle check_latency) const
{
    // The LSU pipeline shadows the check: a D-cache hit exposes only
    // what exceeds the remaining pipeline depth; each extra coalesced
    // transaction occupies the LSU one more cycle; a D-cache miss hides
    // everything (Fig. 12).
    if (!req.dcache_hit)
        return 0;
    const Cycle shadow =
        pipeline_slack_ + (req.num_transactions > 0
                               ? req.num_transactions - 1
                               : 0);
    return check_latency > shadow ? check_latency - shadow : 0;
}

BcuResponse
RegionShieldBackend::check(const BcuRequest &req)
{
    BcuResponse resp;

    if (req.has_bt_bounds) {
        // Method A: compare against the binding-table entry directly.
        resp.checked = true;
        ++c_checks_;
        ++c_bt_checks_;
        const Bounds &b = req.bt_bounds;
        if (req.is_store && b.read_only) {
            resp.violation = true;
            resp.kind = ViolationKind::ReadOnlyWrite;
            log(req, resp.kind);
        } else if (!b.contains(req.min_addr, req.max_end - req.min_addr)) {
            resp.violation = true;
            resp.kind = ViolationKind::OutOfBounds;
            resp.region_known = true;
            resp.region_base = b.base_addr;
            resp.region_end = b.base_addr + b.size;
            log(req, resp.kind);
        }
        return resp;
    }

    const PtrClass cls = ptr_class(req.pointer);

    if (cls == PtrClass::Unprotected) {
        ++c_skipped_unprotected_;
        return resp;
    }

    resp.checked = true;
    ++c_checks_;

    if (cls == PtrClass::SizedWindow) {
        // Type 3: compare offsets against the embedded power-of-two
        // window; no RCache access (§5.3.3).
        ++c_type3_checks_;
        const std::uint64_t window = std::uint64_t{1} << ptr_field(req.pointer);
        bool oob;
        if (req.has_base_offset) {
            oob = req.min_offset < 0 ||
                  static_cast<std::uint64_t>(req.max_offset_end) > window;
        } else {
            // Fallback for Method B dereferences of a sized pointer:
            // detect window-boundary crossings.
            oob = align_down(req.min_addr, window) !=
                  align_down(req.max_end - 1, window);
        }
        if (oob) {
            resp.violation = true;
            resp.kind = ViolationKind::OutOfBounds;
            if (req.has_base_offset) {
                resp.region_known = true;
                resp.region_base = ptr_addr(req.pointer);
                resp.region_end = resp.region_base + window;
            }
            log(req, resp.kind);
        }
        // Offset comparison completes in the address-gather stage; no
        // exposed stall.
        return resp;
    }

    // Type 2: decrypt the ID and consult the RCache hierarchy.
    ++c_type2_checks_;
    const auto it = kernels_.find(req.kernel);
    if (it == kernels_.end())
        panic("BCU: check for unregistered kernel");
    KernelState &ks = it->second;

    const BufferId id = ks.cipher.decrypt(ptr_field(req.pointer));
    RCacheResult rc = rcache_.lookup(req.kernel, id);

    Bounds bounds;
    Cycle check_latency;
    switch (rc.level) {
      case RCacheLevel::L1:
        bounds = rc.bounds;
        check_latency = rcache_.config().l1_latency;
        break;
      case RCacheLevel::L2:
        bounds = rc.bounds;
        check_latency = rcache_.config().l2_latency;
        break;
      case RCacheLevel::Miss:
      default:
        // Functional refill from the RBT; the caller models the memory
        // round-trip using refill_paddr.
        bounds = ks.rbt->get(id);
        rcache_.fill(req.kernel, id, bounds);
        resp.refill = true;
        resp.refill_paddr = ks.rbt->entry_paddr(id);
        check_latency = rcache_.config().l2_latency;
        break;
    }

    if (!bounds.valid) {
        resp.violation = true;
        resp.kind = ViolationKind::InvalidEntry;
        log(req, resp.kind);
    } else if (bounds.kernel != req.kernel) {
        resp.violation = true;
        resp.kind = ViolationKind::KernelMismatch;
        log(req, resp.kind);
    } else if (req.is_store && bounds.read_only) {
        resp.violation = true;
        resp.kind = ViolationKind::ReadOnlyWrite;
        log(req, resp.kind);
    } else if (req.min_addr < bounds.base_addr ||
               req.max_end > bounds.base_addr + bounds.size) {
        resp.violation = true;
        resp.kind = ViolationKind::OutOfBounds;
        resp.region_known = true;
        resp.region_base = bounds.base_addr;
        resp.region_end = bounds.base_addr + bounds.size;
        log(req, resp.kind);
    }

    resp.stall_cycles = exposed_stall(req, check_latency);
    if (resp.stall_cycles > 0)
        c_stall_cycles_ += resp.stall_cycles;
    return resp;
}

const char *
RegionShieldBackend::weakness_label(const ShieldMissContext &ctx) const
{
    // The only checked-but-unflagged class this backend documents:
    // Method-B dereferences of a Type 3 (sized-window) pointer only
    // detect window-boundary crossings, so an overflow that lands in a
    // same-window sibling position escapes (CONFORMANCE.md).
    if (!ctx.has_bt && !ctx.has_base_offset &&
        ptr_class(ctx.pointer) == PtrClass::SizedWindow)
        return "type3_weak";
    return nullptr;
}

} // namespace gpushield
