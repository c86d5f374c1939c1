#include "shield/backend.h"

#include "common/log.h"
#include "shield/armor_backend.h"
#include "shield/pointer.h"
#include "shield/region_backend.h"

namespace gpushield {

ShieldBackend::ShieldBackend(Cycle pipeline_slack)
    : pipeline_slack_(pipeline_slack),
      c_checks_(stats_.counter("checks")),
      c_bt_checks_(stats_.counter("bt_checks")),
      c_skipped_unprotected_(stats_.counter("skipped_unprotected")),
      c_guard_suppressed_(stats_.counter("guard_suppressed")),
      c_violations_(stats_.counter("violations")),
      c_stall_cycles_(stats_.counter("stall_cycles"))
{
}

void
ShieldBackend::log(const BcuRequest &req, ViolationKind kind)
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
ShieldBackend::exposed_stall(const BcuRequest &req, Cycle check_latency) const
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
ShieldBackend::check(const BcuRequest &req)
{
    BcuResponse resp;

    if (req.has_bt_bounds) {
        // Method A: the driver-managed binding-table entry supplies
        // exact bounds whatever the pointer scheme, so the check is a
        // direct compare — no metadata lookup, no exposed stall.
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

    if (ptr_class(req.pointer) == PtrClass::Unprotected) {
        ++c_skipped_unprotected_;
        return resp;
    }

    resp.checked = true;
    ++c_checks_;
    const Cycle check_latency = check_pointer(req, resp);
    if (resp.violation)
        log(req, resp.kind);
    resp.stall_cycles = exposed_stall(req, check_latency);
    if (resp.stall_cycles > 0)
        c_stall_cycles_ += resp.stall_cycles;
    return resp;
}

std::unique_ptr<ShieldBackend>
make_shield_backend(const ShieldConfig &cfg, Cycle pipeline_slack)
{
    switch (cfg.backend) {
      case ShieldBackendKind::Region:
        return std::make_unique<RegionShieldBackend>(
            to_rcache_config(cfg.region), pipeline_slack);
      case ShieldBackendKind::Armor:
        return std::make_unique<ArmorShieldBackend>(cfg.armor,
                                                    pipeline_slack);
    }
    panic("make_shield_backend: unknown backend kind");
    return nullptr;
}

} // namespace gpushield
