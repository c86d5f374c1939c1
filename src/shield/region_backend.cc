#include "shield/region_backend.h"

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
    : ShieldBackend(pipeline_slack), rcache_(cfg),
      c_type2_checks_(counter("type2_checks")),
      c_type3_checks_(counter("type3_checks"))
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

Cycle
RegionShieldBackend::check_pointer(const BcuRequest &req, BcuResponse &resp)
{
    if (ptr_class(req.pointer) == PtrClass::SizedWindow) {
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
        }
        // Offset comparison completes in the address-gather stage; no
        // exposed stall.
        return 0;
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
    } else if (bounds.kernel != req.kernel) {
        resp.violation = true;
        resp.kind = ViolationKind::KernelMismatch;
    } else if (req.is_store && bounds.read_only) {
        resp.violation = true;
        resp.kind = ViolationKind::ReadOnlyWrite;
    } else if (req.min_addr < bounds.base_addr ||
               req.max_end > bounds.base_addr + bounds.size) {
        resp.violation = true;
        resp.kind = ViolationKind::OutOfBounds;
        resp.region_known = true;
        resp.region_base = bounds.base_addr;
        resp.region_end = bounds.base_addr + bounds.size;
    }
    return check_latency;
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
