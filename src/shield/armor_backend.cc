#include "shield/armor_backend.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/log.h"
#include "shield/pointer.h"

namespace gpushield {

ArmorShieldBackend::ArmorShieldBackend(const ArmorShieldConfig &cfg,
                                       Cycle pipeline_slack)
    : cfg_(cfg), pipeline_slack_(pipeline_slack),
      cache_(std::max(1u, cfg.cache_entries)),
      c_checks_(stats_.counter("checks")),
      c_bt_checks_(stats_.counter("bt_checks")),
      c_tag_checks_(stats_.counter("tag_checks")),
      c_skipped_unprotected_(stats_.counter("skipped_unprotected")),
      c_guard_suppressed_(stats_.counter("guard_suppressed")),
      c_violations_(stats_.counter("violations")),
      c_stall_cycles_(stats_.counter("stall_cycles")),
      c_lookups_(meta_stats_.counter("lookups")),
      c_l1_hits_(meta_stats_.counter("l1_hits")),
      c_l1_misses_(meta_stats_.counter("l1_misses")),
      c_refills_(meta_stats_.counter("refills"))
{
}

void
ArmorShieldBackend::register_kernel(const ShieldKernelDesc &desc)
{
    KernelState ks;
    ks.rbt = desc.rbt;
    if (desc.regions != nullptr) {
        ks.entries.reserve(desc.regions->size());
        for (const ShieldRegionDesc &r : *desc.regions) {
            Entry e;
            e.id = r.id;
            e.tag = static_cast<std::uint16_t>(
                r.tag & ((1u << cfg_.tag_bits) - 1u));
            e.base = r.bounds.base_addr;
            // Coarse metadata: extents round up to the granule, so the
            // rounded tail is inside the checked region (documented
            // slop, see header).
            e.end = r.bounds.base_addr +
                    align_up(static_cast<VAddr>(r.bounds.size),
                             static_cast<VAddr>(kArmorGranule));
            e.read_only = r.bounds.read_only;
            ks.entries.push_back(e);
        }
    }
    kernels_[desc.kernel] = std::move(ks);
}

void
ArmorShieldBackend::deregister_kernel(KernelId kernel)
{
    kernels_.erase(kernel);
    for (CacheLine &line : cache_)
        if (line.valid && line.kernel == kernel)
            line.valid = false;
}

void
ArmorShieldBackend::log(const BcuRequest &req, ViolationKind kind)
{
    if (req.cover_probe)
        return; // a failed cover probe is a fallback, not a violation
    if (req.silent) {
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
ArmorShieldBackend::exposed_stall(const BcuRequest &req,
                                  Cycle check_latency) const
{
    // Same shadow rule as the region backend (Fig. 12): a D-cache miss
    // hides everything; each extra coalesced transaction widens the
    // shadow by one cycle.
    if (!req.dcache_hit)
        return 0;
    const Cycle shadow =
        pipeline_slack_ + (req.num_transactions > 0
                               ? req.num_transactions - 1
                               : 0);
    return check_latency > shadow ? check_latency - shadow : 0;
}

bool
ArmorShieldBackend::cache_lookup(KernelId kernel, BufferId id)
{
    ++c_lookups_;
    for (const CacheLine &line : cache_) {
        if (line.valid && line.kernel == kernel && line.id == id) {
            ++c_l1_hits_;
            return true;
        }
    }
    ++c_l1_misses_;
    cache_[cache_fifo_] = CacheLine{kernel, id, true};
    cache_fifo_ = (cache_fifo_ + 1) % cache_.size();
    return false;
}

BcuResponse
ArmorShieldBackend::check(const BcuRequest &req)
{
    BcuResponse resp;

    if (req.has_bt_bounds) {
        // Method A (binding table) is backend-independent: the BT
        // entry supplies exact bounds regardless of the pointer scheme.
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
    ++c_tag_checks_;

    const auto it = kernels_.find(req.kernel);
    if (it == kernels_.end())
        panic("Armor: check for unregistered kernel");
    KernelState &ks = it->second;

    const std::uint16_t tag = static_cast<std::uint16_t>(
        ptr_field(req.pointer) & ((1u << cfg_.tag_bits) - 1u));

    // Associative tag match over the kernel's metadata entries: the
    // access passes iff some same-tag entry contains it (and allows
    // the store). Several regions may share a tag — that aliasing is
    // the backend's documented weakness, not a wildcard: a range no
    // same-tag entry contains still faults.
    const Entry *tag_match = nullptr;   // any entry with this tag
    const Entry *containing = nullptr;  // tag match containing the range
    bool ro_blocked = false;
    for (const Entry &e : ks.entries) {
        if (e.tag != tag)
            continue;
        if (tag_match == nullptr)
            tag_match = &e;
        if (req.min_addr >= e.base && req.max_end <= e.end) {
            if (req.is_store && e.read_only) {
                ro_blocked = true;
                continue;
            }
            containing = &e;
            break;
        }
    }

    Cycle check_latency = cfg_.table_latency;
    if (containing != nullptr || tag_match != nullptr) {
        const Entry &timed =
            containing != nullptr ? *containing : *tag_match;
        if (cache_lookup(req.kernel, timed.id)) {
            check_latency = cfg_.cache_hit_latency;
        } else {
            // Metadata walk: refill traffic to the entry's physical
            // slot, exactly like an RBT refill.
            resp.refill = true;
            resp.refill_paddr =
                ks.rbt != nullptr ? ks.rbt->entry_paddr(timed.id) : 0;
        }
    }

    if (containing == nullptr) {
        resp.violation = true;
        if (ro_blocked) {
            resp.kind = ViolationKind::ReadOnlyWrite;
        } else if (tag_match != nullptr) {
            resp.kind = ViolationKind::OutOfBounds;
            resp.region_known = true;
            resp.region_base = tag_match->base;
            resp.region_end = tag_match->end;
        } else {
            // No metadata entry carries this tag: forged or stale
            // pointer.
            resp.kind = ViolationKind::InvalidEntry;
        }
        log(req, resp.kind);
    }

    resp.stall_cycles = exposed_stall(req, check_latency);
    if (resp.stall_cycles > 0)
        c_stall_cycles_ += resp.stall_cycles;
    return resp;
}

const char *
ArmorShieldBackend::weakness_label(const ShieldMissContext &ctx) const
{
    if (ctx.has_bt || ctx.regions == nullptr)
        return nullptr;
    const std::uint16_t tag = static_cast<std::uint16_t>(
        ptr_field(ctx.pointer) & ((1u << cfg_.tag_bits) - 1u));
    // A truly-violating range the check passed must have landed inside
    // a same-tag entry (rounded extents) — same-kernel tag aliasing.
    for (const ShieldRegionDesc &r : *ctx.regions) {
        const std::uint16_t rtag = static_cast<std::uint16_t>(
            r.tag & ((1u << cfg_.tag_bits) - 1u));
        if (rtag != tag)
            continue;
        const VAddr end =
            r.bounds.base_addr +
            align_up(static_cast<VAddr>(r.bounds.size),
                     static_cast<VAddr>(kArmorGranule));
        if (ctx.min_addr >= r.bounds.base_addr && ctx.max_end <= end)
            return "tag_collision";
    }
    return nullptr;
}

} // namespace gpushield
