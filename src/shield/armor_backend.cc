#include "shield/armor_backend.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/log.h"
#include "shield/pointer.h"

namespace gpushield {

ArmorShieldBackend::ArmorShieldBackend(const ArmorShieldConfig &cfg,
                                       Cycle pipeline_slack)
    : ShieldBackend(pipeline_slack), cfg_(cfg),
      tag_mask_(static_cast<std::uint16_t>((1u << cfg.tag_bits) - 1u)),
      cache_(std::max(1u, cfg.cache_entries)),
      c_tag_checks_(counter("tag_checks")),
      c_lookups_(meta_stats_.counter("lookups")),
      c_l1_hits_(meta_stats_.counter("l1_hits")),
      c_l1_misses_(meta_stats_.counter("l1_misses")),
      c_refills_(meta_stats_.counter("refills"))
{
}

ArmorShieldBackend::Entry
ArmorShieldBackend::entry_of(const ShieldRegionDesc &r) const
{
    Entry e;
    e.id = r.id;
    e.tag = static_cast<std::uint16_t>(r.tag & tag_mask_);
    e.base = r.bounds.base_addr;
    // Coarse metadata: extents round up to the granule, so the rounded
    // tail is inside the checked region (documented slop, see header).
    e.end = r.bounds.base_addr +
            align_up(static_cast<VAddr>(r.bounds.size),
                     static_cast<VAddr>(kArmorGranule));
    e.read_only = r.bounds.read_only;
    return e;
}

std::uint16_t
ArmorShieldBackend::tag_of(std::uint64_t pointer) const
{
    return static_cast<std::uint16_t>(ptr_field(pointer) & tag_mask_);
}

void
ArmorShieldBackend::register_kernel(const ShieldKernelDesc &desc)
{
    KernelState ks;
    ks.rbt = desc.rbt;
    if (desc.regions != nullptr) {
        ks.entries.reserve(desc.regions->size());
        for (const ShieldRegionDesc &r : *desc.regions)
            ks.entries.push_back(entry_of(r));
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

Cycle
ArmorShieldBackend::check_pointer(const BcuRequest &req, BcuResponse &resp)
{
    ++c_tag_checks_;

    const auto it = kernels_.find(req.kernel);
    if (it == kernels_.end())
        panic("Armor: check for unregistered kernel");
    KernelState &ks = it->second;
    const std::uint16_t tag = tag_of(req.pointer);

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
        if (e.contains(req.min_addr, req.max_end)) {
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
            ++c_refills_;
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
    }
    return check_latency;
}

const char *
ArmorShieldBackend::weakness_label(const ShieldMissContext &ctx) const
{
    if (ctx.has_bt || ctx.regions == nullptr)
        return nullptr;
    const std::uint16_t tag = tag_of(ctx.pointer);
    // A truly-violating range the check passed must have landed inside
    // a same-tag entry (rounded extents) — same-kernel tag aliasing.
    for (const ShieldRegionDesc &r : *ctx.regions) {
        const Entry e = entry_of(r);
        if (e.tag == tag && e.contains(ctx.min_addr, ctx.max_end))
            return "tag_collision";
    }
    return nullptr;
}

} // namespace gpushield
