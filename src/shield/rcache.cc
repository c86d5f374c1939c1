#include "shield/rcache.h"

#include <algorithm>

#include "common/log.h"

namespace gpushield {

RCache::RCache(const RCacheConfig &cfg)
    : cfg_(cfg),
      c_lookups_(stats_.counter("lookups")),
      c_l1_hits_(stats_.counter("l1_hits")),
      c_l1_misses_(stats_.counter("l1_misses")),
      c_l2_hits_(stats_.counter("l2_hits")),
      c_l2_misses_(stats_.counter("l2_misses")),
      c_l1_evictions_(stats_.counter("l1_evictions")),
      c_l2_evictions_(stats_.counter("l2_evictions")),
      c_refills_(stats_.counter("refills"))
{
    if (cfg_.partitions == 0)
        fatal("RCache: at least one partition required");
    banks_.resize(cfg_.partitions);
    for (Bank &bank : banks_) {
        bank.l1.resize(cfg_.l1_entries);
        bank.l2.resize(cfg_.l2_entries);
    }
}

RCache::Bank &
RCache::bank_for(KernelId kernel)
{
    // Kernels hash to banks by warp-scheduler position (§6.2); kernel
    // ID modulo bank count models that assignment.
    return banks_[kernel % cfg_.partitions];
}

RCache::Entry *
RCache::find(std::vector<Entry> &arr, KernelId kernel, BufferId id)
{
    for (Entry &e : arr)
        if (e.valid && e.kernel == kernel && e.id == id)
            return &e;
    return nullptr;
}

RCacheResult
RCache::lookup(KernelId kernel, BufferId id)
{
    ++c_lookups_;
    RCacheResult result;
    Bank &bank = bank_for(kernel);

    if (Entry *e = find(bank.l1, kernel, id)) {
        // FIFO L1: a hit does not touch the insertion stamp.
        ++c_l1_hits_;
        result.level = RCacheLevel::L1;
        result.bounds = e->bounds;
        return result;
    }
    ++c_l1_misses_;

    if (Entry *e = find(bank.l2, kernel, id)) {
        ++c_l2_hits_;
        e->stamp = ++lru_stamp_; // LRU touch
        result.level = RCacheLevel::L2;
        result.bounds = e->bounds;
        insert_l1(bank, kernel, id, e->bounds);
        return result;
    }
    ++c_l2_misses_;
    return result;
}

void
RCache::insert_l1(Bank &bank, KernelId kernel, BufferId id,
                  const Bounds &bounds)
{
    // FIFO replacement: evict the oldest-inserted entry. The stamp is
    // assigned once, from the bank's insertion-order clock — never
    // refreshed on hit, and independent of the L2 LRU clock.
    Entry *victim = &bank.l1[0];
    for (Entry &e : bank.l1) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.stamp < victim->stamp)
            victim = &e;
    }
    if (victim->valid)
        ++c_l1_evictions_;
    *victim = Entry{true, kernel, id, bounds, ++bank.l1_fifo_stamp};
}

void
RCache::insert_l2(Bank &bank, KernelId kernel, BufferId id,
                  const Bounds &bounds)
{
    Entry *victim = &bank.l2[0];
    for (Entry &e : bank.l2) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.stamp < victim->stamp)
            victim = &e;
    }
    if (victim->valid)
        ++c_l2_evictions_;
    *victim = Entry{true, kernel, id, bounds, ++lru_stamp_};
}

void
RCache::fill(KernelId kernel, BufferId id, const Bounds &bounds)
{
    ++c_refills_;
    Bank &bank = bank_for(kernel);
    if (!find(bank.l2, kernel, id))
        insert_l2(bank, kernel, id, bounds);
    if (!find(bank.l1, kernel, id))
        insert_l1(bank, kernel, id, bounds);
}

void
RCache::invalidate_kernel(KernelId kernel)
{
    // §5.5 requires only the terminating kernel's state to go; entries
    // of concurrently-resident kernels stay cached (§6.2). All of a
    // kernel's entries live in its hash bank.
    Bank &bank = bank_for(kernel);
    for (Entry &e : bank.l1)
        if (e.valid && e.kernel == kernel)
            e.valid = false;
    for (Entry &e : bank.l2)
        if (e.valid && e.kernel == kernel)
            e.valid = false;
}

} // namespace gpushield
