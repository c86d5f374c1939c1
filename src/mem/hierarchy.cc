#include "mem/hierarchy.h"

#include "common/bitutil.h"

namespace gpushield {

MemoryHierarchy::MemoryHierarchy(EventQueue &eq, PageTable &pt,
                                 const MemHierConfig &cfg, unsigned num_cores)
    : eq_(eq), pt_(pt), cfg_(cfg),
      l2_cache_(cfg.l2),
      l2_tlb_(cfg.l2_tlb_entries, cfg.l2_tlb_assoc, cfg.page_size, "l2tlb"),
      dram_(eq, cfg.dram),
      c_faults_(stats_.counter("faults")),
      c_page_walks_(stats_.counter("page_walks")),
      c_dram_reads_(stats_.counter("dram_reads")),
      c_physical_accesses_(stats_.counter("physical_accesses")),
      c_dram_retries_(stats_.counter("dram_retries"))
{
    l1_.reserve(num_cores);
    l1_tlb_.reserve(num_cores);
    for (unsigned c = 0; c < num_cores; ++c) {
        CacheConfig l1cfg = cfg.l1;
        l1cfg.name = "l1." + std::to_string(c);
        l1_.push_back(std::make_unique<Cache>(l1cfg));
        l1_tlb_.push_back(std::make_unique<Tlb>(
            cfg.l1_tlb_entries, cfg.l1_tlb_entries, cfg.page_size,
            "l1tlb." + std::to_string(c)));
    }
}

AccessIssue
MemoryHierarchy::access(CoreId core, VAddr vaddr, bool is_write, Callback done)
{
    AccessIssue issue;
    const VAddr line_addr = align_down(vaddr & kVAddrMask, cfg_.l1.line_size);

    const Translation xlat = pt_.translate(line_addr, is_write);
    if (!xlat.ok) {
        issue.translation_fault = !xlat.permission_fault;
        issue.permission_fault = xlat.permission_fault;
        ++c_faults_;
        return issue;
    }
    issue.paddr = xlat.paddr;

    // TLB lookup: L1 TLB in parallel with L1 tag; misses serialize.
    Cycle tlb_delay = 0;
    issue.l1_tlb_hit = l1_tlb_[core]->access(line_addr);
    if (!issue.l1_tlb_hit) {
        if (l2_tlb_.access(line_addr)) {
            tlb_delay = cfg_.l2_tlb_latency;
        } else {
            tlb_delay = cfg_.page_walk_latency;
            ++c_page_walks_;
        }
    }

    const auto l1_res = l1_[core]->access(line_addr, is_write);
    issue.l1_hit = l1_res.hit;

    if (l1_res.hit) {
        eq_.schedule_in(tlb_delay + cfg_.l1_latency, std::move(done));
        return issue;
    }

    // L1 miss: check the shared L2 after the L2 access latency.
    const auto l2_res = l2_cache_.access(xlat.paddr, is_write);
    if (l2_res.evicted_dirty)
        enqueue_dram(l2_res.evicted_tag_addr, /*is_write=*/true, nullptr);

    const Cycle to_l2 = tlb_delay + cfg_.l1_latency + cfg_.l2_latency;
    if (l2_res.hit) {
        eq_.schedule_in(to_l2, std::move(done));
        return issue;
    }

    // L2 miss: DRAM round trip starting after the L2 lookup.
    ++c_dram_reads_;
    eq_.schedule_in(to_l2, [this, paddr = xlat.paddr, is_write,
                            done = std::move(done)]() mutable {
        enqueue_dram(paddr, is_write, std::move(done));
    });
    return issue;
}

void
MemoryHierarchy::enqueue_dram(PAddr paddr, bool is_write, Callback done)
{
    if (dram_.enqueue(paddr, is_write, std::move(done)))
        return;
    // Channel queue full: Dram::enqueue rejected without consuming the
    // callback; retry next cycle until a slot frees up.
    ++c_dram_retries_;
    ++pending_dram_retries_;
    schedule_dram_retry(paddr, is_write, std::move(done));
}

void
MemoryHierarchy::schedule_dram_retry(PAddr paddr, bool is_write,
                                     Callback done)
{
    eq_.schedule_in(1, [this, paddr, is_write,
                        done = std::move(done)]() mutable {
        if (dram_.enqueue(paddr, is_write, std::move(done))) {
            --pending_dram_retries_;
            return;
        }
        ++c_dram_retries_;
        schedule_dram_retry(paddr, is_write, std::move(done));
    });
}

void
MemoryHierarchy::access_physical(PAddr paddr, Callback done)
{
    const PAddr line_addr = align_down(paddr, cfg_.l2.line_size);
    const auto l2_res = l2_cache_.access(line_addr, /*is_write=*/false);
    ++c_physical_accesses_;
    if (l2_res.hit) {
        eq_.schedule_in(cfg_.l2_latency, std::move(done));
        return;
    }
    eq_.schedule_in(cfg_.l2_latency, [this, line_addr,
                                      done = std::move(done)]() mutable {
        enqueue_dram(line_addr, /*is_write=*/false, std::move(done));
    });
}

void
MemoryHierarchy::flush_core(CoreId core)
{
    l1_[core]->flush();
    l1_tlb_[core]->flush();
}

} // namespace gpushield
