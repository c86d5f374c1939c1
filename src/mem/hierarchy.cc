#include "mem/hierarchy.h"

#include <iterator>

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
    joinable_retry_run().push_back(
        DramWaiter{paddr, is_write, std::move(done)});
}

MemoryHierarchy::RetryRun &
MemoryHierarchy::joinable_retry_run()
{
    // With nothing scheduled since the tail run's event, a retry event
    // of its own would sit right after the tail run's last waiter.
    if (tail_run_when_ != eq_.now() + 1 ||
        eq_.next_seq() != tail_run_seq_ + 1) {
        tail_run_when_ = eq_.now() + 1;
        tail_run_seq_ = eq_.next_seq();
        eq_.schedule_in(1, [this] { retry_front_run(); });
        retry_runs_.emplace_back();
    }
    return retry_runs_.back();
}

void
MemoryHierarchy::retry_front_run()
{
    RetryRun run = std::move(retry_runs_.front());
    retry_runs_.pop_front();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < run.size(); ++i) {
        DramWaiter &w = run[i];
        if (dram_.enqueue(w.paddr, w.is_write, std::move(w.done))) {
            --pending_dram_retries_;
            continue;
        }
        ++c_dram_retries_;
        if (kept != i)
            run[kept] = std::move(w);
        ++kept;
    }
    run.resize(kept);
    if (run.empty())
        return;
    // An accepted waiter schedules only its completion, at least two
    // cycles ahead (Dram's latency invariant), so nothing has landed on
    // the next cycle between the survivors: they re-join as one block.
    RetryRun &next = joinable_retry_run();
    if (next.empty())
        next = std::move(run);
    else
        next.insert(next.end(), std::make_move_iterator(run.begin()),
                    std::make_move_iterator(run.end()));
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

} // namespace gpushield
