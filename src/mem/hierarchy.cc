#include "mem/hierarchy.h"

#include <cstddef>
#include <string>

#include "common/bitutil.h"

namespace gpushield {

namespace {

/** RetryKey::batch of the refusals made at @p cycle before any retry
 *  event of that cycle: later cycles sort first, all before 0. */
std::int64_t
front_batch(Cycle cycle)
{
    return -static_cast<std::int64_t>(cycle) - 1;
}

} // namespace

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
    // The retry order sorts refusals by whether they come before or
    // after a cycle's retry events (scheduled one cycle ahead); a DRAM
    // arrival scheduled one cycle ahead could land between two of them.
    if (cfg_.l2_latency < 2)
        panic("hierarchy: l2_latency " + std::to_string(cfg_.l2_latency) +
              " is below 2 cycles");
    waiting_.resize(cfg_.dram.channels);
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
    // A refusal before this cycle's retry events goes ahead of every
    // waiter, from the next cycle on; one after them goes behind.
    const Cycle now = eq_.now();
    const bool front = last_retry_cycle_ != now;
    const RetryKey key{front ? front_batch(now) : 0, refusals_++};
    DramWaiter w{paddr, is_write, std::move(done), key};
    if (front)
        held_.push_back(std::move(w));
    else
        waiting_[dram_.channel_of(paddr)].push_back(std::move(w));
    RetryRun &run = joinable_retry_run();
    run.last = key;
    ++run.count;
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
MemoryHierarchy::queue_held_refusals()
{
    // The current cycle's front batch stays held; an older batch (at
    // most the previous cycle's) goes ahead of every waiter.
    const std::int64_t current = front_batch(eq_.now());
    std::size_t n = 0;
    while (n < held_.size() && held_[n].key.batch != current)
        ++n;
    for (std::size_t i = n; i-- > 0;)
        waiting_[dram_.channel_of(held_[i].paddr)].push_front(
            std::move(held_[i]));
    held_.erase(held_.begin(),
                held_.begin() + static_cast<std::ptrdiff_t>(n));
}

void
MemoryHierarchy::retry_front_run()
{
    const RetryRun run = retry_runs_.front();
    retry_runs_.pop_front();
    if (last_retry_cycle_ != eq_.now()) {
        last_retry_cycle_ = eq_.now();
        queue_held_refusals();
    }
    // Admit the run's channel heads in key order while their channels
    // have room. Nothing frees a slot between two retry events of one
    // cycle, so a head from an earlier run of this cycle sits in a full
    // channel and is never admitted here.
    std::uint64_t admitted = 0;
    for (;;) {
        std::deque<DramWaiter> *next = nullptr;
        for (unsigned ch = 0; ch < waiting_.size(); ++ch) {
            std::deque<DramWaiter> &fifo = waiting_[ch];
            if (fifo.empty() || run.last < fifo.front().key ||
                !dram_.has_room(ch))
                continue;
            if (next == nullptr || fifo.front().key < next->front().key)
                next = &fifo;
        }
        if (next == nullptr)
            break;
        DramWaiter &w = next->front();
        if (!dram_.enqueue(w.paddr, w.is_write, std::move(w.done)))
            panic("hierarchy: a DRAM channel with room refused a retry");
        next->pop_front();
        ++admitted;
    }
    if (admitted > run.count)
        panic("hierarchy: a retry run admitted waiters outside its range");
    pending_dram_retries_ -= static_cast<unsigned>(admitted);
    const std::uint64_t refused = run.count - admitted;
    if (refused == 0)
        return;
    c_dram_retries_ += refused;
    dram_.note_refusals(refused);
    // An admitted waiter schedules only its completion, at least two
    // cycles ahead (Dram's latency invariant), so nothing has landed on
    // the next cycle between the survivors: they stay one range.
    RetryRun &next_run = joinable_retry_run();
    next_run.last = run.last;
    next_run.count += refused;
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
