#include "mem/dram.h"

#include <algorithm>
#include <string>

#include "common/log.h"

namespace gpushield {

Dram::Dram(EventQueue &eq, const DramConfig &cfg)
    : eq_(eq), cfg_(cfg), channels_(cfg.channels),
      c_requests_(stats_.counter("requests")),
      c_queue_full_(stats_.counter("queue_full")),
      c_row_hits_(stats_.counter("row_hits")),
      c_row_misses_(stats_.counter("row_misses"))
{
    // MemoryHierarchy retries refused requests a cycle ahead, in runs
    // that test has_room() per channel; that keeps the event order
    // exact only while no completion can land on the next cycle.
    const Cycle min_service =
        std::min(cfg_.row_hit_latency, cfg_.row_miss_latency) +
        cfg_.burst_cycles;
    if (min_service < 2)
        panic("dram: service latency " + std::to_string(min_service) +
              " is below 2 cycles");
    for (Channel &ch : channels_)
        ch.open_row.assign(cfg_.banks_per_channel, ~std::uint64_t{0});
}

unsigned
Dram::bank_of(PAddr paddr) const
{
    return static_cast<unsigned>(
        (paddr / cfg_.row_bytes) % cfg_.banks_per_channel);
}

std::uint64_t
Dram::row_of(PAddr paddr) const
{
    return paddr / cfg_.row_bytes / cfg_.banks_per_channel;
}

bool
Dram::enqueue(PAddr paddr, bool is_write, Callback &&done)
{
    const unsigned ch_idx = channel_of(paddr);
    if (!has_room(ch_idx)) {
        // Back-pressure: reject without consuming the callback; the
        // caller retries on a later cycle.
        ++c_queue_full_;
        return false;
    }
    Channel &ch = channels_[ch_idx];
    ++c_requests_;
    ch.queue.push_back(Request{paddr, is_write, std::move(done)});
    if (!ch.busy)
        service_next(ch_idx);
    return true;
}

void
Dram::service_next(unsigned ch_idx)
{
    Channel &ch = channels_[ch_idx];
    if (ch.queue.empty()) {
        ch.busy = false;
        return;
    }
    ch.busy = true;

    // FR-FCFS: prefer the oldest request whose row is already open in its
    // bank; otherwise take the oldest request.
    auto best = ch.queue.end();
    for (auto it = ch.queue.begin(); it != ch.queue.end(); ++it) {
        const unsigned bank = bank_of(it->paddr);
        if (ch.open_row[bank] == row_of(it->paddr)) {
            best = it;
            break;
        }
    }
    if (best == ch.queue.end())
        best = ch.queue.begin();

    Request req = std::move(*best);
    ch.queue.erase(best);

    const unsigned bank = bank_of(req.paddr);
    const std::uint64_t row = row_of(req.paddr);
    const bool row_hit = ch.open_row[bank] == row;
    ch.open_row[bank] = row;
    if (row_hit)
        ++c_row_hits_;
    else
        ++c_row_misses_;

    const Cycle access = row_hit ? cfg_.row_hit_latency : cfg_.row_miss_latency;
    const Cycle total = access + cfg_.burst_cycles;

    eq_.schedule_in(total, [this, ch_idx, done = std::move(req.done)]() mutable {
        if (done)
            done();
        service_next(ch_idx);
    });
}

unsigned
Dram::total_queued() const
{
    unsigned n = 0;
    for (const Channel &ch : channels_)
        n += static_cast<unsigned>(ch.queue.size()) + (ch.busy ? 1u : 0u);
    return n;
}

bool
Dram::idle() const
{
    return std::all_of(channels_.begin(), channels_.end(),
                       [](const Channel &ch) {
                           return !ch.busy && ch.queue.empty();
                       });
}

} // namespace gpushield
