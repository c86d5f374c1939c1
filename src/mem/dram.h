/**
 * @file
 * DRAM channel model with FR-FCFS scheduling and row-buffer state.
 *
 * Matches the paper's memory configuration (Table 5): 2KB row buffer,
 * FR-FCFS policy, 16 channels. Each channel services one request at a
 * time; a request's latency depends on whether it hits the open row of
 * its bank. A full channel queue refuses a request (back-pressure);
 * MemoryHierarchy keeps refused requests in per-channel FIFOs and
 * retries them against has_room(), the test enqueue() applies. Their
 * retry order stays exact only while no slot frees between two retry
 * events of one cycle, so a service takes at least 2 cycles.
 */

#ifndef GPUSHIELD_MEM_DRAM_H
#define GPUSHIELD_MEM_DRAM_H

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"

namespace gpushield {

/**
 * DRAM timing and geometry parameters (in core cycles). The shortest
 * service time, min(row_hit_latency, row_miss_latency) + burst_cycles,
 * must be at least 2 cycles; Dram panics otherwise.
 */
struct DramConfig
{
    unsigned channels = 16;
    unsigned banks_per_channel = 8;
    std::uint64_t row_bytes = 2048;
    Cycle row_hit_latency = 40;    //!< CAS
    Cycle row_miss_latency = 100;  //!< PRE + ACT + CAS
    Cycle burst_cycles = 4;        //!< data-bus occupancy per 128B transfer
    unsigned queue_capacity = 64;  //!< per-channel request queue depth
};

/** FR-FCFS memory controller over N channels. */
class Dram
{
  public:
    using Callback = std::function<void()>;

    Dram(EventQueue &eq, const DramConfig &cfg);

    /**
     * Enqueues a request for the line at @p paddr. @p done runs when the
     * data transfer completes.
     *
     * @return true when the request was accepted. When the channel queue
     *         is at capacity the request is REJECTED (back-pressure): the
     *         `queue_full` stat is bumped, @p done is left untouched, and
     *         the caller must retry on a later cycle (see
     *         MemoryHierarchy::enqueue_dram).
     */
    [[nodiscard]] bool enqueue(PAddr paddr, bool is_write, Callback &&done);

    /** Channel that services the line at @p paddr. */
    unsigned
    channel_of(PAddr paddr) const
    {
        // Interleave channels at line granularity for bandwidth spreading.
        return static_cast<unsigned>((paddr / kLineSize) % cfg_.channels);
    }

    /** True when channel @p ch would accept a request: the request in
     *  service still holds its queue slot until its burst completes. */
    bool
    has_room(unsigned ch) const
    {
        const Channel &c = channels_[ch];
        return c.queue.size() + (c.busy ? 1u : 0u) < cfg_.queue_capacity;
    }

    /** Counts @p n refusals that were decided by has_room() instead of
     *  enqueue(), so that `queue_full` still counts every refusal. */
    void note_refusals(std::uint64_t n) { c_queue_full_ += n; }

    /** True when all channels are idle with empty queues. */
    bool idle() const;

    /** Requests currently queued or in service across all channels
     *  (instantaneous occupancy; sampled by the profiler). */
    unsigned total_queued() const;

    const DramConfig &config() const { return cfg_; }
    const StatSet &stats() const { return stats_; }

  private:
    struct Request
    {
        PAddr paddr = 0;
        bool is_write = false;
        Callback done;
    };

    struct Channel
    {
        std::deque<Request> queue;
        std::vector<std::uint64_t> open_row; //!< per-bank open row (~0 closed)
        bool busy = false;
    };

    unsigned bank_of(PAddr paddr) const;
    std::uint64_t row_of(PAddr paddr) const;

    /** Starts servicing the best queued request of channel @p ch. */
    void service_next(unsigned ch);

    EventQueue &eq_;
    DramConfig cfg_;
    std::vector<Channel> channels_;
    StatSet stats_;
    // Interned per-request counters (resolved once; bumped per event).
    StatSet::Counter c_requests_, c_queue_full_, c_row_hits_, c_row_misses_;
};

} // namespace gpushield

#endif // GPUSHIELD_MEM_DRAM_H
