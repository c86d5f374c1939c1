/**
 * @file
 * Trace-driven memory simulation — the mode the paper's methodology is
 * built on (MacSim consumes instruction/memory traces; GT-Pin produces
 * them for Intel GPUs).
 *
 * MemTraceRecorder captures every global-memory warp instruction
 * (kernel, core, warp, pc, lane addresses) into a compact binary trace.
 * replay_trace() then re-issues those transactions through a fresh
 * memory hierarchy with an in-order per-core front end, reproducing the
 * memory system's behaviour (hit rates, DRAM locality, bandwidth)
 * without functional execution — useful for fast memory-system studies
 * and for validating the execution-driven model's memory stream.
 */

#ifndef GPUSHIELD_TRACE_REPLAY_H
#define GPUSHIELD_TRACE_REPLAY_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "driver/driver.h"
#include "sim/config.h"
#include "sim/observer.h"

namespace gpushield::trace {

/** One recorded global-memory warp instruction. */
struct TraceRecord
{
    CoreId core = 0;
    KernelId kernel = 0;
    WarpId warp = 0;
    int pc = -1;
    bool is_store = false;
    std::uint8_t size = 4;
    LaneMask mask = 0;
    std::array<VAddr, kWarpSize> lane_addr{};
};

/** Observer capturing the memory trace of a run. */
class MemTraceRecorder : public LaneObserver
{
  public:
    void on_mem_check(const MemCheckEvent &ev) override;

    const std::vector<TraceRecord> &records() const { return records_; }

    /** Compact binary encoding (versioned, like the kernel binary). */
    std::vector<std::uint8_t> save() const;

    /** Decodes a trace; fatal() on malformed input. */
    static std::vector<TraceRecord>
    load(const std::vector<std::uint8_t> &bytes);

  private:
    std::vector<TraceRecord> records_;
};

/** Outcome of a trace replay. */
struct ReplayResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0; //!< memory warp-instructions replayed
    std::uint64_t transactions = 0; //!< coalesced line transactions
    double l1_hit_rate = 0.0;       //!< aggregated over cores
    StatSet hierarchy;              //!< memory-hierarchy counters
};

/**
 * Replays @p records against a fresh memory hierarchy configured by
 * @p cfg, translating through @p device's page tables (the trace must
 * have been recorded on the same device so the mappings exist). Each
 * core replays its own records in order with one outstanding memory
 * instruction (an in-order front end); cores advance concurrently.
 */
ReplayResult replay_trace(const std::vector<TraceRecord> &records,
                          const GpuConfig &cfg, GpuDevice &device);

} // namespace gpushield::trace

#endif // GPUSHIELD_TRACE_REPLAY_H
