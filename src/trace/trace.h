/**
 * @file
 * GT-Pin-style instrumentation built on the instruction observer:
 *
 *  - TraceWriter: streams a text trace of issued instructions (with
 *    warp-level address ranges for memory ops) to any std::ostream.
 *  - OpProfiler: opcode histograms plus the load/store-fraction and
 *    divergence statistics the paper quotes (e.g. streamcluster's
 *    31.22% load/store share in §8.5).
 *  - AddressProfiler: per-buffer-page touch counts — the analysis
 *    behind Fig. 11's pages-per-buffer characterization.
 */

#ifndef GPUSHIELD_TRACE_TRACE_H
#define GPUSHIELD_TRACE_TRACE_H

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "sim/observer.h"

namespace gpushield::trace {

/** Streams one line per issued instruction; a global access's line
 *  ends with its warp-level address range once its check is in. */
class TraceWriter : public LaneObserver
{
  public:
    /**
     * @param os        destination stream (not owned)
     * @param max_lines stop writing after this many records (0 = all);
     *                  counting continues either way
     */
    explicit TraceWriter(std::ostream &os, std::uint64_t max_lines = 0);

    void on_step(CoreId core, KernelId kernel, const WarpState &warp,
                 const Instr &instr) override;
    void on_mem_check(const MemCheckEvent &ev) override;

    std::uint64_t records() const { return records_; }

  private:
    std::ostream &os_;
    std::uint64_t max_lines_;
    std::uint64_t records_ = 0;
};

/** Opcode mix and memory-instruction statistics. */
class OpProfiler : public LaneObserver
{
  public:
    void on_step(CoreId core, KernelId kernel, const WarpState &warp,
                 const Instr &instr) override;
    void on_mem_check(const MemCheckEvent &ev) override;

    /** Issued warp-instructions in total. */
    std::uint64_t total() const { return total_; }

    /** Issue count for one opcode. */
    std::uint64_t
    count(Op op) const
    {
        const auto it = histogram_.find(op);
        return it == histogram_.end() ? 0 : it->second;
    }

    /** Fraction of issued instructions that are global loads/stores. */
    double ldst_fraction() const;

    /** Average active lanes per issued instruction (32 = no
     *  divergence). */
    double avg_active_lanes() const;

    /** Average coalesced-transaction footprint per memory instruction
     *  (1.0 = perfectly coalesced 4B accesses). */
    double avg_mem_span_lines() const;

    /** Writes a "opcode count" report. */
    void report(std::ostream &os) const;

  private:
    std::map<Op, std::uint64_t> histogram_;
    std::uint64_t total_ = 0;
    std::uint64_t mem_instrs_ = 0;
    std::uint64_t active_lane_sum_ = 0;
    std::uint64_t mem_line_sum_ = 0;
};

/** Tracks which pages each (tagged) region touches — Fig. 11 style. */
class AddressProfiler : public LaneObserver
{
  public:
    explicit AddressProfiler(std::uint64_t page_size = kPageSize4K);

    void on_mem_check(const MemCheckEvent &ev) override;

    /** Number of distinct pages touched overall. */
    std::size_t pages_touched() const { return pages_.size(); }

    /** Distinct pages touched through one static instruction. */
    std::size_t
    pages_for_pc(int pc) const
    {
        const auto it = per_pc_.find(pc);
        return it == per_pc_.end() ? 0 : it->second.size();
    }

  private:
    std::uint64_t page_size_;
    std::set<std::uint64_t> pages_;
    std::map<int, std::set<std::uint64_t>> per_pc_;
};

} // namespace gpushield::trace

#endif // GPUSHIELD_TRACE_TRACE_H
