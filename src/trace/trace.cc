#include "trace/trace.h"

#include <bit>

#include "common/bitutil.h"

namespace gpushield::trace {

TraceWriter::TraceWriter(std::ostream &os, std::uint64_t max_lines)
    : os_(os), max_lines_(max_lines)
{
}

void
TraceWriter::on_step(CoreId core, KernelId kernel, const WarpState &warp,
                     const Instr &instr)
{
    ++records_;
    if (max_lines_ != 0 && records_ > max_lines_)
        return;
    os_ << "c" << core << " k" << kernel << " w" << warp.id << " pc"
        << warp.pc << " " << op_name(instr.op);
    if (!is_global_mem(instr.op))
        os_ << "\n";
}

void
TraceWriter::on_mem_check(const MemCheckEvent &ev)
{
    if (max_lines_ != 0 && records_ > max_lines_)
        return;
    const MemOp &mem = *ev.op;
    os_ << (mem.is_store ? " st" : " ld") << " [0x" << std::hex
        << mem.min_addr << ",0x" << mem.max_end << std::dec
        << ") lanes=" << std::popcount(mem.mask) << "\n";
}

void
OpProfiler::on_step(CoreId, KernelId, const WarpState &, const Instr &instr)
{
    ++total_;
    ++histogram_[instr.op];
}

void
OpProfiler::on_mem_check(const MemCheckEvent &ev)
{
    const MemOp &mem = *ev.op;
    ++mem_instrs_;
    active_lane_sum_ += std::popcount(mem.mask);
    const VAddr first = align_down(mem.min_addr, kLineSize);
    const VAddr last = align_down(mem.max_end - 1, kLineSize);
    mem_line_sum_ += (last - first) / kLineSize + 1;
}

double
OpProfiler::ldst_fraction() const
{
    return total_ == 0 ? 0.0
                       : static_cast<double>(mem_instrs_) /
                             static_cast<double>(total_);
}

double
OpProfiler::avg_active_lanes() const
{
    return mem_instrs_ == 0 ? 0.0
                            : static_cast<double>(active_lane_sum_) /
                                  static_cast<double>(mem_instrs_);
}

double
OpProfiler::avg_mem_span_lines() const
{
    return mem_instrs_ == 0 ? 0.0
                            : static_cast<double>(mem_line_sum_) /
                                  static_cast<double>(mem_instrs_);
}

void
OpProfiler::report(std::ostream &os) const
{
    for (const auto &[op, count] : histogram_)
        os << op_name(op) << " " << count << "\n";
    os << "total " << total_ << "\n";
    os << "ldst_fraction " << ldst_fraction() << "\n";
}

AddressProfiler::AddressProfiler(std::uint64_t page_size)
    : page_size_(page_size)
{
}

void
AddressProfiler::on_mem_check(const MemCheckEvent &ev)
{
    const MemOp &mem = *ev.op;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (((mem.mask >> lane) & 1) == 0)
            continue;
        const std::uint64_t page = mem.lane_addr[lane] / page_size_;
        pages_.insert(page);
        per_pc_[mem.pc].insert(page);
    }
}

} // namespace gpushield::trace
