#include "sim/lsu.h"

#include <algorithm>

#include "common/bitutil.h"

namespace gpushield {

void
coalesce_into(const MemOp &op, std::uint64_t line_size,
              std::vector<VAddr> &lines)
{
    lines.clear();
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (((op.mask >> lane) & 1) == 0)
            continue;
        // An access may straddle a line boundary.
        const VAddr first = align_down(op.lane_addr[lane], line_size);
        const VAddr last =
            align_down(op.lane_addr[lane] + op.size - 1, line_size);
        for (VAddr line = first; line <= last; line += line_size)
            lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

std::vector<VAddr>
coalesce(const MemOp &op, std::uint64_t line_size)
{
    std::vector<VAddr> lines;
    lines.reserve(4);
    coalesce_into(op, line_size, lines);
    return lines;
}

} // namespace gpushield
