#include "compiler/check_opt.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

namespace gpushield {

namespace {

/** One backward-branch region with its varies-in-loop register set. */
struct Loop
{
    int head = 0;
    int end = 0;
    std::vector<bool> varies; //!< per general register
};

/**
 * Discovers loop regions and, per region, the registers whose value
 * can differ between iterations. Seeds: loop-carried registers (read
 * before written inside the region — the induction variable is one)
 * and destinations of loads (runtime data); closed over the body's
 * dataflow to a fixpoint.
 */
std::vector<Loop>
find_loops(const KernelProgram &prog)
{
    std::vector<Loop> loops;
    const auto nregs = static_cast<std::size_t>(prog.num_regs);
    std::vector<int> srcs;
    for (std::size_t pc = 0; pc < prog.code.size(); ++pc) {
        const Instr &bra = prog.code[pc];
        if (bra.op != Op::Bra || bra.target > static_cast<int>(pc))
            continue;
        Loop loop;
        loop.head = bra.target;
        loop.end = static_cast<int>(pc);
        loop.varies.assign(nregs, false);

        std::vector<bool> written_in(nregs, false);
        for (int q = loop.head; q <= loop.end; ++q) {
            const int rd = dest_reg(prog.code[q]);
            if (rd != kNoReg)
                written_in[static_cast<std::size_t>(rd)] = true;
        }
        std::vector<bool> written_so_far(nregs, false);
        for (int q = loop.head; q <= loop.end; ++q) {
            const Instr &in = prog.code[q];
            srcs.clear();
            source_regs(in, srcs);
            for (const int s : srcs) {
                if (written_in[static_cast<std::size_t>(s)] &&
                    !written_so_far[static_cast<std::size_t>(s)])
                    loop.varies[static_cast<std::size_t>(s)] = true;
            }
            const int rd = dest_reg(in);
            if (rd != kNoReg) {
                written_so_far[static_cast<std::size_t>(rd)] = true;
                if (in.op == Op::Ld || in.op == Op::Lds)
                    loop.varies[static_cast<std::size_t>(rd)] = true;
            }
        }
        bool changed = true;
        while (changed) {
            changed = false;
            for (int q = loop.head; q <= loop.end; ++q) {
                const Instr &in = prog.code[q];
                const int rd = dest_reg(in);
                if (rd == kNoReg || loop.varies[static_cast<std::size_t>(rd)])
                    continue;
                srcs.clear();
                source_regs(in, srcs);
                for (const int s : srcs) {
                    if (loop.varies[static_cast<std::size_t>(s)]) {
                        loop.varies[static_cast<std::size_t>(rd)] = true;
                        changed = true;
                        break;
                    }
                }
            }
        }
        loops.push_back(std::move(loop));
    }
    return loops;
}

/**
 * Basic-block id per pc. Leaders: pc 0, every branch/reconvergence
 * target, and the instruction after any control transfer or barrier.
 * Coalescing only groups rows in one block, so a subsumed row is
 * guaranteed to execute under the same active mask as its cover.
 */
std::vector<int>
block_ids(const KernelProgram &prog)
{
    const std::size_t n = prog.code.size();
    std::vector<bool> leader(n, false);
    if (n > 0)
        leader[0] = true;
    for (std::size_t pc = 0; pc < n; ++pc) {
        const Instr &in = prog.code[pc];
        if ((in.op == Op::Bra || in.op == Op::Ssy) && in.target >= 0 &&
            static_cast<std::size_t>(in.target) < n)
            leader[static_cast<std::size_t>(in.target)] = true;
        if ((in.op == Op::Bra || in.op == Op::Exit || in.op == Op::Bar) &&
            pc + 1 < n)
            leader[pc + 1] = true;
    }
    std::vector<int> ids(n, 0);
    int id = -1;
    for (std::size_t pc = 0; pc < n; ++pc) {
        if (leader[pc])
            ++id;
        ids[pc] = id;
    }
    return ids;
}

/** Safety filter: rows the pass may move off per-access checking. */
bool
eligible(const BatEntry &e, const Instr &in)
{
    if (e.base.kind != BaseKind::Arg && e.base.kind != BaseKind::Local)
        return false; // heap/unknown bases have no static hull
    if (!e.offsets_known)
        return false;
    if (e.verdict == Verdict::OutOfBounds)
        return false; // keep the per-access trap behaviour
    if (in.check != CheckMode::Checked)
        return false; // StaticSafe / §6.4 guard-replaced rows
    if (in.bt_index >= 0)
        return false; // Method A checks live in the binding table
    if (in.pred != kNoReg)
        return false; // predicated access: mask differs from the cover
    return true;
}

/** Registers feeding the access's address computation. */
bool
address_varies(const Instr &in, const Loop &loop)
{
    const auto varies = [&loop](int r) {
        return r != kNoReg && loop.varies[static_cast<std::size_t>(r)];
    };
    if (in.base_offset)
        return varies(in.ra) || varies(in.rb);
    return varies(in.ra);
}

} // namespace

std::string
CheckOptStats::to_string() const
{
    std::ostringstream os;
    os << "check-opt: " << rows << " rows, " << eligible << " eligible, "
       << hoisted << " hoisted, " << widened << " widened, " << elided
       << " elided, " << per_access << " per-access";
    return os.str();
}

CheckOptStats
optimize_checks(BoundsAnalysisTable &bat, const KernelProgram &prog)
{
    CheckOptStats stats;
    stats.rows = static_cast<std::uint32_t>(bat.entries.size());
    const std::vector<Loop> loops = find_loops(prog);
    const std::vector<int> blocks = block_ids(prog);

    // Phase 1: hoist/widen rows inside their innermost loop. The row's
    // static offset hull already spans the whole trip range (the
    // interval analysis evaluated the body with induction ranges), so
    // it doubles as the cover hull.
    std::vector<bool> ok(bat.entries.size(), false);
    for (std::size_t i = 0; i < bat.entries.size(); ++i) {
        BatEntry &e = bat.entries[i];
        if (e.pc < 0 || static_cast<std::size_t>(e.pc) >= prog.code.size())
            continue;
        const Instr &in = prog.code[static_cast<std::size_t>(e.pc)];
        if (!eligible(e, in))
            continue;
        ok[i] = true;
        ++stats.eligible;
        const Loop *inner = nullptr;
        for (const Loop &l : loops) {
            if (e.pc < l.head || e.pc > l.end)
                continue;
            if (!inner || l.end - l.head < inner->end - inner->head)
                inner = &l;
        }
        if (!inner)
            continue;
        e.check_kind =
            address_varies(in, *inner) ? CheckKind::Widened : CheckKind::Hoisted;
        e.cover_lo = e.off_lo;
        e.cover_end = e.off_end;
    }

    // Phase 2: coalesce same-block same-base groups — the earliest row
    // becomes the cover carrying the union hull, the rest are elided.
    std::map<std::pair<int, BaseRef>, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < bat.entries.size(); ++i) {
        if (!ok[i])
            continue;
        const BatEntry &e = bat.entries[i];
        groups[{blocks[static_cast<std::size_t>(e.pc)], e.base}].push_back(i);
    }
    for (const auto &[key, members] : groups) {
        if (members.size() < 2)
            continue;
        BatEntry &cover = bat.entries[members[0]];
        if (cover.check_kind == CheckKind::PerAccess)
            cover.check_kind = CheckKind::Hoisted;
        cover.cover_lo = cover.off_lo;
        cover.cover_end = cover.off_end;
        for (std::size_t m = 1; m < members.size(); ++m) {
            BatEntry &e = bat.entries[members[m]];
            cover.cover_lo = std::min(cover.cover_lo, e.off_lo);
            cover.cover_end = std::max(cover.cover_end, e.off_end);
            e.check_kind = CheckKind::Elided;
            e.cover_pc = cover.pc;
            e.cover_lo = 0;
            e.cover_end = 0;
        }
    }

    for (const BatEntry &e : bat.entries) {
        switch (e.check_kind) {
          case CheckKind::PerAccess: ++stats.per_access; break;
          case CheckKind::Hoisted: ++stats.hoisted; break;
          case CheckKind::Widened: ++stats.widened; break;
          case CheckKind::Elided: ++stats.elided; break;
        }
    }
    return stats;
}

} // namespace gpushield
