#include "compiler/static_analysis.h"

#include <algorithm>
#include <map>

#include "common/log.h"

namespace gpushield {

namespace {

// Saturation bound keeping interval arithmetic overflow-free. A bound
// that reaches it may stand for a value that wrapped at run time, so an
// integer range never keeps one: AbsVal::range gives Top instead.
constexpr std::int64_t kSat = std::int64_t{1} << 62;

std::int64_t
sat(std::int64_t v)
{
    return std::clamp(v, -kSat, kSat);
}

std::int64_t
sat_add(std::int64_t a, std::int64_t b)
{
    return sat(sat(a) + sat(b));
}

std::int64_t
sat_mul(std::int64_t a, std::int64_t b)
{
    const double approx = static_cast<double>(a) * static_cast<double>(b);
    if (approx > static_cast<double>(kSat) ||
        approx < -static_cast<double>(kSat))
        return approx > 0 ? kSat : -kSat;
    return a * b;
}

/** Abstract value: unknown, integer interval, or pointer + offset interval. */
struct AbsVal
{
    enum class Kind : std::uint8_t { Top, Range, Ptr };

    Kind kind = Kind::Top;
    std::int64_t lo = 0, hi = 0; //!< Range
    BaseRef base;                //!< Ptr
    std::int64_t plo = 0, phi = 0;

    static AbsVal
    top()
    {
        return {};
    }

    static AbsVal
    range(std::int64_t lo, std::int64_t hi)
    {
        if (lo <= -kSat || hi >= kSat)
            return top();
        AbsVal v;
        v.kind = Kind::Range;
        v.lo = lo;
        v.hi = hi;
        return v;
    }

    static AbsVal
    constant(std::int64_t c)
    {
        return range(c, c);
    }

    static AbsVal
    pointer(BaseRef base)
    {
        AbsVal v;
        v.kind = Kind::Ptr;
        v.base = base;
        return v;
    }

    bool is_const() const { return kind == Kind::Range && lo == hi; }
};

AbsVal
abs_add(const AbsVal &a, const AbsVal &b)
{
    if (a.kind == AbsVal::Kind::Ptr && b.kind == AbsVal::Kind::Range) {
        AbsVal v = a;
        v.plo = sat_add(a.plo, b.lo);
        v.phi = sat_add(a.phi, b.hi);
        return v;
    }
    if (b.kind == AbsVal::Kind::Ptr && a.kind == AbsVal::Kind::Range)
        return abs_add(b, a);
    if (a.kind == AbsVal::Kind::Range && b.kind == AbsVal::Kind::Range)
        return AbsVal::range(sat_add(a.lo, b.lo), sat_add(a.hi, b.hi));
    // Pointer plus an unknown value: the base is still identified
    // (Fig. 5's "tid + ?" row) but the offset range is unbounded.
    if (a.kind == AbsVal::Kind::Ptr || b.kind == AbsVal::Kind::Ptr) {
        AbsVal v = a.kind == AbsVal::Kind::Ptr ? a : b;
        v.plo = -kSat;
        v.phi = kSat;
        return v;
    }
    return AbsVal::top();
}

AbsVal
abs_sub(const AbsVal &a, const AbsVal &b)
{
    if (a.kind == AbsVal::Kind::Ptr && b.kind == AbsVal::Kind::Range) {
        AbsVal v = a;
        v.plo = sat_add(a.plo, -b.hi);
        v.phi = sat_add(a.phi, -b.lo);
        return v;
    }
    if (a.kind == AbsVal::Kind::Range && b.kind == AbsVal::Kind::Range)
        return AbsVal::range(sat_add(a.lo, -b.hi), sat_add(a.hi, -b.lo));
    return AbsVal::top();
}

AbsVal
abs_mul(const AbsVal &a, const AbsVal &b)
{
    if (a.kind != AbsVal::Kind::Range || b.kind != AbsVal::Kind::Range)
        return AbsVal::top();
    const std::int64_t c[4] = {sat_mul(a.lo, b.lo), sat_mul(a.lo, b.hi),
                               sat_mul(a.hi, b.lo), sat_mul(a.hi, b.hi)};
    return AbsVal::range(*std::min_element(c, c + 4),
                         *std::max_element(c, c + 4));
}

AbsVal
abs_minmax(const AbsVal &a, const AbsVal &b, bool take_min)
{
    if (a.kind != AbsVal::Kind::Range || b.kind != AbsVal::Kind::Range)
        return AbsVal::top();
    if (take_min)
        return AbsVal::range(std::min(a.lo, b.lo), std::min(a.hi, b.hi));
    return AbsVal::range(std::max(a.lo, b.lo), std::max(a.hi, b.hi));
}

AbsVal
sreg_value(SpecialReg s, const StaticLaunchInfo &info)
{
    const std::int64_t ntid = info.ntid;
    const std::int64_t nctaid = info.nctaid;
    switch (s) {
      case SpecialReg::TidX:
        return ntid > 0 ? AbsVal::range(0, ntid - 1) : AbsVal::top();
      case SpecialReg::CtaIdX:
        return nctaid > 0 ? AbsVal::range(0, nctaid - 1) : AbsVal::top();
      case SpecialReg::NTidX:
        return ntid > 0 ? AbsVal::constant(ntid) : AbsVal::top();
      case SpecialReg::NCtaIdX:
        return nctaid > 0 ? AbsVal::constant(nctaid) : AbsVal::top();
      case SpecialReg::GlobalId:
        return (ntid > 0 && nctaid > 0)
                   ? AbsVal::range(0, ntid * nctaid - 1)
                   : AbsVal::top();
      case SpecialReg::NThreads:
        return (ntid > 0 && nctaid > 0) ? AbsVal::constant(ntid * nctaid)
                                        : AbsVal::top();
      case SpecialReg::LaneId:
        return AbsVal::range(0, kWarpSize - 1);
    }
    return AbsVal::top();
}

/** base + idx * scale + disp: the address a Gep or a base+offset
 *  access forms. */
AbsVal
abs_gep(const AbsVal &base, const AbsVal &idx, std::uint32_t scale,
        std::int64_t disp)
{
    const AbsVal scaled =
        abs_mul(idx, AbsVal::constant(static_cast<std::int64_t>(scale)));
    return abs_add(abs_add(base, scaled), AbsVal::constant(disp));
}

/**
 * The one transfer function: writes the value of @p in's general
 * destination register into @p vals, reading every source register
 * through @p read(reg). Loads, Divi, Rem, And, Or, Xor and Shl give
 * Top. An op with no general destination (dest_reg == kNoReg, Setp
 * included: its predicate index aliases the register numbering) writes
 * nothing.
 */
template <class Read>
void
transfer(const KernelProgram &prog, const StaticLaunchInfo &info,
         std::vector<AbsVal> &vals, const Instr &in, Read &&read)
{
    const int rd = dest_reg(in);
    if (rd == kNoReg)
        return;
    const auto src2 = [&] {
        return in.rb != kNoReg ? read(in.rb) : AbsVal::constant(in.imm);
    };
    AbsVal v;
    switch (in.op) {
      case Op::Mov:
        v = in.ra != kNoReg ? read(in.ra) : AbsVal::constant(in.imm);
        break;
      case Op::Add:
        v = abs_add(read(in.ra), src2());
        break;
      case Op::Sub:
        v = abs_sub(read(in.ra), src2());
        break;
      case Op::Mul:
        v = abs_mul(read(in.ra), src2());
        break;
      case Op::Min:
      case Op::Max:
        v = abs_minmax(read(in.ra), src2(), in.op == Op::Min);
        break;
      case Op::Shr: {
        const AbsVal a = read(in.ra);
        const AbsVal s = src2();
        if (a.kind == AbsVal::Kind::Range && s.is_const() && a.lo >= 0 &&
            s.lo >= 0 && s.lo < 63)
            v = AbsVal::range(a.lo >> s.lo, a.hi >> s.lo);
        break;
      }
      case Op::Mad:
        v = abs_add(abs_mul(read(in.ra), read(in.rb)), read(in.rc));
        break;
      case Op::Sreg:
        v = sreg_value(in.sreg, info);
        break;
      case Op::Ldarg:
        if (prog.args[in.arg_index].is_pointer)
            v = AbsVal::pointer(BaseRef{BaseKind::Arg, in.arg_index});
        else if (static_cast<std::size_t>(in.arg_index) <
                     info.scalar_values.size() &&
                 info.scalar_values[in.arg_index])
            v = AbsVal::constant(*info.scalar_values[in.arg_index]);
        break;
      case Op::Ldloc:
        v = AbsVal::pointer(BaseRef{BaseKind::Local, in.arg_index});
        break;
      case Op::Malloc:
        v = AbsVal::pointer(BaseRef{BaseKind::Heap, -1});
        break;
      case Op::Gep:
        v = abs_gep(read(in.ra), read(in.rb), in.scale, in.disp);
        break;
      default:
        break; // loaded data is runtime input; the bit ops are not tracked
    }
    vals[rd] = v;
}

/**
 * The one abstract walk. At each pc in order it forgets the
 * loop-carried registers of a loop whose head is pc (their straight-
 * line value only describes the first iteration), calls @p visit(pc)
 * while @p vals holds the registers' values before the instruction,
 * then applies transfer() with sources read through @p read(reg, pc).
 */
template <class Read, class Visit>
void
walk(const KernelProgram &prog, const StaticLaunchInfo &info,
     const std::vector<LoopRegion> &loops, std::vector<AbsVal> &vals,
     Read &&read, Visit &&visit)
{
    for (std::size_t pc = 0; pc < prog.code.size(); ++pc) {
        const int ipc = static_cast<int>(pc);
        for (const LoopRegion &loop : loops)
            if (loop.head == ipc)
                for (const int r : loop.carried)
                    vals[r] = AbsVal::top();
        visit(ipc);
        transfer(prog, info, vals, prog.code[pc],
                 [&](int r) { return read(r, ipc); });
    }
}

/** What the straight-line pre-walk reads at the compares. */
struct PreBounds
{
    std::vector<Guard> guards; //!< find_guards()
    /** Per loop: the hi of its counted-loop bound, when that bound is a
     *  Range of at least 1. */
    std::vector<std::optional<std::int64_t>> trip_hi;
};

/**
 * The straight-line pre-walk: registers are read raw, with no induction
 * scope or guard refinement. A compare's bound is read at its setp, so
 * a bound register rewritten later does not change what the compare
 * proved. It bounds each guard that branches on the predicate and, at
 * a counted loop's compare, the loop's trip count.
 */
PreBounds
pre_walk(const KernelProgram &prog, const StaticLaunchInfo &info,
         const std::vector<LoopRegion> &loops)
{
    // The last setp of each predicate and its bound as read there.
    struct SetpSnap
    {
        int pc = -1;
        AbsVal bound;
    };
    std::vector<SetpSnap> setps(
        static_cast<std::size_t>(std::max(prog.num_preds, 1)));
    PreBounds out;
    out.trip_hi.resize(loops.size());
    std::vector<AbsVal> vals(prog.num_regs);
    const auto raw = [&vals](int r, int) {
        return r == kNoReg ? AbsVal::top() : vals[r];
    };
    const auto visit = [&](int pc) {
        const Instr &in = prog.code[static_cast<std::size_t>(pc)];
        if (in.op == Op::Setp && in.rd >= 0 &&
            static_cast<std::size_t>(in.rd) < setps.size()) {
            SetpSnap &snap = setps[static_cast<std::size_t>(in.rd)];
            snap.pc = pc;
            snap.bound = in.rb != kNoReg ? vals[in.rb]
                                         : AbsVal::constant(in.imm);
            for (std::size_t l = 0; l < loops.size(); ++l)
                if (loops[l].setp_pc == pc &&
                    snap.bound.kind == AbsVal::Kind::Range &&
                    snap.bound.hi >= 1)
                    out.trip_hi[l] = snap.bound.hi;
            return;
        }
        if (in.op != Op::Bra || in.pred == kNoReg || !in.neg_pred ||
            in.target <= pc || in.pred < 0 ||
            static_cast<std::size_t>(in.pred) >= setps.size())
            return;
        const SetpSnap &snap = setps[static_cast<std::size_t>(in.pred)];
        if (snap.pc < 0 || snap.bound.kind != AbsVal::Kind::Range)
            return;
        const Instr &setp = prog.code[static_cast<std::size_t>(snap.pc)];
        if (setp.ra == kNoReg)
            return;
        // x reassigned after the compare but before the region ends.
        for (int q = snap.pc + 1; q < in.target; ++q) {
            if (q < static_cast<int>(prog.code.size()) &&
                dest_reg(prog.code[static_cast<std::size_t>(q)]) == setp.ra)
                return;
        }
        // A loop head strictly inside the region lets execution
        // re-enter past the guard without re-evaluating it.
        for (const LoopRegion &loop : loops) {
            if (loop.head > snap.pc && loop.head < in.target &&
                (loop.end > in.target || loop.end <= snap.pc))
                return;
        }
        out.guards.push_back({pc, in.target, setp.cmp, setp.ra,
                              Interval{snap.bound.lo, snap.bound.hi}});
    };
    walk(prog, info, loops, vals, raw, visit);
    return out;
}

/** The full analysis state. */
class Analyzer
{
  public:
    Analyzer(const KernelProgram &prog, const StaticLaunchInfo &info)
        : prog_(prog), info_(info), regs_(prog.num_regs),
          loops_(find_loops(prog))
    {
        PreBounds pre = pre_walk(prog, info, loops_);
        guards_ = std::move(pre.guards);
        resolve_inductions(pre.trip_hi);
    }

    BoundsAnalysisTable run();

  private:
    /** Loop-scoped induction range: the trip range holds only for pcs
     *  inside [head, end]; after the loop the register equals the exit
     *  value (bound, or 0 when the loop never entered). */
    struct InductionScope
    {
        AbsVal in_loop;
        AbsVal after;
        int head = 0;
        int end = 0;
    };

    AbsVal read_reg(int r, int pc) const;
    void resolve_inductions(
        const std::vector<std::optional<std::int64_t>> &trip_hi);
    void record_access(int pc, const Instr &in);
    void assign_pointer_types(BoundsAnalysisTable &bat) const;
    std::uint64_t buffer_size_of(const BaseRef &ref) const;

    const KernelProgram &prog_;
    const StaticLaunchInfo &info_;
    std::vector<AbsVal> regs_;
    std::vector<LoopRegion> loops_;
    std::vector<Guard> guards_;
    std::map<int, InductionScope> induction_; //!< reg -> scoped range
    BoundsAnalysisTable bat_;
};

AbsVal
Analyzer::read_reg(int r, int pc) const
{
    if (r == kNoReg)
        return AbsVal::top();
    AbsVal v = regs_[r];
    const auto it = induction_.find(r);
    if (it != induction_.end() && pc >= it->second.head &&
        pc <= it->second.end)
        v = it->second.in_loop;
    // Guard refinement: inside `if (r cmp bound)` regions, clamp the
    // range (§6.4 patterns: both upper and lower guards). Upper bounds
    // take the bound's max, lower bounds its min. All four signed
    // comparison shapes refine; the ISA has no unsigned compares (Cmp
    // is Eq/Ne/Lt/Le/Gt/Ge over int64 lanes), so there is no
    // `x <u bound` guard to mishandle — if unsigned compares are ever
    // added, they must NOT refine like these: `x <u n` says nothing
    // about a negative x under this signed lattice.
    for (const Guard &g : guards_) {
        if (g.reg != r || pc <= g.bra_pc || pc >= g.end_pc ||
            v.kind != AbsVal::Kind::Range)
            continue;
        switch (g.cmp) {
          case Cmp::Lt:
            v.hi = std::min(v.hi, g.bound.hi - 1);
            break;
          case Cmp::Le:
            v.hi = std::min(v.hi, g.bound.hi);
            break;
          case Cmp::Ge:
            v.lo = std::max(v.lo, g.bound.lo);
            break;
          case Cmp::Gt:
            v.lo = std::max(v.lo, g.bound.lo + 1);
            break;
          default:
            break;
        }
    }
    return v;
}

void
Analyzer::resolve_inductions(
    const std::vector<std::optional<std::int64_t>> &trip_hi)
{
    for (std::size_t l = 0; l < loops_.size(); ++l) {
        if (!trip_hi[l] || loops_[l].ivar == kNoReg)
            continue;
        InductionScope scope;
        scope.in_loop = AbsVal::range(0, *trip_hi[l] - 1);
        // Exit value: the bound when the loop ran, 0 when it never
        // entered — either way within [0, trip_hi].
        scope.after = AbsVal::range(0, *trip_hi[l]);
        scope.head = loops_[l].head;
        scope.end = loops_[l].end;
        induction_[loops_[l].ivar] = scope;
    }
}

std::uint64_t
Analyzer::buffer_size_of(const BaseRef &ref) const
{
    switch (ref.kind) {
      case BaseKind::Arg:
        if (ref.index >= 0 &&
            static_cast<std::size_t>(ref.index) <
                info_.arg_buffer_sizes.size())
            return info_.arg_buffer_sizes[ref.index];
        return 0;
      case BaseKind::Local:
        if (ref.index < 0 ||
            static_cast<std::size_t>(ref.index) >= prog_.locals.size())
            return 0;
        // A size that wraps reads 0: Unknown, so runtime-checked.
        return prog_.locals[ref.index].total_bytes(
            static_cast<std::uint64_t>(info_.ntid) * info_.nctaid);
      default:
        return 0; // heap size unknown at compile time
    }
}

void
Analyzer::record_access(int pc, const Instr &in)
{
    BatEntry entry;
    entry.pc = pc;
    entry.is_store = in.op == Op::St;
    entry.base_offset_mode = in.base_offset;

    AbsVal addr;
    if (in.base_offset) {
        AbsVal base;
        if (in.bt_index >= 0) {
            // Method A: the bt-th pointer argument, in argument order.
            int seen = 0;
            for (std::size_t a = 0; a < prog_.args.size(); ++a) {
                if (!prog_.args[a].is_pointer)
                    continue;
                if (seen++ == in.bt_index) {
                    base = AbsVal::pointer(
                        BaseRef{BaseKind::Arg, static_cast<int>(a)});
                    break;
                }
            }
        } else {
            base = read_reg(in.ra, pc);
        }
        addr = abs_gep(base, read_reg(in.rb, pc), in.scale, in.disp);
    } else {
        addr = read_reg(in.ra, pc);
    }

    if (addr.kind == AbsVal::Kind::Ptr) {
        entry.base = addr.base;
        entry.offsets_known = addr.plo > -kSat && addr.phi < kSat;
        entry.off_lo = addr.plo;
        entry.off_end = sat_add(addr.phi, in.size);

        // Stores to read-only buffers must never lose their runtime
        // check: bounds-proving says nothing about writability.
        const bool ro_store =
            entry.is_store && addr.base.kind == BaseKind::Arg &&
            addr.base.index >= 0 &&
            static_cast<std::size_t>(addr.base.index) <
                info_.arg_buffer_readonly.size() &&
            info_.arg_buffer_readonly[addr.base.index];

        const std::uint64_t buf_size = buffer_size_of(addr.base);
        if (buf_size > 0 && entry.offsets_known && !ro_store) {
            const auto sz = static_cast<std::int64_t>(buf_size);
            if (entry.off_lo >= 0 && entry.off_end <= sz) {
                entry.verdict = Verdict::InBounds;
            } else if (entry.off_lo >= sz || entry.off_end <= 0) {
                // Every possible access escapes the buffer: report the
                // overflow at compile time (Fig. 5's B[tid + 1<<32]).
                entry.verdict = Verdict::OutOfBounds;
            }
        }
    }
    bat_.entries.push_back(entry);
}

void
Analyzer::assign_pointer_types(BoundsAnalysisTable &bat) const
{
    struct Summary
    {
        bool any = false;
        bool all_safe = true;
        bool all_base_offset = true;
    };
    std::map<BaseRef, Summary> by_base;
    for (const BatEntry &e : bat.entries) {
        if (e.base.kind == BaseKind::Unknown)
            continue;
        Summary &s = by_base[e.base];
        s.any = true;
        s.all_safe &= e.verdict == Verdict::InBounds;
        s.all_base_offset &= e.base_offset_mode;
    }

    // Every declared pointer base gets a type; untouched ones default to
    // Type 2 (the conservative choice — their pointer may escape).
    for (std::size_t a = 0; a < prog_.args.size(); ++a) {
        if (!prog_.args[a].is_pointer)
            continue;
        const BaseRef ref{BaseKind::Arg, static_cast<int>(a)};
        bat.pointer_types[ref] = PtrTypeRec::TaggedId;
    }
    for (std::size_t l = 0; l < prog_.locals.size(); ++l)
        bat.pointer_types[BaseRef{BaseKind::Local, static_cast<int>(l)}] =
            PtrTypeRec::TaggedId;

    for (const auto &[ref, s] : by_base) {
        if (!s.any)
            continue;
        if (s.all_safe) {
            bat.pointer_types[ref] = PtrTypeRec::Unprotected;
        } else if (s.all_base_offset && ref.kind == BaseKind::Arg &&
                   ref.index >= 0 &&
                   static_cast<std::size_t>(ref.index) <
                       info_.arg_buffer_pow2.size() &&
                   info_.arg_buffer_pow2[ref.index]) {
            bat.pointer_types[ref] = PtrTypeRec::SizedWindow;
        } else {
            bat.pointer_types[ref] = PtrTypeRec::TaggedId;
        }
    }
    // The heap region is always runtime-checked.
    bat.pointer_types[BaseRef{BaseKind::Heap, -1}] = PtrTypeRec::TaggedId;
}

BoundsAnalysisTable
Analyzer::run()
{
    // Before each instruction: record a load or store, and give an
    // induction register its exit value at its loop's backedge.
    // Inside [head, end] read_reg substitutes the in-loop range, so the
    // value the walk stores for it there is never read.
    const auto visit = [this](int pc) {
        const Instr &in = prog_.code[static_cast<std::size_t>(pc)];
        if (is_global_mem(in.op))
            record_access(pc, in);
        for (const auto &[reg, scope] : induction_)
            if (scope.end == pc)
                regs_[reg] = scope.after;
    };
    walk(prog_, info_, loops_, regs_,
         [this](int r, int pc) { return read_reg(r, pc); }, visit);

    assign_pointer_types(bat_);
    return std::move(bat_);
}

} // namespace

std::vector<LoopRegion>
find_loops(const KernelProgram &prog)
{
    // Every backward branch closes a region; the canonical counted
    // shape additionally names an induction variable.
    std::vector<LoopRegion> loops;
    const auto nregs = static_cast<std::size_t>(prog.num_regs);
    std::vector<int> srcs;
    for (std::size_t pc = 0; pc < prog.code.size(); ++pc) {
        const Instr &bra = prog.code[pc];
        if (bra.op != Op::Bra || bra.target > static_cast<int>(pc))
            continue;
        LoopRegion loop;
        loop.head = bra.target;
        loop.end = static_cast<int>(pc);
        if (bra.pred != kNoReg) {
            for (std::size_t q = pc; q-- > 0;) {
                const Instr &setp = prog.code[q];
                if (setp.op != Op::Setp || setp.rd != bra.pred)
                    continue;
                if (setp.cmp == Cmp::Lt && !bra.neg_pred) {
                    loop.ivar = setp.ra;
                    loop.setp_pc = static_cast<int>(q);
                }
                break;
            }
        }
        // Loop-carried registers: read before written inside the region.
        std::vector<bool> written_in(nregs, false);
        for (int q = loop.head; q <= loop.end; ++q) {
            const int rd = dest_reg(prog.code[q]);
            if (rd != kNoReg)
                written_in[static_cast<std::size_t>(rd)] = true;
        }
        std::vector<bool> written_so_far(nregs, false);
        for (int q = loop.head; q <= loop.end; ++q) {
            srcs.clear();
            source_regs(prog.code[q], srcs);
            for (const int s : srcs) {
                if (written_in[static_cast<std::size_t>(s)] &&
                    !written_so_far[static_cast<std::size_t>(s)] &&
                    std::find(loop.carried.begin(), loop.carried.end(), s) ==
                        loop.carried.end())
                    loop.carried.push_back(s);
            }
            const int rd = dest_reg(prog.code[q]);
            if (rd != kNoReg)
                written_so_far[static_cast<std::size_t>(rd)] = true;
        }
        loops.push_back(std::move(loop));
    }
    return loops;
}

std::vector<Guard>
find_guards(const KernelProgram &prog, const StaticLaunchInfo &info,
            const std::vector<LoopRegion> &loops)
{
    return pre_walk(prog, info, loops).guards;
}

BoundsAnalysisTable
analyze_kernel(const KernelProgram &prog, const StaticLaunchInfo &info)
{
    Analyzer analyzer(prog, info);
    return analyzer.run();
}

} // namespace gpushield
