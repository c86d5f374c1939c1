#include "compiler/static_analysis.h"

#include <algorithm>
#include <map>

#include "common/log.h"

namespace gpushield {

namespace {

// Saturation bound keeping interval arithmetic overflow-free.
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
        AbsVal v;
        v.kind = Kind::Range;
        v.lo = sat(lo);
        v.hi = sat(hi);
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

void
eval_pre(const KernelProgram &prog, const StaticLaunchInfo &info,
         std::vector<AbsVal> &pre, const Instr &in)
{
    // Straight-line abstract evaluation used to resolve loop/guard
    // bounds held in registers (constants, known scalars, special
    // registers, and simple arithmetic over them). Setp writes a
    // predicate whose index aliases general-register numbers: treating
    // it as a register write would clobber an unrelated value.
    if (in.rd == kNoReg || dest_reg(in) == kNoReg)
        return;
    const auto src2_of = [&](const Instr &i) {
        return i.rb != kNoReg ? pre[i.rb] : AbsVal::constant(i.imm);
    };
    switch (in.op) {
      case Op::Mov:
        pre[in.rd] = in.ra != kNoReg ? pre[in.ra] : AbsVal::constant(in.imm);
        break;
      case Op::Sreg:
        pre[in.rd] = sreg_value(in.sreg, info);
        break;
      case Op::Ldarg: {
        const auto &spec = prog.args[in.arg_index];
        if (!spec.is_pointer &&
            static_cast<std::size_t>(in.arg_index) <
                info.scalar_values.size() &&
            info.scalar_values[in.arg_index]) {
            pre[in.rd] =
                AbsVal::constant(*info.scalar_values[in.arg_index]);
        } else {
            pre[in.rd] = AbsVal::top();
        }
        break;
      }
      case Op::Add:
        pre[in.rd] = abs_add(pre[in.ra], src2_of(in));
        break;
      case Op::Sub:
        pre[in.rd] = abs_sub(pre[in.ra], src2_of(in));
        break;
      case Op::Mul:
        pre[in.rd] = abs_mul(pre[in.ra], src2_of(in));
        break;
      case Op::Min:
        pre[in.rd] = abs_minmax(pre[in.ra], src2_of(in), true);
        break;
      case Op::Max:
        pre[in.rd] = abs_minmax(pre[in.ra], src2_of(in), false);
        break;
      case Op::Shr: {
        const AbsVal a = pre[in.ra];
        const AbsVal s = src2_of(in);
        if (a.kind == AbsVal::Kind::Range && s.is_const() && a.lo >= 0 &&
            s.lo >= 0 && s.lo < 63)
            pre[in.rd] = AbsVal::range(a.lo >> s.lo, a.hi >> s.lo);
        else
            pre[in.rd] = AbsVal::top();
        break;
      }
      default:
        pre[in.rd] = AbsVal::top();
        break;
    }
}

void
poison_carried(const std::vector<LoopRegion> &loops,
               std::vector<AbsVal> &vals, int pc)
{
    // At a loop head the straight-line value of a loop-carried register
    // only describes the first iteration; later iterations may hold
    // anything, so every linear walk forgets them here.
    for (const LoopRegion &loop : loops)
        if (loop.head == pc)
            for (const int r : loop.carried)
                vals[r] = AbsVal::top();
}

/**
 * The straight-line evaluator: calls @p visit(pc, vals) for every pc in
 * order, with vals the registers' values before the instruction at pc
 * (eval_pre's domain, loop-carried registers forgotten at each head).
 */
template <class Visit>
void
walk_values(const KernelProgram &prog, const StaticLaunchInfo &info,
            const std::vector<LoopRegion> &loops, Visit &&visit)
{
    std::vector<AbsVal> vals(prog.num_regs);
    for (std::size_t pc = 0; pc < prog.code.size(); ++pc) {
        const int ipc = static_cast<int>(pc);
        poison_carried(loops, vals, ipc);
        visit(ipc, static_cast<const std::vector<AbsVal> &>(vals));
        eval_pre(prog, info, vals, prog.code[pc]);
    }
}

/** The full analysis state. */
class Analyzer
{
  public:
    Analyzer(const KernelProgram &prog, const StaticLaunchInfo &info)
        : prog_(prog), info_(info), regs_(prog.num_regs),
          loops_(find_loops(prog)), guards_(find_guards(prog, info, loops_))
    {
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

    AbsVal eval_src(const Instr &in, int pc) const; //!< rb-or-imm operand
    AbsVal read_reg(int r, int pc) const;
    void resolve_inductions();
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

AbsVal
Analyzer::eval_src(const Instr &in, int pc) const
{
    // Second operand of two-source ALU ops: register or immediate.
    // Goes through read_reg so induction scoping and guard refinements
    // apply to the rb operand too.
    return in.rb != kNoReg ? read_reg(in.rb, pc) : AbsVal::constant(in.imm);
}

void
Analyzer::resolve_inductions()
{
    // Counted-loop trip bounds, snapshotted *at the defining setp* (a
    // bound register rewritten later must not leak its new value into
    // the loop).
    std::vector<std::optional<std::int64_t>> trip_hi(loops_.size());
    const auto visit = [&](int pc, const std::vector<AbsVal> &vals) {
        for (std::size_t l = 0; l < loops_.size(); ++l) {
            const LoopRegion &loop = loops_[l];
            if (loop.setp_pc != pc)
                continue;
            const AbsVal bound = loop.bound_reg != kNoReg
                                     ? vals[loop.bound_reg]
                                     : AbsVal::constant(loop.bound_imm);
            if (bound.kind == AbsVal::Kind::Range && bound.hi >= 1)
                trip_hi[l] = bound.hi;
        }
    };
    walk_values(prog_, info_, loops_, visit);

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
      case BaseKind::Local: {
        if (ref.index < 0 ||
            static_cast<std::size_t>(ref.index) >= prog_.locals.size())
            return 0;
        const LocalVarSpec &lv = prog_.locals[ref.index];
        const std::uint64_t threads =
            static_cast<std::uint64_t>(info_.ntid) * info_.nctaid;
        // elem_size and elems are 32-bit, so their product fits in 64
        // bits; the per-thread scale-up can wrap. A wrapped size would
        // be compared against real offsets and can certify an
        // out-of-bounds access as InBounds, so reject it (size 0 ⇒
        // Unknown verdict ⇒ runtime-checked), mirroring the driver's
        // launch-time >32-bit rejection.
        const std::uint64_t per_thread =
            static_cast<std::uint64_t>(lv.elem_size) * lv.elems;
        const std::uint64_t total = per_thread * threads;
        if (per_thread != 0 && threads != 0 && total / per_thread != threads)
            return 0;
        return total;
      }
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
        const AbsVal idx = read_reg(in.rb, pc);
        const AbsVal scaled =
            abs_mul(idx, AbsVal::constant(static_cast<std::int64_t>(in.scale)));
        addr = abs_add(abs_add(base, scaled), AbsVal::constant(in.disp));
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
    resolve_inductions();

    for (std::size_t pc = 0; pc < prog_.code.size(); ++pc) {
        const Instr &in = prog_.code[pc];
        const int ipc = static_cast<int>(pc);
        poison_carried(loops_, regs_, ipc);
        switch (in.op) {
          case Op::Mov:
            regs_[in.rd] = in.ra != kNoReg ? read_reg(in.ra, ipc)
                                           : AbsVal::constant(in.imm);
            break;
          case Op::Add:
            regs_[in.rd] = abs_add(read_reg(in.ra, ipc), eval_src(in, ipc));
            break;
          case Op::Sub:
            regs_[in.rd] = abs_sub(read_reg(in.ra, ipc), eval_src(in, ipc));
            break;
          case Op::Mul:
            regs_[in.rd] = abs_mul(read_reg(in.ra, ipc), eval_src(in, ipc));
            break;
          case Op::Min:
            regs_[in.rd] =
                abs_minmax(read_reg(in.ra, ipc), eval_src(in, ipc), true);
            break;
          case Op::Max:
            regs_[in.rd] =
                abs_minmax(read_reg(in.ra, ipc), eval_src(in, ipc), false);
            break;
          case Op::Mad:
            regs_[in.rd] =
                abs_add(abs_mul(read_reg(in.ra, ipc), read_reg(in.rb, ipc)),
                        read_reg(in.rc, ipc));
            break;
          case Op::Sreg:
            regs_[in.rd] = sreg_value(in.sreg, info_);
            break;
          case Op::Ldarg: {
            const KernelArgSpec &spec = prog_.args[in.arg_index];
            if (spec.is_pointer) {
                regs_[in.rd] =
                    AbsVal::pointer(BaseRef{BaseKind::Arg, in.arg_index});
            } else if (static_cast<std::size_t>(in.arg_index) <
                           info_.scalar_values.size() &&
                       info_.scalar_values[in.arg_index]) {
                regs_[in.rd] =
                    AbsVal::constant(*info_.scalar_values[in.arg_index]);
            } else {
                regs_[in.rd] = AbsVal::top();
            }
            break;
          }
          case Op::Ldloc:
            regs_[in.rd] =
                AbsVal::pointer(BaseRef{BaseKind::Local, in.arg_index});
            break;
          case Op::Malloc:
            regs_[in.rd] = AbsVal::pointer(BaseRef{BaseKind::Heap, -1});
            break;
          case Op::Gep: {
            const AbsVal scaled = abs_mul(
                read_reg(in.rb, ipc),
                AbsVal::constant(static_cast<std::int64_t>(in.scale)));
            regs_[in.rd] = abs_add(abs_add(read_reg(in.ra, ipc), scaled),
                                   AbsVal::constant(in.disp));
            break;
          }
          case Op::Ld:
            record_access(ipc, in);
            regs_[in.rd] = AbsVal::top(); // loaded data is runtime input
            break;
          case Op::St:
            record_access(ipc, in);
            break;
          case Op::Lds:
            regs_[in.rd] = AbsVal::top();
            break;
          case Op::Divi:
          case Op::Rem:
          case Op::And:
          case Op::Or:
          case Op::Xor:
          case Op::Shl:
          case Op::Shr:
            if (in.rd != kNoReg)
                regs_[in.rd] = AbsVal::top();
            break;
          default:
            break;
        }
        // Induction registers keep their loop-wide range regardless of
        // the straight-line value just computed — but only inside their
        // loop; afterwards they hold the exit value.
        if (in.rd != kNoReg) {
            const auto it = induction_.find(in.rd);
            if (it != induction_.end() && ipc >= it->second.head &&
                ipc <= it->second.end)
                regs_[in.rd] = it->second.in_loop;
        }
        for (const LoopRegion &loop : loops_) {
            if (loop.end != ipc || loop.ivar == kNoReg)
                continue;
            const auto it = induction_.find(loop.ivar);
            if (it != induction_.end() && it->second.end == ipc)
                regs_[loop.ivar] = it->second.after;
        }
    }

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
                    loop.bound_reg = setp.rb;
                    loop.bound_imm = setp.imm;
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
    // The last setp of each predicate, with its bound as read there.
    struct SetpSnap
    {
        int reg = kNoReg;
        Cmp cmp = Cmp::Eq;
        AbsVal bound;
        int pc = -1;
    };
    std::vector<SetpSnap> setps(
        static_cast<std::size_t>(std::max(prog.num_preds, 1)));
    std::vector<Guard> guards;

    const auto visit = [&](int pc, const std::vector<AbsVal> &vals) {
        const Instr &in = prog.code[static_cast<std::size_t>(pc)];
        if (in.op == Op::Setp && in.rd >= 0 &&
            static_cast<std::size_t>(in.rd) < setps.size()) {
            SetpSnap &snap = setps[static_cast<std::size_t>(in.rd)];
            snap.reg = in.ra;
            snap.cmp = in.cmp;
            snap.bound = in.rb != kNoReg ? vals[in.rb]
                                         : AbsVal::constant(in.imm);
            snap.pc = pc;
            return;
        }
        if (in.op != Op::Bra || in.pred == kNoReg || !in.neg_pred ||
            in.target <= pc || in.pred < 0 ||
            static_cast<std::size_t>(in.pred) >= setps.size())
            return;
        const SetpSnap &snap = setps[static_cast<std::size_t>(in.pred)];
        if (snap.pc < 0 || snap.reg == kNoReg ||
            snap.bound.kind != AbsVal::Kind::Range)
            return;
        // x reassigned after the compare but before the region ends.
        for (int q = snap.pc + 1; q < in.target; ++q) {
            if (q < static_cast<int>(prog.code.size()) &&
                dest_reg(prog.code[static_cast<std::size_t>(q)]) == snap.reg)
                return;
        }
        // A loop head strictly inside the region lets execution
        // re-enter past the guard without re-evaluating it.
        for (const LoopRegion &loop : loops) {
            if (loop.head > snap.pc && loop.head < in.target &&
                (loop.end > in.target || loop.end <= snap.pc))
                return;
        }
        Guard g;
        g.bra_pc = pc;
        g.end_pc = in.target;
        g.cmp = snap.cmp;
        g.reg = snap.reg;
        g.bound = Interval{snap.bound.lo, snap.bound.hi};
        guards.push_back(g);
    };
    walk_values(prog, info, loops, visit);
    return guards;
}

BoundsAnalysisTable
analyze_kernel(const KernelProgram &prog, const StaticLaunchInfo &info)
{
    Analyzer analyzer(prog, info);
    return analyzer.run();
}

} // namespace gpushield
