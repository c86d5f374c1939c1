#include "compiler/guard_replace.h"

#include <set>
#include <vector>

namespace gpushield {

namespace {

/** Ops permitted inside a replaceable region (straight-line only). */
bool
region_op_allowed(Op op)
{
    switch (op) {
      case Op::Nop:
      case Op::Mov:
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Min:
      case Op::Max:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Shl:
      case Op::Shr:
      case Op::Mad:
      case Op::Sreg:
      case Op::Ldarg:
      case Op::Gep:
      case Op::Ld:
      case Op::St:
        return true;
      default:
        return false;
    }
}

/** Buffer byte size bound to pointer argument @p arg, 0 if unknown. */
std::uint64_t
arg_buffer_size(const StaticLaunchInfo &info, int arg)
{
    return arg >= 0 &&
                   static_cast<std::size_t>(arg) <
                       info.arg_buffer_sizes.size()
               ? info.arg_buffer_sizes[arg]
               : 0;
}

/**
 * Deletes Nop instructions (the neutralized guards) and remaps branch
 * targets. A target pointing at a removed instruction maps to the next
 * surviving one.
 */
void
compact_nops(KernelProgram &prog)
{
    std::vector<int> new_index(prog.code.size() + 1, 0);
    int survivors = 0;
    for (std::size_t pc = 0; pc < prog.code.size(); ++pc) {
        new_index[pc] = survivors;
        if (prog.code[pc].op != Op::Nop)
            ++survivors;
    }
    new_index[prog.code.size()] = survivors;

    std::vector<Instr> compacted;
    compacted.reserve(survivors);
    for (const Instr &in : prog.code) {
        if (in.op == Op::Nop)
            continue;
        Instr moved = in;
        if (moved.op == Op::Bra || moved.op == Op::Ssy)
            moved.target = new_index[moved.target];
        compacted.push_back(moved);
    }
    prog.code = std::move(compacted);
}

} // namespace

GuardReplaceResult
replace_sw_guards(const KernelProgram &prog, const StaticLaunchInfo &info)
{
    GuardReplaceResult result;
    result.program = prog;
    KernelProgram &out = result.program;

    // Whole-program pointer-base map: reg -> pointer-arg index when the
    // register has exactly one definition and it is Ldarg of a pointer
    // (builder output is SSA-like; multiply-defined registers are
    // conservatively excluded).
    std::vector<unsigned> def_count(prog.num_regs, 0);
    std::vector<int> ldarg_arg(prog.num_regs, -1);
    for (const Instr &in : prog.code) {
        // Setp defines a *predicate* register; its rd must not alias
        // the general register namespace here.
        if (in.rd == kNoReg || in.op == Op::Setp)
            continue;
        ++def_count[in.rd];
        if (in.op == Op::Ldarg && prog.args[in.arg_index].is_pointer)
            ldarg_arg[in.rd] = in.arg_index;
    }
    const auto pointer_arg_of = [&](int reg) {
        return reg != kNoReg && def_count[reg] == 1 ? ldarg_arg[reg] : -1;
    };

    for (const Guard &g : find_guards(prog, info, find_loops(prog))) {
        // x < B with a constant B > 0, in the builder's if_then shape:
        // ssy END immediately before the bra.not.
        if (g.cmp != Cmp::Lt || g.bound.lo != g.bound.hi || g.bound.lo <= 0)
            continue;
        const std::size_t s = static_cast<std::size_t>(g.bra_pc) - 1;
        if (prog.code[s].op != Op::Ssy || prog.code[s].target != g.end_pc)
            continue;
        const std::size_t end = static_cast<std::size_t>(g.end_pc);
        const int guard_reg = g.reg;
        const std::int64_t bound = g.bound.lo;

        // Region scan: straight-line ops only; every access must be
        // buf[x] with size*B covering the whole buffer.
        bool eligible = true;
        std::set<int> defined_regs;
        std::vector<std::size_t> mem_pcs;
        for (std::size_t pc = s + 2; pc < end && eligible; ++pc) {
            const Instr &in = prog.code[pc];
            if (!region_op_allowed(in.op)) {
                eligible = false;
                break;
            }
            if (in.op == Op::Ld || in.op == Op::St) {
                // Address must come from gep(base=Ldarg ptr, x, size, 0)
                // or the equivalent base_offset form.
                int base_arg = -1;
                int index_reg = kNoReg;
                std::uint32_t scale = 0;
                std::int64_t disp = 0;
                if (in.base_offset) {
                    if (in.bt_index >= 0) {
                        eligible = false;
                        break;
                    }
                    base_arg = pointer_arg_of(in.ra);
                    index_reg = in.rb;
                    scale = in.scale;
                    disp = in.disp;
                } else {
                    // Find the defining Gep of the address register.
                    const int addr_reg = in.ra;
                    for (std::size_t q = pc; q-- > s + 2;) {
                        const Instr &gep = prog.code[q];
                        if (gep.rd != addr_reg)
                            continue;
                        if (gep.op == Op::Gep) {
                            base_arg = pointer_arg_of(gep.ra);
                            index_reg = gep.rb;
                            scale = gep.scale;
                            disp = gep.disp;
                        }
                        break;
                    }
                }
                const std::uint64_t buf_size =
                    arg_buffer_size(info, base_arg);
                if (base_arg < 0 || index_reg != guard_reg ||
                    scale != in.size || disp != 0 || buf_size == 0 ||
                    buf_size > static_cast<std::uint64_t>(bound) * scale) {
                    eligible = false;
                    break;
                }
                mem_pcs.push_back(pc);
            }
            if (in.rd != kNoReg)
                defined_regs.insert(in.rd);
            if (in.op == Op::Setp) {
                eligible = false; // no predicate defs inside
                break;
            }
        }
        if (!eligible || mem_pcs.empty())
            continue;

        // Liveness: nothing defined in the region may be read after it
        // (the squashed lanes' zero-loads must be dead).
        for (std::size_t pc = end; pc < prog.code.size() && eligible;
             ++pc) {
            const Instr &in = prog.code[pc];
            for (const int r : {in.ra, in.rb, in.rc})
                if (r != kNoReg && defined_regs.count(r))
                    eligible = false;
        }
        if (!eligible)
            continue;

        // Transform: drop the guard, mark the accesses.
        out.code[s].op = Op::Nop;
        out.code[s].rd = out.code[s].ra = out.code[s].rb = kNoReg;
        out.code[s].pred = kNoReg;
        out.code[s + 1] = out.code[s];
        for (const std::size_t pc : mem_pcs)
            out.code[pc].check = CheckMode::GuardReplaced;
        ++result.guards_removed;
    }

    if (result.guards_removed > 0)
        compact_nops(out);
    return result;
}

} // namespace gpushield
