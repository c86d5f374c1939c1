#include "isa/ir.h"

#include <sstream>
#include <stdexcept>
#include <string>

namespace gpushield {

int
dest_reg(const Instr &in)
{
    switch (in.op) {
      case Op::Mov: case Op::Add: case Op::Sub: case Op::Mul:
      case Op::Divi: case Op::Rem: case Op::Min: case Op::Max:
      case Op::And: case Op::Or: case Op::Xor: case Op::Shl:
      case Op::Shr: case Op::Mad: case Op::Sreg: case Op::Ldarg:
      case Op::Ldloc: case Op::Malloc: case Op::Gep: case Op::Ld:
      case Op::Lds:
        return in.rd;
      default:
        return kNoReg;
    }
}

void
source_regs(const Instr &in, std::vector<int> &out)
{
    const auto add = [&out](int r) {
        if (r != kNoReg)
            out.push_back(r);
    };
    switch (in.op) {
      case Op::Mov: case Op::Add: case Op::Sub: case Op::Mul:
      case Op::Divi: case Op::Rem: case Op::Min: case Op::Max:
      case Op::And: case Op::Or: case Op::Xor: case Op::Shl:
      case Op::Shr: case Op::Mad: case Op::Setp: case Op::Malloc:
      case Op::Gep: case Op::Ld: case Op::St: case Op::Lds:
      case Op::Sts:
        add(in.ra);
        add(in.rb);
        add(in.rc); // base+offset stores carry their source in rc
        break;
      default:
        break;
    }
}

const char *
op_name(Op op)
{
    switch (op) {
      case Op::Nop: return "nop";
      case Op::Mov: return "mov";
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::Mul: return "mul";
      case Op::Divi: return "div";
      case Op::Rem: return "rem";
      case Op::Min: return "min";
      case Op::Max: return "max";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Shl: return "shl";
      case Op::Shr: return "shr";
      case Op::Mad: return "mad";
      case Op::Setp: return "setp";
      case Op::Sreg: return "sreg";
      case Op::Ldarg: return "ldarg";
      case Op::Ldloc: return "ldloc";
      case Op::Malloc: return "malloc";
      case Op::Gep: return "gep";
      case Op::Ld: return "ld";
      case Op::St: return "st";
      case Op::Lds: return "lds";
      case Op::Sts: return "sts";
      case Op::Ssy: return "ssy";
      case Op::Bra: return "bra";
      case Op::Bar: return "bar";
      case Op::Exit: return "exit";
    }
    return "?";
}

const char *
cmp_name(Cmp cmp)
{
    switch (cmp) {
      case Cmp::Eq: return "eq";
      case Cmp::Ne: return "ne";
      case Cmp::Lt: return "lt";
      case Cmp::Le: return "le";
      case Cmp::Gt: return "gt";
      case Cmp::Ge: return "ge";
    }
    return "?";
}

const char *
sreg_name(SpecialReg sreg)
{
    switch (sreg) {
      case SpecialReg::TidX: return "tid.x";
      case SpecialReg::CtaIdX: return "ctaid.x";
      case SpecialReg::NTidX: return "ntid.x";
      case SpecialReg::NCtaIdX: return "nctaid.x";
      case SpecialReg::GlobalId: return "gid";
      case SpecialReg::NThreads: return "nthreads";
      case SpecialReg::LaneId: return "laneid";
    }
    return "?";
}

namespace {

[[noreturn]] void
reject(const KernelProgram &prog, const std::string &what, std::size_t pc)
{
    throw std::invalid_argument(prog.name + ": " + what + " at pc " +
                                std::to_string(pc));
}

void
check_reg(const KernelProgram &prog, int reg, bool required,
          const char *what, std::size_t pc)
{
    if (reg == kNoReg) {
        if (required)
            reject(prog, std::string("missing ") + what, pc);
        return;
    }
    if (reg < 0 || reg >= prog.num_regs)
        reject(prog, "register out of range", pc);
}

/** A lane's value moves through one 64-bit register, so an access is
 *  1, 2, 4 or 8 bytes. */
void
check_access_size(const KernelProgram &prog, const Instr &in, std::size_t pc)
{
    if (in.size != 1 && in.size != 2 && in.size != 4 && in.size != 8)
        reject(prog, "access size must be 1, 2, 4 or 8 bytes", pc);
}

} // namespace

void
KernelProgram::validate() const
{
    if (code.empty())
        throw std::invalid_argument(name + ": empty kernel");
    if (args.size() > kMaxKernelArgs)
        throw std::invalid_argument(name + ": more than " +
                                    std::to_string(kMaxKernelArgs) +
                                    " kernel arguments (§2.1)");
    bool has_exit = false;
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instr &in = code[pc];
        switch (in.op) {
          case Op::Exit:
            has_exit = true;
            break;
          case Op::Bra:
          case Op::Ssy:
            if (in.target < 0 ||
                static_cast<std::size_t>(in.target) >= code.size())
                reject(*this, "branch target out of range", pc);
            if (in.op == Op::Bra && in.pred != kNoReg &&
                in.pred >= num_preds)
                reject(*this, "predicate out of range", pc);
            break;
          case Op::Setp:
            if (in.rd < 0 || in.rd >= num_preds)
                reject(*this, "predicate destination out of range", pc);
            check_reg(*this, in.ra, true, "ra", pc);
            check_reg(*this, in.rb, false, "rb", pc);
            break;
          case Op::Ldarg:
            if (in.arg_index < 0 ||
                static_cast<std::size_t>(in.arg_index) >= args.size())
                reject(*this, "argument index out of range", pc);
            check_reg(*this, in.rd, true, "rd", pc);
            break;
          case Op::Ldloc:
            if (in.arg_index < 0 ||
                static_cast<std::size_t>(in.arg_index) >= locals.size())
                reject(*this, "local index out of range", pc);
            check_reg(*this, in.rd, true, "rd", pc);
            break;
          case Op::Mad:
            check_reg(*this, in.rd, true, "rd", pc);
            check_reg(*this, in.ra, true, "ra", pc);
            check_reg(*this, in.rb, true, "rb", pc);
            check_reg(*this, in.rc, true, "rc", pc);
            break;
          case Op::Ld:
          case Op::Lds:
            check_reg(*this, in.rd, true, "rd", pc);
            check_reg(*this, in.ra, in.bt_index < 0, "address", pc);
            if (in.base_offset)
                check_reg(*this, in.rb, true, "index", pc);
            check_access_size(*this, in, pc);
            if (in.bt_index >= 256)
                reject(*this, "binding-table index out of range", pc);
            break;
          case Op::St:
          case Op::Sts:
            check_reg(*this, in.ra, in.bt_index < 0, "address", pc);
            check_reg(*this, in.rb, true,
                      in.base_offset ? "index" : "source", pc);
            if (in.base_offset)
                check_reg(*this, in.rc, true, "source", pc);
            check_access_size(*this, in, pc);
            if (in.bt_index >= 256)
                reject(*this, "binding-table index out of range", pc);
            break;
          default:
            check_reg(*this, in.rd, false, "rd", pc);
            check_reg(*this, in.ra, false, "ra", pc);
            check_reg(*this, in.rb, false, "rb", pc);
            break;
        }
    }
    if (!has_exit)
        throw std::invalid_argument(name + ": kernel has no exit instruction");
}

std::string
KernelProgram::disassemble() const
{
    std::ostringstream os;
    os << ".kernel " << name << " (regs=" << num_regs
       << ", preds=" << num_preds << ")\n";
    for (std::size_t i = 0; i < args.size(); ++i) {
        os << "  .arg " << i << " " << (args[i].is_pointer ? "ptr " : "i64 ")
           << args[i].name << "\n";
    }
    for (std::size_t i = 0; i < locals.size(); ++i) {
        os << "  .local " << i << " " << locals[i].name << "["
           << locals[i].elems << " x " << locals[i].elem_size << "B]\n";
    }
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instr &in = code[pc];
        os << "  " << pc << ":\t" << op_name(in.op);
        switch (in.op) {
          case Op::Setp:
            os << "." << cmp_name(in.cmp) << " p" << in.rd << ", r" << in.ra;
            if (in.rb != kNoReg)
                os << ", r" << in.rb;
            else
                os << ", " << in.imm;
            break;
          case Op::Sreg:
            os << " r" << in.rd << ", %" << sreg_name(in.sreg);
            break;
          case Op::Ldarg:
          case Op::Ldloc:
            os << " r" << in.rd << ", [" << in.arg_index << "]";
            break;
          case Op::Gep:
            os << " r" << in.rd << ", r" << in.ra << " + r" << in.rb
               << "*" << in.scale << " + " << in.disp;
            break;
          case Op::Ld:
          case Op::Lds:
            os << (in.check == CheckMode::StaticSafe ? ".safe" : "")
               << " r" << in.rd << ", ";
            if (in.bt_index >= 0)
                os << "[bt" << in.bt_index << " + r" << in.rb << "*"
                   << in.scale << "]." << int{in.size};
            else
                os << "[r" << in.ra << "]." << int{in.size};
            break;
          case Op::St:
          case Op::Sts:
            os << (in.check == CheckMode::StaticSafe ? ".safe" : "");
            if (in.bt_index >= 0)
                os << " [bt" << in.bt_index << " + r" << in.rb << "*"
                   << in.scale << "]." << int{in.size} << ", r" << in.rc;
            else
                os << " [r" << in.ra << "]." << int{in.size} << ", r"
                   << in.rb;
            break;
          case Op::Bra:
            if (in.pred != kNoReg)
                os << (in.neg_pred ? ".not" : "") << " p" << in.pred << ",";
            os << " @" << in.target;
            break;
          case Op::Ssy:
            os << " @" << in.target;
            break;
          case Op::Mad:
            os << " r" << in.rd << ", r" << in.ra << ", r" << in.rb
               << ", r" << in.rc;
            break;
          case Op::Nop:
          case Op::Bar:
          case Op::Exit:
            break;
          default:
            os << " r" << in.rd;
            if (in.ra != kNoReg)
                os << ", r" << in.ra;
            if (in.rb != kNoReg)
                os << ", r" << in.rb;
            else if (in.op != Op::Malloc)
                os << ", " << in.imm;
            break;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace gpushield
