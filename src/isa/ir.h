/**
 * @file
 * SIMT kernel intermediate representation.
 *
 * One IR serves both halves of the reproduction: the cycle-level core
 * interprets it per warp (functional + timing), and the compiler pass of
 * §5.3 analyzes it to build the Bounds-Analysis Table. Programs are
 * straight-line instruction vectors with resolved branch targets and a
 * structured-divergence discipline (SSY/BRA pairs, see sim/warp.h).
 *
 * The memory-relevant shape mirrors real GPU ISAs (Fig. 3): kernel
 * argument pointers enter the register file via LDARG (like Nvidia's
 * constant-bank reads), addresses are formed by GEP (base + index*scale
 * + disp, like IMAD.WIDE), and LD/ST consume a full tagged virtual
 * address (addressing Method B).
 */

#ifndef GPUSHIELD_ISA_IR_H
#define GPUSHIELD_ISA_IR_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace gpushield {

/** Instruction opcodes. */
enum class Op : std::uint8_t {
    Nop,
    Mov,    //!< rd = src
    Add,    //!< rd = ra + src
    Sub,    //!< rd = ra - src
    Mul,    //!< rd = ra * src
    Divi,   //!< rd = ra / src (src != 0)
    Rem,    //!< rd = ra % src
    Min,    //!< rd = min(ra, src)
    Max,    //!< rd = max(ra, src)
    And,    //!< rd = ra & src
    Or,     //!< rd = ra | src
    Xor,    //!< rd = ra ^ src
    Shl,    //!< rd = ra << src
    Shr,    //!< rd = ra >> src (arithmetic)
    Mad,    //!< rd = ra * rb + rc
    Setp,   //!< pred[rd] = cmp(ra, src)
    Sreg,   //!< rd = special register
    Ldarg,  //!< rd = kernel argument (tagged pointer or scalar)
    Ldloc,  //!< rd = tagged base pointer of local variable
    Malloc, //!< rd = device-heap allocation of ra bytes (tagged pointer)
    Gep,    //!< rd = ra + rb * scale + disp (address formation)
    Ld,     //!< rd = memory[ra], `size` bytes
    St,     //!< memory[ra] = rb, `size` bytes
    Lds,    //!< rd = shared[ra] (on-chip, unchecked per Table 1 scope)
    Sts,    //!< shared[ra] = rb
    Ssy,    //!< push reconvergence point `target`
    Bra,    //!< branch to `target`; predicated when pred >= 0
    Bar,    //!< workgroup barrier
    Exit,   //!< thread terminates
};

/** Comparison operators for Setp. */
enum class Cmp : std::uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/** Special-register kinds for Sreg. */
enum class SpecialReg : std::uint8_t {
    TidX,      //!< thread index within the workgroup
    CtaIdX,    //!< workgroup index
    NTidX,     //!< workgroup size
    NCtaIdX,   //!< number of workgroups
    GlobalId,  //!< CtaIdX * NTidX + TidX
    NThreads,  //!< total thread count (NTidX * NCtaIdX)
    LaneId,    //!< lane within the warp
};

/** Memory space tag (stats / builder intent; local is off-chip too). */
enum class MemSpace : std::uint8_t { Global, Local, Heap, Shared };

/** Runtime bounds-check mode, set per static instruction at launch. */
enum class CheckMode : std::uint8_t {
    Checked,       //!< BCU performs a runtime check (pointer Type 2/3)
    StaticSafe,    //!< proven in-bounds at compile time (pointer Type 1)
    GuardReplaced, //!< §6.4: software guard removed; BCU squashes the
                   //!< formerly-guarded lanes silently
};

/** Sentinel for "no register operand". */
inline constexpr int kNoReg = -1;

/** Most arguments a kernel may take (§2.1). */
inline constexpr std::size_t kMaxKernelArgs = 128;

/**
 * One IR instruction. Fields are interpreted per opcode; unused register
 * fields hold kNoReg. When rb == kNoReg for two-source ALU ops, `imm` is
 * the second operand.
 */
struct Instr
{
    Op op = Op::Nop;
    int rd = kNoReg;   //!< destination register (or predicate index)
    int ra = kNoReg;   //!< first source
    int rb = kNoReg;   //!< second source (kNoReg => use imm)
    int rc = kNoReg;   //!< third source (Mad)
    std::int64_t imm = 0;

    Cmp cmp = Cmp::Eq;            //!< Setp
    SpecialReg sreg = SpecialReg::TidX;

    int arg_index = 0;            //!< Ldarg / Ldloc operand
    std::uint32_t scale = 1;      //!< Gep scale
    std::int64_t disp = 0;        //!< Gep displacement

    std::uint8_t size = 4;        //!< Ld/St access size in bytes
    MemSpace space = MemSpace::Global;

    /**
     * Base+offset addressing (Method C, Fig. 2): the memory op computes
     * its address as ra(base ptr) + rb*scale + disp in the AGEN stage,
     * exposing base and offset separately to the BCU (Type 3 pointers).
     * Stores carry their source in rc in this mode.
     */
    bool base_offset = false;

    /**
     * Binding-table addressing (Method A, Fig. 2 — Intel's BTS model):
     * when >= 0, the base comes from BindingTable[bt_index] instead of
     * a register; offset operands are as in base_offset mode (which is
     * implied). The BT entry carries the buffer's exact size, so the
     * bounds check needs no RBT/RCache access at all.
     */
    int bt_index = -1;

    int target = -1;              //!< Bra/Ssy instruction index
    int pred = kNoReg;            //!< Bra predicate register (kNoReg = always)
    bool neg_pred = false;        //!< branch on !pred

    CheckMode check = CheckMode::Checked; //!< set by the driver from the BAT
};

/** True when @p op reads or writes addressable (off-chip) memory. */
constexpr bool
is_global_mem(Op op)
{
    return op == Op::Ld || op == Op::St;
}

/** Kernel argument descriptor (what the host passes at launch). */
struct KernelArgSpec
{
    bool is_pointer = false;
    /** For pointer args: index into the launch's buffer list. */
    int buffer_index = -1;
    /** For scalar args: the value. */
    std::int64_t scalar = 0;
    std::string name;
};

/** Local (off-chip stack) variable declared by a kernel. */
struct LocalVarSpec
{
    std::uint32_t elem_size = 4;  //!< bytes per element
    std::uint32_t elems = 1;      //!< elements per thread
    std::string name;

    /** Bytes for @p threads threads, or 0 when that wraps 64 bits: a
     *  wrapped size must never bound a region the kernel indexes in
     *  full, so the static pass proves nothing against it and the
     *  driver refuses the launch. */
    std::uint64_t
    total_bytes(std::uint64_t threads) const
    {
        const std::uint64_t per_thread =
            static_cast<std::uint64_t>(elem_size) * elems;
        const std::uint64_t total = per_thread * threads;
        return per_thread != 0 && total / per_thread != threads ? 0 : total;
    }
};

/** A compiled kernel program. */
struct KernelProgram
{
    std::string name;
    std::vector<Instr> code;
    std::vector<KernelArgSpec> args;
    std::vector<LocalVarSpec> locals;
    int num_regs = 0;   //!< general registers per thread
    int num_preds = 0;  //!< predicate registers per thread
    std::uint32_t shared_bytes = 0; //!< per-workgroup scratchpad usage

    /**
     * Validates structural invariants (at most kMaxKernelArgs arguments,
     * targets in range, registers within bounds, loads and stores of 1,
     * 2, 4 or 8 bytes, Exit present).
     * Throws std::invalid_argument on violation: a program can come from
     * a tenant, so a bad one must not end the process.
     */
    void validate() const;

    /** Human-readable disassembly. */
    std::string disassemble() const;
};

/**
 * General-register destination of @p in, or kNoReg. Setp writes a
 * *predicate*, whose index aliases the general-register numbering, so
 * it is never reported as a register write.
 */
int dest_reg(const Instr &in);

/** Appends the general-register sources of @p in to @p out. */
void source_regs(const Instr &in, std::vector<int> &out);

/** Returns the mnemonic of @p op. */
const char *op_name(Op op);

/** Returns the textual form of @p cmp. */
const char *cmp_name(Cmp cmp);

/** Returns the textual form of @p sreg. */
const char *sreg_name(SpecialReg sreg);

} // namespace gpushield

#endif // GPUSHIELD_ISA_IR_H
