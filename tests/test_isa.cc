/**
 * @file
 * Unit tests for the kernel IR and builder: structural validation,
 * label fixups, structured control flow emission, and disassembly.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "isa/builder.h"
#include "isa/ir.h"

namespace gpushield {
namespace {

/** What validate() throws for @p prog, or "" when it passes. */
std::string
validation_error(const KernelProgram &prog)
{
    try {
        prog.validate();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(Builder, SimpleStreamingKernelValidates)
{
    KernelBuilder b("vecadd");
    const int a = b.arg_ptr("a");
    const int bb = b.arg_ptr("b");
    const int c = b.arg_ptr("c");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int pa = b.ldarg(a);
    const int va = b.ld(b.gep(pa, gid, 4));
    const int pb = b.ldarg(bb);
    const int vb = b.ld(b.gep(pb, gid, 4));
    const int sum = b.alu(Op::Add, va, vb);
    const int pc = b.ldarg(c);
    b.st(b.gep(pc, gid, 4), sum);
    b.exit();

    const KernelProgram prog = b.finish();
    EXPECT_EQ(prog.args.size(), 3u);
    EXPECT_GT(prog.num_regs, 0);
    EXPECT_EQ(prog.code.back().op, Op::Exit);
}

TEST(Builder, AppendsExitWhenMissing)
{
    KernelBuilder b("noexit");
    b.mov_imm(1);
    const KernelProgram prog = b.finish();
    EXPECT_EQ(prog.code.back().op, Op::Exit);
}

TEST(Builder, LabelFixupsResolve)
{
    KernelBuilder b("branches");
    const int x = b.mov_imm(0);
    const int p = b.setpi(Cmp::Lt, x, 10);
    Label skip = b.new_label();
    b.ssy(skip);
    b.bra(skip, p, true);
    b.mov_imm(7);
    b.bind(skip);
    b.nop();
    b.exit();
    const KernelProgram prog = b.finish();

    bool found_bra = false;
    for (const Instr &in : prog.code) {
        if (in.op == Op::Bra) {
            found_bra = true;
            EXPECT_GE(in.target, 0);
            EXPECT_LT(static_cast<std::size_t>(in.target),
                      prog.code.size());
        }
    }
    EXPECT_TRUE(found_bra);
}

TEST(Builder, IfThenEmitsSsyBeforeBranch)
{
    KernelBuilder b("guard");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int p = b.setpi(Cmp::Lt, gid, 100);
    b.if_then(p, false, [&] { b.mov_imm(1); });
    b.exit();
    const KernelProgram prog = b.finish();

    // Find the Ssy and the predicated Bra right after it.
    int ssy_at = -1;
    for (std::size_t i = 0; i < prog.code.size(); ++i)
        if (prog.code[i].op == Op::Ssy)
            ssy_at = static_cast<int>(i);
    ASSERT_GE(ssy_at, 0);
    const Instr &bra = prog.code[ssy_at + 1];
    EXPECT_EQ(bra.op, Op::Bra);
    EXPECT_EQ(bra.pred, p);
    EXPECT_TRUE(bra.neg_pred);
    // Both jump to the same reconvergence point.
    EXPECT_EQ(prog.code[ssy_at].target, bra.target);
}

TEST(Builder, LoopCountShape)
{
    KernelBuilder b("loop");
    const int n = b.mov_imm(4);
    int body_count = 0;
    b.loop_count(n, [&](int i) {
        EXPECT_GE(i, 0);
        b.alui(Op::Add, i, 1);
        ++body_count;
    });
    b.exit();
    EXPECT_EQ(body_count, 1); // body emitted exactly once
    const KernelProgram prog = b.finish();

    // Loop contains a backward predicated branch.
    bool backward = false;
    for (std::size_t i = 0; i < prog.code.size(); ++i) {
        const Instr &in = prog.code[i];
        if (in.op == Op::Bra && in.pred != kNoReg &&
            in.target <= static_cast<int>(i))
            backward = true;
    }
    EXPECT_TRUE(backward);
}

TEST(Builder, BaseOffsetMemoryOps)
{
    KernelBuilder b("bo");
    const int a = b.arg_ptr("a");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int pa = b.ldarg(a);
    const int v = b.ld_bo(pa, gid, 4);
    b.st_bo(pa, gid, 4, v);
    b.exit();
    const KernelProgram prog = b.finish();

    int ld_count = 0, st_count = 0;
    for (const Instr &in : prog.code) {
        if (in.op == Op::Ld) {
            EXPECT_TRUE(in.base_offset);
            ++ld_count;
        }
        if (in.op == Op::St) {
            EXPECT_TRUE(in.base_offset);
            EXPECT_NE(in.rc, kNoReg); // store source in rc
            ++st_count;
        }
    }
    EXPECT_EQ(ld_count, 1);
    EXPECT_EQ(st_count, 1);
}

TEST(Builder, LocalVarDeclared)
{
    KernelBuilder b("locals");
    const int s = b.local("scratch", 4, 8);
    const int base = b.ldloc(s);
    (void)base;
    b.exit();
    const KernelProgram prog = b.finish();
    ASSERT_EQ(prog.locals.size(), 1u);
    EXPECT_EQ(prog.locals[0].elems, 8u);
    EXPECT_EQ(prog.locals[0].elem_size, 4u);
}

TEST(Disassembler, MentionsKeyPieces)
{
    KernelBuilder b("disasm");
    const int a = b.arg_ptr("a");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int pa = b.ldarg(a);
    b.st(b.gep(pa, gid, 4), gid);
    b.exit();
    const KernelProgram prog = b.finish();
    const std::string text = prog.disassemble();
    EXPECT_NE(text.find(".kernel disasm"), std::string::npos);
    EXPECT_NE(text.find("gep"), std::string::npos);
    EXPECT_NE(text.find("st"), std::string::npos);
    EXPECT_NE(text.find("exit"), std::string::npos);
}

TEST(Validate, OpNamesCovered)
{
    EXPECT_STREQ(op_name(Op::Gep), "gep");
    EXPECT_STREQ(op_name(Op::Malloc), "malloc");
    EXPECT_STREQ(cmp_name(Cmp::Lt), "lt");
    EXPECT_STREQ(sreg_name(SpecialReg::GlobalId), "gid");
}

TEST(Validate, ThrowsOnBadTarget)
{
    KernelProgram prog;
    prog.name = "bad";
    Instr bra;
    bra.op = Op::Bra;
    bra.target = 99;
    prog.code.push_back(bra);
    Instr ex;
    ex.op = Op::Exit;
    prog.code.push_back(ex);
    EXPECT_THROW(prog.validate(), std::invalid_argument);
    EXPECT_NE(validation_error(prog).find("target"), std::string::npos);
}

TEST(Validate, ThrowsOnMissingExit)
{
    KernelProgram prog;
    prog.name = "noexit";
    Instr nop;
    prog.code.push_back(nop);
    EXPECT_THROW(prog.validate(), std::invalid_argument);
    EXPECT_NE(validation_error(prog).find("exit"), std::string::npos);
}

TEST(Validate, ThrowsOnAccessSizeOtherThanOneTwoFourOrEight)
{
    // The interpreter moves each lane's value through one 64-bit
    // register, so a wider access would overrun it on the host.
    KernelBuilder b("sizes");
    const int buf = b.arg_ptr("buf");
    const int base = b.ldarg(buf);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int v = b.ld(b.gep(base, gid, 4));
    b.st(b.gep(base, gid, 4), v);
    b.st_bo(base, gid, 4, b.ld_bo(base, gid, 4));
    b.sts(gid, b.lds(gid));
    b.exit();
    const KernelProgram prog = b.finish();

    int accesses = 0;
    for (std::size_t pc = 0; pc < prog.code.size(); ++pc) {
        const Op op = prog.code[pc].op;
        if (op != Op::Ld && op != Op::St && op != Op::Lds && op != Op::Sts)
            continue;
        ++accesses;
        for (const int size : {1, 2, 4, 8}) {
            KernelProgram p = prog;
            p.code[pc].size = static_cast<std::uint8_t>(size);
            EXPECT_EQ(validation_error(p), "") << op_name(op) << size;
        }
        for (const int size : {0, 3, 5, 16, 255}) {
            KernelProgram p = prog;
            p.code[pc].size = static_cast<std::uint8_t>(size);
            EXPECT_EQ(validation_error(p),
                      "sizes: access size must be 1, 2, 4 or 8 bytes at pc " +
                          std::to_string(pc))
                << op_name(op) << size;
        }
    }
    EXPECT_EQ(accesses, 6);
}

} // namespace
} // namespace gpushield
