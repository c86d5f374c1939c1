#include "sim/interp.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/log.h"
#include "shield/pointer.h"

namespace gpushield {

WarpInterpreter::WarpInterpreter(LaunchState &launch, Driver &driver)
    : launch_(launch), driver_(driver)
{
}

std::int64_t
WarpInterpreter::src2(const WarpState &warp, unsigned lane,
                      const Instr &in) const
{
    return in.rb != kNoReg ? warp.reg(lane, in.rb) : in.imm;
}

std::int64_t
WarpInterpreter::special(const WarpState &warp, unsigned lane,
                         SpecialReg s) const
{
    const std::int64_t tid = warp.tid(lane);
    const std::int64_t ctaid = warp.wg_index();
    const std::int64_t ntid = launch_.ntid;
    const std::int64_t nctaid = launch_.nctaid;
    switch (s) {
      case SpecialReg::TidX: return tid;
      case SpecialReg::CtaIdX: return ctaid;
      case SpecialReg::NTidX: return ntid;
      case SpecialReg::NCtaIdX: return nctaid;
      case SpecialReg::GlobalId: return ctaid * ntid + tid;
      case SpecialReg::NThreads: return ntid * nctaid;
      case SpecialReg::LaneId: return lane;
    }
    return 0;
}

StepResult
WarpInterpreter::step(WarpState &warp, std::vector<std::uint8_t> &shared_mem)
{
    StepResult result;
    const KernelProgram &prog = launch_.program;

    warp.reconverge();
    if (warp.pc < 0 || static_cast<std::size_t>(warp.pc) >= prog.code.size())
        panic("interp: pc out of range in " + prog.name);
    const Instr &in = prog.code[warp.pc];
    const int next_pc = warp.pc + 1;
    const LaneMask active = warp.active;

    auto for_lanes = [&](auto &&fn) {
        for (unsigned lane = 0; lane < kWarpSize; ++lane)
            if ((active >> lane) & 1)
                fn(lane);
    };

    switch (in.op) {
      case Op::Nop:
        warp.pc = next_pc;
        break;
      case Op::Mov:
        for_lanes([&](unsigned lane) {
            warp.set_reg(lane, in.rd,
                         in.ra != kNoReg ? warp.reg(lane, in.ra) : in.imm);
        });
        warp.pc = next_pc;
        break;
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
        for_lanes([&](unsigned lane) {
            const std::int64_t a = warp.reg(lane, in.ra);
            const std::int64_t b = src2(warp, lane, in);
            std::int64_t r = 0;
            switch (in.op) {
              case Op::Add: r = a + b; break;
              case Op::Sub: r = a - b; break;
              case Op::Mul: r = a * b; break;
              case Op::Min: r = std::min(a, b); break;
              case Op::Max: r = std::max(a, b); break;
              case Op::And: r = a & b; break;
              case Op::Or: r = a | b; break;
              case Op::Xor: r = a ^ b; break;
              case Op::Shl: r = b >= 64 ? 0 : a << (b & 63); break;
              case Op::Shr: r = b >= 64 ? 0 : a >> (b & 63); break;
              default: break;
            }
            warp.set_reg(lane, in.rd, r);
        });
        warp.pc = next_pc;
        break;
      case Op::Divi:
      case Op::Rem:
        for_lanes([&](unsigned lane) {
            const std::int64_t a = warp.reg(lane, in.ra);
            const std::int64_t b = src2(warp, lane, in);
            const std::int64_t safe_b = b == 0 ? 1 : b;
            warp.set_reg(lane, in.rd,
                         in.op == Op::Divi ? a / safe_b : a % safe_b);
        });
        warp.pc = next_pc;
        result.kind = StepKind::Sfu;
        break;
      case Op::Mad:
        for_lanes([&](unsigned lane) {
            warp.set_reg(lane, in.rd,
                         warp.reg(lane, in.ra) * warp.reg(lane, in.rb) +
                             warp.reg(lane, in.rc));
        });
        warp.pc = next_pc;
        break;
      case Op::Setp:
        for_lanes([&](unsigned lane) {
            const std::int64_t a = warp.reg(lane, in.ra);
            const std::int64_t b = src2(warp, lane, in);
            bool v = false;
            switch (in.cmp) {
              case Cmp::Eq: v = a == b; break;
              case Cmp::Ne: v = a != b; break;
              case Cmp::Lt: v = a < b; break;
              case Cmp::Le: v = a <= b; break;
              case Cmp::Gt: v = a > b; break;
              case Cmp::Ge: v = a >= b; break;
            }
            warp.set_pred(lane, in.rd, v);
        });
        warp.pc = next_pc;
        break;
      case Op::Sreg:
        for_lanes([&](unsigned lane) {
            warp.set_reg(lane, in.rd, special(warp, lane, in.sreg));
        });
        warp.pc = next_pc;
        break;
      case Op::Ldarg:
        for_lanes([&](unsigned lane) {
            warp.set_reg(lane, in.rd,
                         static_cast<std::int64_t>(
                             launch_.arg_values[in.arg_index]));
        });
        warp.pc = next_pc;
        break;
      case Op::Ldloc:
        for_lanes([&](unsigned lane) {
            warp.set_reg(lane, in.rd,
                         static_cast<std::int64_t>(
                             launch_.local_bases[in.arg_index]));
        });
        warp.pc = next_pc;
        break;
      case Op::Malloc: {
        std::uint32_t count = 0;
        for_lanes([&](unsigned lane) {
            const auto bytes =
                static_cast<std::uint64_t>(warp.reg(lane, in.ra));
            warp.set_reg(lane, in.rd,
                         static_cast<std::int64_t>(
                             driver_.device_malloc(launch_, bytes)));
            ++count;
        });
        warp.pc = next_pc;
        result.kind = StepKind::Malloc;
        result.malloc_count = count;
        break;
      }
      case Op::Gep:
        for_lanes([&](unsigned lane) {
            warp.set_reg(lane, in.rd,
                         warp.reg(lane, in.ra) +
                             warp.reg(lane, in.rb) *
                                 static_cast<std::int64_t>(in.scale) +
                             in.disp);
        });
        warp.pc = next_pc;
        break;
      case Op::Ld:
      case Op::St: {
        MemOp &op = result.mem;
        op.instr = &in;
        op.pc = warp.pc;
        op.is_store = in.op == Op::St;
        op.mask = active;
        op.dest_reg = in.rd;
        op.size = in.size;

        bool first = true;
        if (in.base_offset) {
            op.has_base_offset = true;
            VAddr base;
            if (in.bt_index >= 0) {
                // Method A: the base comes from the binding table.
                if (static_cast<std::size_t>(in.bt_index) >=
                    launch_.binding_table.size())
                    panic("interp: binding-table index beyond bound "
                          "buffers in " + prog.name);
                op.has_bt = true;
                op.bt_bounds = launch_.binding_table[in.bt_index];
                op.pointer = make_unprotected_ptr(op.bt_bounds.base_addr);
                base = op.bt_bounds.base_addr;
            } else {
                // Method C: one warp-uniform base register.
                unsigned first_lane = 0;
                while (((active >> first_lane) & 1) == 0)
                    ++first_lane;
                op.pointer = static_cast<std::uint64_t>(
                    warp.reg(first_lane, in.ra));
                base = ptr_addr(op.pointer);
            }
            for_lanes([&](unsigned lane) {
                const std::int64_t off =
                    warp.reg(lane, in.rb) *
                        static_cast<std::int64_t>(in.scale) +
                    in.disp;
                const VAddr addr = base + static_cast<VAddr>(off);
                op.lane_addr[lane] = addr & kVAddrMask;
                if (op.is_store)
                    op.store_val[lane] = warp.reg(lane, in.rc);
                if (first || off < op.min_offset)
                    op.min_offset = off;
                const std::int64_t end = off + in.size;
                if (first || end > op.max_offset_end)
                    op.max_offset_end = end;
                first = false;
            });
        } else {
            // Method B: full virtual address in the register. The BCU
            // observes the tag of the first active lane (uniform across
            // lanes because all derive from the same base pointer).
            unsigned first_lane = 0;
            while (((active >> first_lane) & 1) == 0)
                ++first_lane;
            op.pointer =
                static_cast<std::uint64_t>(warp.reg(first_lane, in.ra));
            for_lanes([&](unsigned lane) {
                op.lane_addr[lane] =
                    static_cast<std::uint64_t>(warp.reg(lane, in.ra)) &
                    kVAddrMask;
                if (op.is_store)
                    op.store_val[lane] = warp.reg(lane, in.rb);
            });
        }
        // Warp-level min/max range (the address-gather stage).
        first = true;
        for_lanes([&](unsigned lane) {
            const VAddr a = op.lane_addr[lane];
            if (first || a < op.min_addr)
                op.min_addr = a;
            if (first || a + in.size > op.max_end)
                op.max_end = a + in.size;
            first = false;
        });
        warp.pc = next_pc;
        result.kind = StepKind::GlobalMem;
        break;
      }
      case Op::Lds:
      case Op::Sts:
        for_lanes([&](unsigned lane) {
            const auto addr =
                static_cast<std::uint64_t>(warp.reg(lane, in.ra));
            if (shared_mem.empty())
                return;
            // Scratchpad wraps; shared memory is outside GPUShield's
            // protection scope (Table 1 on-chip types).
            const std::uint64_t at = addr % shared_mem.size();
            const std::size_t n =
                std::min<std::size_t>(in.size, shared_mem.size() - at);
            if (in.op == Op::Lds) {
                std::int64_t v = 0;
                std::copy_n(shared_mem.data() + at, n,
                            reinterpret_cast<std::uint8_t *>(&v));
                warp.set_reg(lane, in.rd, v);
            } else {
                const std::int64_t v = warp.reg(lane, in.rb);
                std::copy_n(reinterpret_cast<const std::uint8_t *>(&v), n,
                            shared_mem.data() + at);
            }
        });
        warp.pc = next_pc;
        result.kind = StepKind::SharedMem;
        break;
      case Op::Ssy: {
        SimtEntry entry;
        entry.reconv_pc = in.target;
        entry.restore_mask = active;
        warp.simt_stack.push_back(entry);
        warp.pc = next_pc;
        break;
      }
      case Op::Bra: {
        LaneMask taken = active;
        if (in.pred != kNoReg) {
            const LaneMask p = warp.pred_mask(in.pred);
            taken = active & (in.neg_pred ? ~p : p);
        }
        warp.branch(in.target, taken, next_pc);
        break;
      }
      case Op::Bar:
        warp.pc = next_pc;
        result.kind = StepKind::Barrier;
        break;
      case Op::Exit:
        warp.status = WarpStatus::Finished;
        result.kind = StepKind::Exited;
        break;
    }
    return result;
}

void
WarpInterpreter::apply_mem(WarpState &warp, const MemOp &op,
                           LaneMask suppress_mask)
{
    GpuDevice &dev = driver_.device();
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (((op.mask >> lane) & 1) == 0)
            continue;
        const bool suppress = (suppress_mask >> lane) & 1;
        const VAddr vaddr = op.lane_addr[lane];
        const Translation t =
            dev.page_table().translate(vaddr, op.is_store);
        if (op.is_store) {
            if (suppress || !t.ok)
                continue; // dropped silently (§5.5.2)
            dev.mem().write(t.paddr, &op.store_val[lane], op.size);
        } else {
            std::int64_t v = 0;
            if (!suppress && t.ok)
                dev.mem().read(t.paddr, &v, op.size);
            warp.set_reg(lane, op.dest_reg, v);
        }
    }
}

} // namespace gpushield
