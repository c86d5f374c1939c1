#include "sim/interp.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>

#include "common/log.h"
#include "shield/pointer.h"

namespace gpushield {

namespace {

/** rd = f(ra, b) over the @p active lanes, where b is rb or the
 *  immediate. The op is fixed before the lane loop. */
template <typename F>
void
binary_lanes(WarpState &warp, const Instr &in, LaneMask active, F f)
{
    std::int64_t *rd = warp.reg_row(in.rd);
    const std::int64_t *ra = warp.reg_row(in.ra);
    if (in.rb != kNoReg) {
        const std::int64_t *rb = warp.reg_row(in.rb);
        for_each_lane(active,
                      [&](unsigned lane) { rd[lane] = f(ra[lane], rb[lane]); });
    } else {
        const std::int64_t b = in.imm;
        for_each_lane(active,
                      [&](unsigned lane) { rd[lane] = f(ra[lane], b); });
    }
}

/** The mask of @p active lanes for which cmp(ra, b) holds. */
template <typename Cmp>
LaneMask
compare_lanes(const WarpState &warp, const Instr &in, LaneMask active,
              Cmp cmp)
{
    const std::int64_t *ra = warp.reg_row(in.ra);
    LaneMask v = 0;
    if (in.rb != kNoReg) {
        const std::int64_t *rb = warp.reg_row(in.rb);
        for_each_lane(active, [&](unsigned lane) {
            v |= static_cast<LaneMask>(cmp(ra[lane], rb[lane])) << lane;
        });
    } else {
        const std::int64_t b = in.imm;
        for_each_lane(active, [&](unsigned lane) {
            v |= static_cast<LaneMask>(cmp(ra[lane], b)) << lane;
        });
    }
    return v;
}

/** rd = v in every @p active lane. */
void
fill_lanes(WarpState &warp, int rd, LaneMask active, std::int64_t v)
{
    std::int64_t *row = warp.reg_row(rd);
    for_each_lane(active, [&](unsigned lane) { row[lane] = v; });
}

template <typename T>
T
load_as(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** The @p size bytes at @p p, zero-extended. validate() admits access
 *  sizes 1, 2, 4 and 8, which are typed loads: copying bytes into a
 *  zeroed int64 and reading it back stalls the host's store forwarding
 *  on every lane. A shorter size is a scratchpad access cut short at
 *  the end. */
std::int64_t
load_bytes(const std::uint8_t *p, std::size_t size)
{
    switch (size) {
      case 1: return *p;
      case 2: return load_as<std::uint16_t>(p);
      case 4: return load_as<std::uint32_t>(p);
      case 8: return load_as<std::int64_t>(p);
      default: {
        std::int64_t v = 0;
        std::memcpy(&v, p, size);
        return v;
      }
    }
}

/** Writes the low @p size bytes (at most 8) of *@p src to @p p. */
void
store_bytes(std::uint8_t *p, const std::int64_t *src, std::size_t size)
{
    const auto store_as = [&](auto v) { std::memcpy(p, &v, sizeof v); };
    switch (size) {
      case 1: *p = static_cast<std::uint8_t>(*src); return;
      case 2: store_as(static_cast<std::uint16_t>(*src)); return;
      case 4: store_as(static_cast<std::uint32_t>(*src)); return;
      case 8: store_as(*src); return;
      default: std::memcpy(p, src, size); return;
    }
}

} // namespace

WarpInterpreter::WarpInterpreter(LaunchState &launch, Driver &driver)
    : launch_(launch), driver_(driver)
{
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
    // Two-operand ALU ops pick their lane function here, once.
    const auto alu = [&](auto f) { binary_lanes(warp, in, active, f); };

    switch (in.op) {
      case Op::Nop:
        break;
      case Op::Mov:
        if (in.ra != kNoReg)
            alu([](std::int64_t a, std::int64_t) { return a; });
        else
            fill_lanes(warp, in.rd, active, in.imm);
        break;
      case Op::Add: alu(std::plus<>{}); break;
      case Op::Sub: alu(std::minus<>{}); break;
      case Op::Mul: alu(std::multiplies<>{}); break;
      case Op::And: alu(std::bit_and<>{}); break;
      case Op::Or: alu(std::bit_or<>{}); break;
      case Op::Xor: alu(std::bit_xor<>{}); break;
      case Op::Min:
        alu([](std::int64_t a, std::int64_t b) { return std::min(a, b); });
        break;
      case Op::Max:
        alu([](std::int64_t a, std::int64_t b) { return std::max(a, b); });
        break;
      case Op::Shl:
        alu([](std::int64_t a, std::int64_t b) -> std::int64_t {
            return b >= 64 ? 0 : a << (b & 63);
        });
        break;
      case Op::Shr:
        alu([](std::int64_t a, std::int64_t b) -> std::int64_t {
            return b >= 64 ? 0 : a >> (b & 63);
        });
        break;
      // A zero divisor divides by one. Dividing by -1 negates with
      // wraparound, so INT64_MIN / -1 is INT64_MIN and its remainder 0
      // (the host's idiv would trap).
      case Op::Divi:
        alu([](std::int64_t a, std::int64_t b) {
            if (b == -1)
                return static_cast<std::int64_t>(
                    0 - static_cast<std::uint64_t>(a));
            return a / (b == 0 ? 1 : b);
        });
        result.kind = StepKind::Sfu;
        break;
      case Op::Rem:
        alu([](std::int64_t a, std::int64_t b) {
            return b == -1 ? 0 : a % (b == 0 ? 1 : b);
        });
        result.kind = StepKind::Sfu;
        break;
      case Op::Mad: {
        std::int64_t *rd = warp.reg_row(in.rd);
        const std::int64_t *ra = warp.reg_row(in.ra);
        const std::int64_t *rb = warp.reg_row(in.rb);
        const std::int64_t *rc = warp.reg_row(in.rc);
        for_each_lane(active, [&](unsigned lane) {
            rd[lane] = ra[lane] * rb[lane] + rc[lane];
        });
        break;
      }
      case Op::Setp: {
        const auto cmp = [&](auto f) {
            return compare_lanes(warp, in, active, f);
        };
        LaneMask v = 0;
        switch (in.cmp) {
          case Cmp::Eq: v = cmp(std::equal_to<>{}); break;
          case Cmp::Ne: v = cmp(std::not_equal_to<>{}); break;
          case Cmp::Lt: v = cmp(std::less<>{}); break;
          case Cmp::Le: v = cmp(std::less_equal<>{}); break;
          case Cmp::Gt: v = cmp(std::greater<>{}); break;
          case Cmp::Ge: v = cmp(std::greater_equal<>{}); break;
        }
        warp.write_pred(in.rd, v, active);
        break;
      }
      case Op::Sreg: {
        // Every special register is base + step * lane.
        const std::int64_t tid0 = warp.tid(0);
        const std::int64_t ctaid = warp.wg_index();
        const std::int64_t ntid = launch_.ntid;
        const std::int64_t nctaid = launch_.nctaid;
        std::int64_t base = 0;
        std::int64_t step = 0;
        switch (in.sreg) {
          case SpecialReg::TidX: base = tid0; step = 1; break;
          case SpecialReg::CtaIdX: base = ctaid; break;
          case SpecialReg::NTidX: base = ntid; break;
          case SpecialReg::NCtaIdX: base = nctaid; break;
          case SpecialReg::GlobalId:
            base = ctaid * ntid + tid0;
            step = 1;
            break;
          case SpecialReg::NThreads: base = ntid * nctaid; break;
          case SpecialReg::LaneId: step = 1; break;
        }
        std::int64_t *rd = warp.reg_row(in.rd);
        for_each_lane(active, [&](unsigned lane) {
            rd[lane] = base + step * static_cast<std::int64_t>(lane);
        });
        break;
      }
      case Op::Ldarg:
        fill_lanes(warp, in.rd, active,
                   static_cast<std::int64_t>(
                       launch_.arg_values[in.arg_index]));
        break;
      case Op::Ldloc:
        fill_lanes(warp, in.rd, active,
                   static_cast<std::int64_t>(
                       launch_.local_bases[in.arg_index]));
        break;
      case Op::Malloc: {
        std::int64_t *rd = warp.reg_row(in.rd);
        const std::int64_t *ra = warp.reg_row(in.ra);
        for_each_lane(active, [&](unsigned lane) {
            const auto bytes = static_cast<std::uint64_t>(ra[lane]);
            rd[lane] = static_cast<std::int64_t>(
                driver_.device_malloc(launch_, bytes));
        });
        result.kind = StepKind::Malloc;
        result.malloc_count =
            static_cast<std::uint32_t>(std::popcount(active));
        break;
      }
      case Op::Gep: {
        std::int64_t *rd = warp.reg_row(in.rd);
        const std::int64_t *ra = warp.reg_row(in.ra);
        const std::int64_t *rb = warp.reg_row(in.rb);
        const auto scale = static_cast<std::int64_t>(in.scale);
        for_each_lane(active, [&](unsigned lane) {
            rd[lane] = ra[lane] + rb[lane] * scale + in.disp;
        });
        break;
      }
      case Op::Ld:
      case Op::St: {
        MemOp &op = result.mem;
        op.instr = &in;
        op.pc = warp.pc;
        op.is_store = in.op == Op::St;
        op.mask = active;
        op.dest_reg = in.rd;
        op.size = in.size;

        // The BCU observes the tag of the first active lane (uniform
        // across lanes because all derive from the same base pointer).
        const auto first_lane =
            static_cast<unsigned>(std::countr_zero(active));
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
                op.pointer = static_cast<std::uint64_t>(
                    warp.reg(first_lane, in.ra));
                base = ptr_addr(op.pointer);
            }
            const std::int64_t *index = warp.reg_row(in.rb);
            const std::int64_t *src =
                op.is_store ? warp.reg_row(in.rc) : nullptr;
            const auto scale = static_cast<std::int64_t>(in.scale);
            for_each_lane(active, [&](unsigned lane) {
                const std::int64_t off = index[lane] * scale + in.disp;
                const VAddr addr = base + static_cast<VAddr>(off);
                op.lane_addr[lane] = addr & kVAddrMask;
                if (src != nullptr)
                    op.store_val[lane] = src[lane];
                if (first || off < op.min_offset)
                    op.min_offset = off;
                const std::int64_t end = off + in.size;
                if (first || end > op.max_offset_end)
                    op.max_offset_end = end;
                first = false;
            });
        } else {
            // Method B: full virtual address in the register.
            op.pointer =
                static_cast<std::uint64_t>(warp.reg(first_lane, in.ra));
            const std::int64_t *addr = warp.reg_row(in.ra);
            const std::int64_t *src =
                op.is_store ? warp.reg_row(in.rb) : nullptr;
            for_each_lane(active, [&](unsigned lane) {
                op.lane_addr[lane] =
                    static_cast<std::uint64_t>(addr[lane]) & kVAddrMask;
                if (src != nullptr)
                    op.store_val[lane] = src[lane];
            });
        }
        // Warp-level min/max range (the address-gather stage).
        first = true;
        for_each_lane(active, [&](unsigned lane) {
            const VAddr a = op.lane_addr[lane];
            if (first || a < op.min_addr)
                op.min_addr = a;
            if (first || a + in.size > op.max_end)
                op.max_end = a + in.size;
            first = false;
        });
        result.kind = StepKind::GlobalMem;
        break;
      }
      case Op::Lds:
      case Op::Sts: {
        result.kind = StepKind::SharedMem;
        if (shared_mem.empty())
            break;
        // Scratchpad wraps; shared memory is outside GPUShield's
        // protection scope (Table 1 on-chip types). An access that runs
        // past the end is cut short there.
        std::uint8_t *scratch = shared_mem.data();
        const std::uint64_t bytes = shared_mem.size();
        const std::int64_t *addr = warp.reg_row(in.ra);
        const auto offset = [&](unsigned lane) {
            const auto a = static_cast<std::uint64_t>(addr[lane]);
            return a < bytes ? a : a % bytes;
        };
        if (in.op == Op::Lds) {
            std::int64_t *rd = warp.reg_row(in.rd);
            for_each_lane(active, [&](unsigned lane) {
                const std::uint64_t at = offset(lane);
                rd[lane] = load_bytes(
                    scratch + at, std::min<std::uint64_t>(in.size, bytes - at));
            });
        } else {
            const std::int64_t *src = warp.reg_row(in.rb);
            for_each_lane(active, [&](unsigned lane) {
                const std::uint64_t at = offset(lane);
                store_bytes(scratch + at, &src[lane],
                            std::min<std::uint64_t>(in.size, bytes - at));
            });
        }
        break;
      }
      case Op::Ssy: {
        SimtEntry entry;
        entry.reconv_pc = in.target;
        entry.restore_mask = active;
        warp.simt_stack.push_back(entry);
        break;
      }
      case Op::Bra: {
        LaneMask taken = active;
        if (in.pred != kNoReg) {
            const LaneMask p = warp.pred_mask(in.pred);
            taken = active & (in.neg_pred ? ~p : p);
        }
        warp.branch(in.target, taken, next_pc);
        return result;
      }
      case Op::Bar:
        result.kind = StepKind::Barrier;
        break;
      case Op::Exit:
        warp.status = WarpStatus::Finished;
        result.kind = StepKind::Exited;
        return result;
    }
    warp.pc = next_pc;
    return result;
}

void
WarpInterpreter::apply_mem(WarpState &warp, const MemOp &op,
                           LaneMask suppress_mask)
{
    GpuDevice &dev = driver_.device();
    const PageTable &pt = dev.page_table();
    PhysicalMemory &mem = dev.mem();
    constexpr std::uint64_t kFrame = PhysicalMemory::kFrameSize;
    constexpr PAddr kNoFrame = 1; // never a frame base

    // The lanes of one instruction mostly share a page and a frame:
    // translate once per page and look a frame up once per frame. A
    // lane's whole access follows the translation of its first byte.
    const VAddr page_mask = ~(pt.page_size() - 1);
    VAddr page = 0;
    Translation page_xlat;
    bool have_page = false;
    const auto translate = [&](VAddr vaddr) {
        const VAddr base = vaddr & page_mask;
        if (!have_page || base != page) {
            page_xlat = pt.translate(base, op.is_store);
            page = base;
            have_page = true;
        }
        Translation t = page_xlat;
        t.paddr += vaddr - base;
        return t;
    };
    PAddr frame = kNoFrame;

    if (op.is_store) {
        std::uint8_t *bytes = nullptr;
        // Squashed lanes and failed translations are dropped silently
        // (§5.5.2).
        for_each_lane(op.mask & ~suppress_mask, [&](unsigned lane) {
            const Translation t = translate(op.lane_addr[lane]);
            if (!t.ok)
                return;
            const PAddr off = t.paddr % kFrame;
            if (off + op.size > kFrame) { // straddles two frames
                mem.write(t.paddr, &op.store_val[lane], op.size);
                return;
            }
            if (t.paddr - off != frame) {
                frame = t.paddr - off;
                bytes = mem.frame_bytes(frame);
            }
            store_bytes(bytes + off, &op.store_val[lane], op.size);
        });
        return;
    }

    // Loads: squashed lanes and failed translations read zero.
    const PhysicalMemory &cmem = mem;
    const std::uint8_t *bytes = nullptr;
    std::int64_t *dest = warp.reg_row(op.dest_reg);
    for_each_lane(op.mask, [&](unsigned lane) {
        std::int64_t v = 0;
        const Translation t = (suppress_mask >> lane) & 1
                                  ? Translation{}
                                  : translate(op.lane_addr[lane]);
        if (t.ok) {
            const PAddr off = t.paddr % kFrame;
            if (off + op.size > kFrame) { // straddles two frames
                cmem.read(t.paddr, &v, op.size);
            } else {
                if (t.paddr - off != frame) {
                    frame = t.paddr - off;
                    bytes = cmem.frame_bytes(frame);
                }
                if (bytes != nullptr) // unbacked frames read zero
                    v = load_bytes(bytes + off, op.size);
            }
        }
        dest[lane] = v;
    });
}

} // namespace gpushield
