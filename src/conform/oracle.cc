#include "conform/oracle.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "common/log.h"
#include "sim/interp.h"
#include "sim/warp.h"

namespace gpushield::conform {

namespace {

/** Provenance sentinel: derivation chain left the tracked set. */
constexpr std::int16_t kUnknown = -1;

const char *
kind_name(Finding::Kind kind)
{
    switch (kind) {
      case Finding::Kind::FalseNegative: return "FALSE-NEGATIVE";
      case Finding::Kind::FalsePositive: return "false-positive";
      case Finding::Kind::UnsuppressedLane: return "UNSUPPRESSED-LANE";
    }
    return "?";
}

} // namespace

std::string
Finding::to_string() const
{
    std::ostringstream os;
    os << kind_name(kind) << " kernel=" << kernel << " pc=" << pc
       << (is_store ? " st" : " ld") << " addr=0x" << std::hex << addr
       << std::dec << " region=" << region;
    return os.str();
}

void
LaneOracle::on_launch(const LaunchState &state)
{
    KernelInfo ki;
    ki.num_regs = state.program.num_regs;
    ki.arg_region.assign(state.program.args.size(), kUnknown);
    ki.local_region.assign(state.program.locals.size(), kUnknown);
    ki.backend = state.shield_backend;
    ki.shield_regions = state.shield_regions;
    const bool armor = state.shield_backend == ShieldBackendKind::Armor;

    // Armor rounds every metadata extent up to the granule, so lanes in
    // the rounding slop are design-covered there — the Armor analogue
    // of Type 3 power-of-two padding. Returns the raw RBT entry so
    // callers can still see the exact extent.
    const auto cover_from_rbt = [&](RegionInfo &r, BaseRef ref) -> Bounds {
        Bounds b{};
        const auto it = state.id_map.find(ref);
        if (it == state.id_map.end())
            return b;
        b = state.rbt->get(it->second);
        if (!b.valid)
            return b;
        r.cover_base = b.base_addr;
        r.cover_end =
            b.base_addr +
            (armor ? align_up(b.size, std::uint64_t{kArmorGranule})
                   : b.size);
        r.has_cover = true;
        return b;
    };

    std::size_t ptr_order = 0;
    for (std::size_t a = 0; a < state.program.args.size(); ++a) {
        const KernelArgSpec &spec = state.program.args[a];
        if (!spec.is_pointer)
            continue;
        RegionInfo r;
        r.name = spec.name;
        if (ptr_order < state.bound_buffers.size()) {
            const VaRegion &vr = driver_.region(
                BufferHandle{state.bound_buffers[ptr_order]});
            r.true_base = vr.base;
            r.true_end = vr.base + vr.size;
            r.read_only = vr.read_only;
        }
        const std::uint64_t val = state.arg_values[a];
        r.cls = ptr_class(val);
        switch (r.cls) {
          case PtrClass::TaggedId:
            cover_from_rbt(r, BaseRef{BaseKind::Arg, static_cast<int>(a)});
            break;
          case PtrClass::SizedWindow: {
            const VAddr base = ptr_addr(val);
            r.cover_base = base;
            r.cover_end = base + (std::uint64_t{1} << ptr_field(val));
            r.has_cover = true;
            break;
          }
          case PtrClass::Unprotected:
            break;
        }
        const int idx = static_cast<int>(ki.regions.size());
        ki.arg_region[a] = idx;
        ki.bt_region.push_back(idx);
        ki.regions.push_back(std::move(r));
        ++ptr_order;
    }

    for (std::size_t l = 0; l < state.program.locals.size(); ++l) {
        RegionInfo r;
        r.name = "local:" + state.program.locals[l].name;
        r.cls = ptr_class(state.local_bases[l]);
        // The oracle's truth for a local is its whole allocation: the
        // simulator does not model per-thread local isolation, so the
        // RBT entry *is* the exact extent.
        const Bounds b =
            cover_from_rbt(r, BaseRef{BaseKind::Local, static_cast<int>(l)});
        r.true_base = b.base_addr;
        r.true_end = b.base_addr + b.size;
        if (r.cls == PtrClass::SizedWindow) {
            const VAddr base = ptr_addr(state.local_bases[l]);
            r.cover_base = base;
            r.cover_end =
                base + (std::uint64_t{1}
                        << ptr_field(state.local_bases[l]));
            r.has_cover = true;
        }
        ki.local_region[l] = static_cast<int>(ki.regions.size());
        ki.regions.push_back(std::move(r));
    }

    if (state.heap_bytes > 0) {
        RegionInfo r;
        r.name = "heap";
        r.cls = ptr_class(state.heap_base_tagged);
        r.true_base = state.heap_base;
        r.true_end = state.heap_base + state.heap_bytes;
        cover_from_rbt(r, BaseRef{BaseKind::Heap, -1});
        if (!r.has_cover) {
            r.cover_base = r.true_base;
            r.cover_end = r.true_end;
            r.has_cover = r.cls != PtrClass::Unprotected;
        }
        ki.heap_region = static_cast<int>(ki.regions.size());
        ki.regions.push_back(std::move(r));
    }

    kernels_[state.kernel_id] = std::move(ki);
}

std::uint64_t
LaneOracle::shadow_key(KernelId kernel, std::uint32_t wg,
                       std::uint32_t warp_in_wg)
{
    return (static_cast<std::uint64_t>(kernel) << 48) |
           (static_cast<std::uint64_t>(wg) << 16) | warp_in_wg;
}

LaneOracle::Shadow &
LaneOracle::shadow(KernelId kernel, std::uint32_t wg,
                   std::uint32_t warp_in_wg, int num_regs)
{
    Shadow &sh = shadows_[shadow_key(kernel, wg, warp_in_wg)];
    if (sh.empty())
        sh.assign(static_cast<std::size_t>(num_regs) * kWarpSize, kUnknown);
    return sh;
}

void
LaneOracle::on_step(CoreId, KernelId kernel, const WarpState &warp,
                    const Instr &in)
{
    const auto kit = kernels_.find(kernel);
    if (kit == kernels_.end())
        return;
    const KernelInfo &ki = kit->second;
    Shadow &sh = shadow(kernel, warp.wg_index(), warp.warp_in_wg(),
                        ki.num_regs);
    const LaneMask active = warp.active;

    const auto at = [&](unsigned lane, int r) -> std::int16_t & {
        return sh[static_cast<std::size_t>(lane) * ki.num_regs + r];
    };
    const auto set_all = [&](int rd, std::int16_t v) {
        if (rd == kNoReg)
            return;
        for (unsigned lane = 0; lane < kWarpSize; ++lane)
            if ((active >> lane) & 1)
                at(lane, rd) = v;
    };

    // Capture the base register's provenance for the upcoming bounds
    // check before the destination (possibly the same register) is
    // invalidated below. The core's mem-check follows synchronously.
    if (is_global_mem(in.op)) {
        pending_.instr = &in;
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (((active >> lane) & 1) == 0) {
                pending_.prov[lane] = kUnknown;
                continue;
            }
            if (in.bt_index >= 0)
                pending_.prov[lane] =
                    static_cast<std::size_t>(in.bt_index) <
                            ki.bt_region.size()
                        ? static_cast<std::int16_t>(
                              ki.bt_region[in.bt_index])
                        : kUnknown;
            else
                pending_.prov[lane] =
                    in.ra != kNoReg ? at(lane, in.ra) : kUnknown;
        }
    }

    switch (in.op) {
      case Op::Mov:
        if (in.ra != kNoReg) {
            for (unsigned lane = 0; lane < kWarpSize; ++lane)
                if ((active >> lane) & 1)
                    at(lane, in.rd) = at(lane, in.ra);
        } else {
            set_all(in.rd, kUnknown);
        }
        break;
      case Op::Gep:
        // rd = ra + rb*scale + disp: address formation keeps the base's
        // provenance.
        for (unsigned lane = 0; lane < kWarpSize; ++lane)
            if ((active >> lane) & 1)
                at(lane, in.rd) = at(lane, in.ra);
        break;
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Divi:
      case Op::Rem:
      case Op::Min:
      case Op::Max:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Shl:
      case Op::Shr:
        // Pointer +/- integer keeps the pointer's provenance; anything
        // mixing two tracked pointers (or neither) becomes unknown.
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (((active >> lane) & 1) == 0)
                continue;
            const std::int16_t pa = at(lane, in.ra);
            const std::int16_t pb =
                in.rb != kNoReg ? at(lane, in.rb) : kUnknown;
            at(lane, in.rd) = pa != kUnknown && pb == kUnknown ? pa
                              : pa == kUnknown && pb != kUnknown
                                  ? pb
                                  : kUnknown;
        }
        break;
      case Op::Mad:
        // rd = ra*rb + rc: only the addend can carry a base pointer.
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (((active >> lane) & 1) == 0)
                continue;
            const bool mul_unknown = at(lane, in.ra) == kUnknown &&
                                     at(lane, in.rb) == kUnknown;
            at(lane, in.rd) =
                mul_unknown ? at(lane, in.rc) : kUnknown;
        }
        break;
      case Op::Ldarg: {
        const std::int16_t prov =
            static_cast<std::size_t>(in.arg_index) < ki.arg_region.size()
                ? static_cast<std::int16_t>(ki.arg_region[in.arg_index])
                : kUnknown;
        set_all(in.rd, prov);
        break;
      }
      case Op::Ldloc: {
        const std::int16_t prov =
            static_cast<std::size_t>(in.arg_index) <
                    ki.local_region.size()
                ? static_cast<std::int16_t>(ki.local_region[in.arg_index])
                : kUnknown;
        set_all(in.rd, prov);
        break;
      }
      case Op::Malloc:
        set_all(in.rd, static_cast<std::int16_t>(ki.heap_region));
        break;
      case Op::Sreg:
      case Op::Ld:   //!< loaded data is never a tracked pointer
      case Op::Lds:
        set_all(in.rd, kUnknown);
        break;
      default:
        break; // Setp/St/Sts/control flow: no register destination
    }
}

int
LaneOracle::resolve_by_address(const KernelInfo &ki, VAddr addr) const
{
    for (std::size_t i = 0; i < ki.regions.size(); ++i)
        if (addr >= ki.regions[i].true_base &&
            addr < ki.regions[i].true_end)
            return static_cast<int>(i);
    return kUnknown;
}

void
LaneOracle::note(Finding::Kind kind, const MemCheckEvent &ev, VAddr addr,
                 const std::string &region)
{
    if (findings_.size() >= kMaxFindings)
        return;
    Finding f;
    f.kind = kind;
    f.kernel = ev.kernel;
    f.pc = ev.op->pc;
    f.is_store = ev.op->is_store;
    f.addr = addr;
    f.region = region;
    findings_.push_back(std::move(f));
}

void
LaneOracle::on_mem_check(const MemCheckEvent &ev)
{
    const auto kit = kernels_.find(ev.kernel);
    if (kit == kernels_.end() || ev.op == nullptr)
        return;
    const KernelInfo &ki = kit->second;
    const MemOp &op = *ev.op;

    ++counters_.checks;
    if (ev.checked)
        ++counters_.checked;
    if (ev.elided)
        ++counters_.elided;
    if (ev.skipped_unprotected)
        ++counters_.skipped;

    const bool pending_matches = pending_.instr == op.instr;

    // Cover the *hardware* compares this particular access against,
    // when it is carried by the access itself rather than the RBT.
    bool event_cover = false;
    VAddr cov_lo = 0, cov_hi = 0;
    if (op.has_bt) {
        event_cover = op.bt_bounds.valid;
        cov_lo = op.bt_bounds.base_addr;
        cov_hi = op.bt_bounds.base_addr + op.bt_bounds.size;
    } else if (op.has_base_offset &&
               ptr_class(op.pointer) == PtrClass::SizedWindow) {
        event_cover = true;
        cov_lo = ptr_addr(op.pointer);
        cov_hi = cov_lo + (std::uint64_t{1} << ptr_field(op.pointer));
    }

    // Per-lane ground truth against the provenance region. A lane is
    // "covered" when its range violation falls inside the widened
    // hardware cover (Type 3 power-of-two padding, §6.3 merged hulls):
    // undetectable by the check *by design* — padding canaries and
    // merge accounting own those, so they are not false negatives.
    LaneMask truth_oob = 0;
    LaneMask design_covered = 0;
    VAddr first_oob_addr = 0;
    int first_oob_region = kUnknown;
    bool have_first = false;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (((op.mask >> lane) & 1) == 0)
            continue;
        ++counters_.lanes;
        const VAddr lo = op.lane_addr[lane];
        const VAddr hi = lo + op.size;
        int region = pending_matches ? pending_.prov[lane] : kUnknown;
        if (region == kUnknown) {
            region = resolve_by_address(ki, lo);
            ++counters_.unknown_provenance_lanes;
        }
        bool range_oob;
        bool ro_viol = false;
        if (region == kUnknown) {
            range_oob = true; // outside every region the kernel may touch
        } else {
            const RegionInfo &r = ki.regions[region];
            range_oob = lo < r.true_base || hi > r.true_end;
            ro_viol = !range_oob && op.is_store && r.read_only;
        }
        if (range_oob || ro_viol) {
            truth_oob |= LaneMask{1} << lane;
            if (!have_first) {
                first_oob_addr = lo;
                first_oob_region = region;
                have_first = true;
            }
            // Only range violations can hide inside a widened cover;
            // a read-only write in range must always be flagged.
            if (range_oob) {
                bool covered = false;
                if (event_cover)
                    covered = lo >= cov_lo && hi <= cov_hi;
                else if (region != kUnknown &&
                         ki.regions[region].has_cover)
                    covered = lo >= ki.regions[region].cover_base &&
                              hi <= ki.regions[region].cover_end;
                if (covered) {
                    design_covered |= LaneMask{1} << lane;
                    ++counters_.padding_lanes;
                }
            }
        }
    }
    pending_.instr = nullptr;

    const LaneMask hard_oob = truth_oob & ~design_covered;
    const auto oob_count =
        static_cast<std::uint64_t>(std::popcount(truth_oob));
    const auto hard_count =
        static_cast<std::uint64_t>(std::popcount(hard_oob));
    const std::string oob_region_name =
        first_oob_region != kUnknown
            ? ki.regions[first_oob_region].name
            : std::string("?");

    if (ev.silent) {
        // §6.4 guard replacement: squashing the formerly-guarded lanes
        // is the *intended* behaviour, not a disagreement.
        ++counters_.silent_checks;
        counters_.silent_squashed_lanes +=
            std::popcount(ev.suppress_mask);
        return;
    }

    counters_.truth_violation_lanes += oob_count;

    if (ev.checked && ev.violation) {
        if (oob_count > 0) {
            ++counters_.agree_violation;
            const LaneMask escaped = truth_oob & ~ev.suppress_mask;
            if (escaped != 0) {
                counters_.unsuppressed_oob_lanes +=
                    std::popcount(escaped);
                note(Finding::Kind::UnsuppressedLane, ev,
                     op.lane_addr[std::countr_zero(escaped)],
                     oob_region_name);
            }
            counters_.collateral_squashed_lanes +=
                std::popcount(ev.suppress_mask & op.mask & ~truth_oob);
        } else {
            ++counters_.fp_checks;
            counters_.fp_lanes +=
                std::popcount(ev.suppress_mask & op.mask);
            note(Finding::Kind::FalsePositive, ev, op.min_addr,
                 oob_region_name);
        }
        return;
    }

    if (hard_count == 0) {
        // Either no truth violation at all, or every violating lane is
        // hidden inside the widened cover — the check behaved exactly
        // as designed (padding_lanes records the by-design misses).
        ++counters_.agree_clean;
        return;
    }

    // A truth-violating lane with no flag: before declaring a hard
    // false negative, ask the hardware point that ran the check whether
    // the miss falls into one of its *documented* weakness classes.
    // Region: the Method B dereference of a Type 3 pointer is checked
    // only for window-boundary crossings ("type3_weak"). Armor: a
    // same-kernel region sharing the pointer's masked plaintext tag can
    // absorb the access ("tag_collision"). Both are properties of the
    // check's design, not shield bugs, so they are accounted separately.
    if (ev.checked) {
        VAddr lo = ~VAddr{0};
        VAddr hi = 0;
        for (unsigned lane = 0; lane < kWarpSize; ++lane) {
            if (((hard_oob >> lane) & 1) == 0)
                continue;
            lo = std::min(lo, op.lane_addr[lane]);
            hi = std::max(hi, op.lane_addr[lane] + op.size);
        }
        ShieldMissContext ctx;
        ctx.pointer = op.pointer;
        ctx.has_bt = op.has_bt;
        ctx.has_base_offset = op.has_base_offset;
        ctx.kernel = ev.kernel;
        ctx.min_addr = lo;
        ctx.max_end = hi;
        ctx.regions = &ki.shield_regions;
        const char *label = classifier(ki.backend).weakness_label(ctx);
        if (label != nullptr) {
            if (std::strcmp(label, "tag_collision") == 0) {
                ++counters_.armor_collision_checks;
                counters_.armor_collision_lanes += hard_count;
            } else {
                ++counters_.type3_weak_checks;
                counters_.type3_weak_lanes += hard_count;
            }
            return;
        }
    }

    ++counters_.fn_checks;
    counters_.fn_lanes += hard_count;
    note(Finding::Kind::FalseNegative, ev, first_oob_addr,
         oob_region_name);
}

ShieldBackend &
LaneOracle::classifier(ShieldBackendKind kind)
{
    auto &slot = classifiers_[static_cast<std::size_t>(kind)];
    if (slot == nullptr) {
        ShieldConfig cfg;
        cfg.backend = kind;
        slot = make_shield_backend(cfg, /*pipeline_slack=*/0);
    }
    return *slot;
}

bool
LaneOracle::clean() const
{
    return counters_.fn_checks == 0 &&
           counters_.unsuppressed_oob_lanes == 0 &&
           counters_.truth_violation_lanes == 0 &&
           counters_.type3_weak_lanes == 0;
}

StatSet
LaneOracle::to_statset() const
{
    StatSet s;
    s.set("checks", counters_.checks);
    s.set("checked", counters_.checked);
    s.set("elided", counters_.elided);
    s.set("skipped", counters_.skipped);
    s.set("lanes", counters_.lanes);
    s.set("agree_clean", counters_.agree_clean);
    s.set("agree_violation", counters_.agree_violation);
    s.set("fp_checks", counters_.fp_checks);
    s.set("fp_lanes", counters_.fp_lanes);
    s.set("fn_checks", counters_.fn_checks);
    s.set("fn_lanes", counters_.fn_lanes);
    s.set("truth_violation_lanes", counters_.truth_violation_lanes);
    s.set("unsuppressed_oob_lanes", counters_.unsuppressed_oob_lanes);
    s.set("collateral_squashed_lanes",
          counters_.collateral_squashed_lanes);
    s.set("padding_lanes", counters_.padding_lanes);
    s.set("type3_weak_checks", counters_.type3_weak_checks);
    s.set("type3_weak_lanes", counters_.type3_weak_lanes);
    s.set("armor_collision_checks", counters_.armor_collision_checks);
    s.set("armor_collision_lanes", counters_.armor_collision_lanes);
    s.set("silent_checks", counters_.silent_checks);
    s.set("silent_squashed_lanes", counters_.silent_squashed_lanes);
    s.set("unknown_provenance_lanes",
          counters_.unknown_provenance_lanes);
    return s;
}

std::string
LaneOracle::report() const
{
    std::ostringstream os;
    const ConformCounters &c = counters_;
    os << "conform: checks=" << c.checks << " (checked=" << c.checked
       << " elided=" << c.elided << " skipped=" << c.skipped
       << ") lanes=" << c.lanes << "\n"
       << "  agree: clean=" << c.agree_clean
       << " violation=" << c.agree_violation << "\n"
       << "  false-positive: checks=" << c.fp_checks
       << " squashed-in-bounds-lanes=" << c.fp_lanes << "\n"
       << "  false-negative: checks=" << c.fn_checks
       << " lanes=" << c.fn_lanes << "\n"
       << "  truth-oob-lanes=" << c.truth_violation_lanes
       << " unsuppressed=" << c.unsuppressed_oob_lanes
       << " collateral-squash=" << c.collateral_squashed_lanes
       << " padding=" << c.padding_lanes << "\n"
       << "  type3-weak: checks=" << c.type3_weak_checks
       << " lanes=" << c.type3_weak_lanes
       << "  armor-collision: checks=" << c.armor_collision_checks
       << " lanes=" << c.armor_collision_lanes
       << "  silent: checks=" << c.silent_checks
       << " lanes=" << c.silent_squashed_lanes << "\n";
    for (const Finding &f : findings_)
        os << "  " << f.to_string() << "\n";
    return os.str();
}

} // namespace gpushield::conform
