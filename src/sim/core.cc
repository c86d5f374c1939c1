#include "sim/core.h"

#include <algorithm>
#include <bit>
#include <type_traits>
#include <utility>

#include "common/log.h"
#include "obs/profiler.h"
#include "shield/pointer.h"
#include "sim/lsu.h"

namespace gpushield {

Core::Core(CoreId id, const GpuConfig &cfg, EventQueue &eq,
           MemoryHierarchy &hier)
    : id_(id), cfg_(cfg), eq_(eq), hier_(hier),
      shield_(make_shield_backend(cfg.shield, cfg.lsu_pipeline_slack)),
      slots_(cfg.max_workgroups_per_core),
      eligible_(cfg.max_workgroups_per_core, 0),
      wheel_(kWheelSpan * cfg.max_workgroups_per_core, 0),
      c_issued_(stats_.counter("issued")),
      c_workgroups_started_(stats_.counter("workgroups_started")),
      c_workgroups_finished_(stats_.counter("workgroups_finished"))
{
}

void
Core::attach_kernel(KernelExec *kernel)
{
    dispatch_possible_ = true;
    resident_.push_back(kernel);
    if (kernel->launch->shield_enabled) {
        ShieldKernelDesc desc;
        desc.kernel = kernel->launch->kernel_id;
        desc.secret_key = kernel->launch->secret_key;
        desc.rbt = kernel->launch->rbt.get();
        desc.regions = &kernel->launch->shield_regions;
        shield_->register_kernel(desc);
    }
}

void
Core::detach_kernel(KernelExec *kernel)
{
    dispatch_possible_ = true; // an abort may free slots below
    resident_.erase(std::remove(resident_.begin(), resident_.end(), kernel),
                    resident_.end());
    if (kernel->launch->shield_enabled)
        shield_->deregister_kernel(kernel->launch->kernel_id);
    // Kill any still-live workgroups (kernel aborts).
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        WorkgroupCtx &wg = slots_[s];
        if (wg.live && wg.kernel == kernel) {
            warps_in_use_ -= static_cast<unsigned>(wg.warps.size());
            wg.live = false;
            ++wg.generation; // invalidate in-flight load completions
            --live_workgroups_;
            drop_slot(s);
            if (profiler_ != nullptr)
                profiler_->on_workgroup_end(
                    id_, static_cast<unsigned>(s), eq_.now());
        }
    }
}

unsigned
Core::live_warps(const WorkgroupCtx &wg) const
{
    return static_cast<unsigned>(wg.warps.size()) - wg.warps_finished;
}

void
Core::note_ready(Cycle c)
{
    if (c < ready_hint_)
        ready_hint_ = c;
}

void
Core::recompute_ready_hint(Cycle now)
{
    // The minimum over Ready warps of max(ready_cycle, now + 1): a warp
    // still eligible (it could not issue this cycle) is retried next
    // cycle, and every other Ready warp waits in a wheel bucket or the
    // far list. Blocked/AtBarrier warps lower the hint through
    // note_ready() when they turn Ready.
    if (std::any_of(eligible_.begin(), eligible_.end(),
                    [](std::uint32_t m) { return m != 0; })) {
        ready_hint_ = now + 1;
        return;
    }
    Cycle next = far_min_;
    if (wheel_occupied_ != 0) {
        // Rotate so that bit i stands for cycle now + 1 + i.
        const auto first = static_cast<int>((now + 1) % kWheelSpan);
        next = std::min<Cycle>(
            next, now + 1 + std::countr_zero(std::rotr(wheel_occupied_,
                                                       first)));
    }
    ready_hint_ = next;
}

void
Core::schedule_warp(WorkgroupCtx &wg, WarpState &warp, Cycle due)
{
    warp.ready_cycle = due;
    const auto slot = static_cast<std::uint32_t>(&wg - slots_.data());
    const std::uint32_t bit = std::uint32_t{1} << warp.warp_in_wg();
    if (due <= eq_.now()) {
        eligible_[slot] |= bit;
        return;
    }
    eligible_[slot] &= ~bit;
    // Buckets hold the cycles (drained_, drained_ + kWheelSpan], one
    // bucket per cycle modulo the span.
    if (due - drained_ <= kWheelSpan) {
        const Cycle bucket = due % kWheelSpan;
        wheel_[bucket * slots_.size() + slot] |= bit;
        wheel_occupied_ |= std::uint64_t{1} << bucket;
    } else {
        far_.push_back({due, slot, warp.warp_in_wg()});
        far_min_ = std::min(far_min_, due);
    }
}

void
Core::unschedule_warp(const WorkgroupCtx &wg, const WarpState &warp)
{
    eligible_[static_cast<std::size_t>(&wg - slots_.data())] &=
        ~(std::uint32_t{1} << warp.warp_in_wg());
}

void
Core::drain_ready(Cycle now)
{
    if (now <= drained_)
        return;
    // The buckets of cycles drained_ + 1 .. now, all of them once the
    // clock moved a whole span.
    std::uint64_t due = ~std::uint64_t{0};
    if (now - drained_ < kWheelSpan)
        due = std::rotl((std::uint64_t{1} << (now - drained_)) - 1,
                        static_cast<int>((drained_ + 1) % kWheelSpan));
    const std::size_t n = slots_.size();
    for (std::uint64_t m = wheel_occupied_ & due; m != 0; m &= m - 1) {
        std::uint32_t *bucket =
            &wheel_[static_cast<std::size_t>(std::countr_zero(m)) * n];
        for (std::size_t s = 0; s < n; ++s) {
            eligible_[s] |= bucket[s];
            bucket[s] = 0;
        }
    }
    wheel_occupied_ &= ~due;
    if (far_min_ <= now) {
        far_min_ = kCycleMax;
        std::erase_if(far_, [&](const FarWarp &f) {
            if (f.due > now) {
                far_min_ = std::min(far_min_, f.due);
                return false;
            }
            eligible_[f.slot] |= std::uint32_t{1} << f.warp;
            return true;
        });
    }
    drained_ = now;
}

void
Core::drop_slot(std::size_t slot)
{
    eligible_[slot] = 0;
    const std::size_t n = slots_.size();
    for (std::uint64_t m = wheel_occupied_; m != 0; m &= m - 1) {
        const int b = std::countr_zero(m);
        std::uint32_t *bucket = &wheel_[static_cast<std::size_t>(b) * n];
        bucket[slot] = 0;
        if (std::all_of(bucket, bucket + n,
                        [](std::uint32_t w) { return w == 0; }))
            wheel_occupied_ &= ~(std::uint64_t{1} << b);
    }
    far_min_ = kCycleMax;
    std::erase_if(far_, [&](const FarWarp &f) {
        if (f.slot == slot)
            return true;
        far_min_ = std::min(far_min_, f.due);
        return false;
    });
}

bool
Core::dispatchable(const KernelExec &kernel) const
{
    if (kernel.done || kernel.aborted ||
        kernel.next_wg >= kernel.total_wgs())
        return false;
    if (((kernel.core_mask >> id_) & 1) == 0)
        return false;
    const unsigned warps_needed =
        (kernel.launch->ntid + kWarpSize - 1) / kWarpSize;
    return warps_in_use_ + warps_needed <= cfg_.max_warps_per_core;
}

bool
Core::try_dispatch()
{
    if (!dispatch_possible_ || resident_.empty())
        return false;
    for (std::size_t n = 0; n < resident_.size(); ++n) {
        KernelExec *kernel =
            resident_[(dispatch_rr_ + n) % resident_.size()];
        if (!dispatchable(*kernel))
            continue;
        auto slot = std::find_if(slots_.begin(), slots_.end(),
                                 [](const WorkgroupCtx &wg) {
                                     return !wg.live;
                                 });
        if (slot == slots_.end()) {
            dispatch_possible_ = false;
            return false;
        }
        start_workgroup(kernel, kernel->next_wg++);
        dispatch_rr_ = (dispatch_rr_ + n + 1) % resident_.size();
        return true;
    }
    dispatch_possible_ = false;
    return false;
}

bool
Core::can_dispatch() const
{
    // try_dispatch without the mutation: a dispatch happens iff a slot
    // is free and some kernel is dispatchable (the round-robin cursor
    // picks which kernel, not whether).
    if (!dispatch_possible_ ||
        std::none_of(slots_.begin(), slots_.end(),
                     [](const WorkgroupCtx &wg) { return !wg.live; }))
        return false;
    return std::any_of(resident_.begin(), resident_.end(),
                       [this](const KernelExec *kernel) {
                           return dispatchable(*kernel);
                       });
}

Cycle
Core::next_work_cycle(Cycle from) const
{
    if (can_dispatch())
        return from;
    if (live_workgroups_ == 0)
        return kCycleMax;
    if (ready_hint_ >= kCycleMax)
        return kCycleMax; // every warp waits on an event-queue wakeup
    return std::max(std::max(ready_hint_, issue_busy_until_), from);
}

void
Core::start_workgroup(KernelExec *kernel, std::uint32_t wg_index)
{
    auto slot = std::find_if(slots_.begin(), slots_.end(),
                             [](const WorkgroupCtx &wg) { return !wg.live; });
    if (slot == slots_.end())
        panic("Core: no free workgroup slot");
    const KernelProgram &prog = kernel->launch->program;
    const std::uint32_t ntid = kernel->launch->ntid;
    const unsigned warps = (ntid + kWarpSize - 1) / kWarpSize;
    if (warps > 32)
        throw SimulationError("Core: a workgroup of " +
                              std::to_string(warps) +
                              " warps exceeds the 32-warp scheduler mask");

    WorkgroupCtx &wg = *slot;
    wg.kernel = kernel;
    wg.wg_index = wg_index;
    wg.warps.clear();
    wg.warps_at_barrier = 0;
    wg.warps_finished = 0;
    wg.live = true;
    ++wg.generation;
    wg.warps.reserve(warps);
    for (unsigned w = 0; w < warps; ++w) {
        wg.warps.emplace_back(static_cast<WarpId>(w), wg_index, w, ntid,
                              prog.num_regs, prog.num_preds);
        wg.warps.back().ready_cycle = eq_.now();
        if (!kernel->launch->check_covers.empty())
            wg.warps.back().cover_state.assign(prog.code.size(), 0);
    }
    // Every warp is due now.
    eligible_[static_cast<std::size_t>(slot - slots_.begin())] =
        warps == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << warps) - 1;
    wg.shared_mem.assign(prog.shared_bytes, 0);

    note_ready(eq_.now());
    warps_in_use_ += warps;
    ++live_workgroups_;
    if (!kernel->started) {
        kernel->started = true;
        kernel->start_cycle = eq_.now();
    }
    ++c_workgroups_started_;
    if (profiler_ != nullptr)
        profiler_->on_workgroup_start(
            id_, static_cast<unsigned>(slot - slots_.begin()),
            kernel->launch->kernel_id, wg_index, warps, eq_.now());
}

void
Core::profile_cycles(Cycle from, Cycle n)
{
    using obs::StallCause;
    const Cycle end = from + n;
    const Cycle bubble_end = std::min(issue_busy_until_, bcu_busy_until_);
    const StallCause blocked = hier_.dram_backpressure()
                                   ? StallCause::DramBackpressure
                                   : StallCause::MemPending;
    for (unsigned s = 0; s < slots_.size(); ++s) {
        if (!slots_[s].live)
            continue;
        for (unsigned w = 0; w < slots_[s].warps.size(); ++w) {
            WarpState &warp = slots_[s].warps[w];
            const auto credit = [&](StallCause cause, Cycle cycles) {
                if (cycles > 0)
                    profiler_->on_warp_cycle(id_, s, w, cause, cycles);
            };
            if (std::exchange(warp.profile_issued, false)) {
                credit(StallCause::Issued, n); // a stepped cycle: n == 1
            } else if (warp.status == WarpStatus::Finished) {
                credit(StallCause::NoWork, n);
            } else if (warp.status == WarpStatus::AtBarrier) {
                credit(StallCause::Barrier, n);
            } else if (warp.status == WarpStatus::Blocked) {
                credit(warp.profile_block_refill ? StallCause::RcacheMiss
                                                 : blocked,
                       n);
            } else {
                // Ready: waiting on its own result before ready_cycle,
                // whatever the front end does; then behind an exposed
                // BCU bubble; then front-end structural (issue width
                // exhausted, LSU port occupied, or an instrumentation
                // bubble holding the issue stage).
                const Cycle ready = std::clamp(warp.ready_cycle, from, end);
                const Cycle bubble = std::clamp(bubble_end, ready, end);
                credit(StallCause::Scoreboard, ready - from);
                credit(StallCause::BcuStall, bubble - ready);
                credit(StallCause::LsuBusy, end - bubble);
            }
        }
    }
}

bool
Core::tick()
{
    const bool dispatched = try_dispatch();
    if (live_workgroups_ == 0)
        return dispatched;

    const Cycle now = eq_.now();
    if (now < issue_busy_until_)
        return dispatched; // stalled front-end: no issue this cycle
    if (now < ready_hint_)
        return dispatched; // no warp can issue before the hint cycle

    drain_ready(now);
    unsigned issued = 0;
    // Re-issue from the last-issued warp first, then scan the eligible
    // warps slot by slot in index order. start_workgroup reuses the
    // lowest free slot, so slot order is not age order.
    auto try_warp = [&](int slot_idx, int warp_idx) -> bool {
        if (!issue_one(slots_[slot_idx], slots_[slot_idx].warps[warp_idx]))
            return false;
        greedy_slot_ = slot_idx;
        greedy_warp_ = warp_idx;
        ++issued;
        return true;
    };

    while (issued < cfg_.issue_width) {
        bool progressed = false;
        if (greedy_slot_ >= 0 &&
            ((eligible_[greedy_slot_] >> greedy_warp_) & 1))
            progressed = try_warp(greedy_slot_, greedy_warp_);
        // A failed try changes no warp's status, so each slot's mask
        // snapshot stays exact until an issue ends the scan.
        for (std::size_t s = 0; s < slots_.size() && !progressed; ++s) {
            for (std::uint32_t m = eligible_[s]; m != 0; m &= m - 1) {
                const int w = std::countr_zero(m);
                if (static_cast<int>(s) == greedy_slot_ &&
                    w == greedy_warp_)
                    continue;
                if (try_warp(static_cast<int>(s), w)) {
                    progressed = true;
                    break;
                }
            }
        }
        if (!progressed)
            break;
    }
    recompute_ready_hint(now);
    return issued > 0 || dispatched;
}

bool
Core::issue_one(WorkgroupCtx &wg, WarpState &warp)
{
    const Cycle now = eq_.now();
    KernelExec *kernel = wg.kernel;

    // Peek the next instruction (post-reconvergence) so a busy LSU
    // doesn't waste the issue slot.
    warp.reconverge();
    const KernelProgram &prog = kernel->launch->program;
    const Instr &next = prog.code[warp.pc];
    if (is_global_mem(next.op) && now < lsu_busy_until_)
        return false;

    // Pre-execution hook: source registers still hold their inputs, so
    // a provenance-tracking observer can sample them before a Ld/Mov
    // overwrites a destination that aliases an address register.
    if (lane_obs_ != nullptr)
        lane_obs_->on_step(id_, kernel->launch->kernel_id, warp, next);
    const StepResult result =
        kernel->interp->step(warp, wg.shared_mem);
    ++kernel->hot.instructions;
    ++c_issued_;
    if (profiler_ != nullptr)
        warp.profile_issued = true;

    switch (result.kind) {
      case StepKind::Alu:
        schedule_warp(wg, warp, now + cfg_.alu_latency);
        break;
      case StepKind::Sfu:
        schedule_warp(wg, warp, now + cfg_.sfu_latency);
        break;
      case StepKind::SharedMem:
        ++kernel->hot.shared_accesses;
        schedule_warp(wg, warp, now + cfg_.shared_latency);
        break;
      case StepKind::Malloc: {
        // Device-side malloc serializes allocator metadata updates
        // across the whole GPU (footnote 2's contention).
        kernel->hot.mallocs += result.malloc_count;
        kernel->malloc_busy_until =
            std::max(kernel->malloc_busy_until, now) +
            static_cast<Cycle>(result.malloc_count) *
                cfg_.malloc_serialize_cycles;
        schedule_warp(wg, warp, kernel->malloc_busy_until);
        break;
      }
      case StepKind::Barrier:
        warp.status = WarpStatus::AtBarrier;
        unschedule_warp(wg, warp);
        ++wg.warps_at_barrier;
        if (wg.warps_at_barrier >= live_warps(wg))
            release_barrier(wg);
        break;
      case StepKind::Exited:
        unschedule_warp(wg, warp);
        ++wg.warps_finished;
        finish_warp(wg);
        break;
      case StepKind::GlobalMem:
        handle_mem(wg, warp, result.mem);
        break;
    }
    return true;
}

void
Core::release_barrier(WorkgroupCtx &wg)
{
    const Cycle now = eq_.now();
    for (WarpState &w : wg.warps) {
        if (w.status == WarpStatus::AtBarrier) {
            w.status = WarpStatus::Ready;
            schedule_warp(wg, w, now + 1);
        }
    }
    wg.warps_at_barrier = 0;
}

void
Core::finish_warp(WorkgroupCtx &wg)
{
    if (wg.warps_finished < wg.warps.size())
        return;
    wg.live = false;
    --live_workgroups_;
    warps_in_use_ -= static_cast<unsigned>(wg.warps.size());
    dispatch_possible_ = true; // a slot and warp budget just freed up
    if (profiler_ != nullptr)
        profiler_->on_workgroup_end(
            id_, static_cast<unsigned>(&wg - slots_.data()), eq_.now());
    KernelExec *kernel = wg.kernel;
    ++kernel->wgs_done;
    ++c_workgroups_finished_;
    if (kernel->wgs_done >= kernel->total_wgs() && !kernel->done) {
        kernel->done = true;
        kernel->end_cycle = eq_.now();
    }
}

void
Core::abort_kernel(KernelExec *kernel)
{
    // Fig. 4 case 3: an access crossing into an unmapped page aborts the
    // kernel with an "illegal memory access" error.
    kernel->aborted = true;
    kernel->done = true;
    kernel->end_cycle = eq_.now();
    kernel->stats.add("translation_faults");
}

void
Core::handle_mem(WorkgroupCtx &wg, WarpState &warp, const MemOp &op)
{
    const Cycle now = eq_.now();
    KernelExec *kernel = wg.kernel;
    LaunchState &launch = *kernel->launch;
    KernelHotCounters &hot = kernel->hot;
    if (op.is_store)
        ++hot.stores;
    else
        ++hot.loads;

    coalesce_into(op, op.mask, cfg_.mem.l1.line_size, lines_scratch_);
    const std::vector<VAddr> &lines = lines_scratch_;
    hot.transactions += lines.size();

    // Software-tool instrumentation (baseline models) occupies issue
    // slots and adds shadow-metadata traffic.
    if (kernel->instr_extra_cycles_per_mem > 0) {
        issue_busy_until_ =
            std::max(issue_busy_until_, now) +
            kernel->instr_extra_cycles_per_mem;
        hot.instr_overhead_cycles += kernel->instr_extra_cycles_per_mem;
    }

    const bool is_load = !op.is_store;

    // --- Bounds check (BCU, runs alongside the D-TLB/D-cache tag
    // stage; a failing check squashes the offending lanes before
    // commit). Core-local: RCache, counters and the violation log live
    // in this core's BCU; the shared RBT is only read. ------------------
    LaneMask suppress_mask = 0;
    const bool shield = launch.shield_enabled;
    const bool dcache_probe_hit =
        !lines.empty() && hier_.l1(id_).probe(lines.front());
    MemCheckEvent ev;
    bool abort_now = false;
    bool refill = false;
    PAddr refill_paddr = 0;
    if (shield && op.instr->check == CheckMode::StaticSafe) {
        ++hot.checks_elided;
        ev.elided = true;
    } else if (shield &&
               (op.has_bt ||
                ptr_class(op.pointer) != PtrClass::Unprotected)) {
        // Check-opt (LaunchConfig::optimize_checks): a cover row lets
        // this warp skip the per-access check once its cover probe has
        // passed. The probe itself runs through the normal BCU path on
        // the row's first execution; a failed probe pins the row (and
        // its elided dependents) to baseline checking forever, so the
        // verdict stream is never weaker than without the pass.
        const LaunchState::CheckCover *cover = nullptr;
        if (!launch.check_covers.empty()) {
            const auto itc = launch.check_covers.find(op.pc);
            if (itc != launch.check_covers.end())
                cover = &itc->second;
        }
        bool covered = false;
        bool probe_now = false;
        int probe_pc = -1;
        if (cover != nullptr) {
            probe_pc = cover->kind == CheckKind::Elided ? cover->cover_pc
                                                        : cover->pc;
            const std::uint8_t cst =
                warp.cover_state[static_cast<std::size_t>(probe_pc)];
            if (cst == 1) {
                covered = true;
            } else if (cst == 0 && cover->kind != CheckKind::Elided) {
                probe_now = true;
            }
        }
        if (covered) {
            ++hot.checks_covered;
            ev.covered = true;
        } else {
            BcuRequest req;
            req.kernel = launch.kernel_id;
            req.tenant = launch.tenant;
            req.core = id_;
            req.warp = warp.id;
            req.pc = op.pc;
            req.pointer = op.pointer;
            req.min_addr = op.min_addr;
            req.max_end = op.max_end;
            req.is_store = op.is_store;
            req.num_transactions = static_cast<unsigned>(lines.size());
            req.dcache_hit = dcache_probe_hit;
            req.has_base_offset = op.has_base_offset;
            req.min_offset = op.min_offset;
            req.max_offset_end = op.max_offset_end;
            req.has_bt_bounds = op.has_bt;
            req.bt_bounds = op.bt_bounds;
            req.silent = op.instr->check == CheckMode::GuardReplaced;

            // Applies a check's timing: an exposed pipeline bubble
            // stalls the LSU (and the issue stage behind it), and an
            // RCache miss queues an RBT refill.
            const auto apply_check = [&](const BcuResponse &r) {
                if (r.stall_cycles > 0) {
                    issue_busy_until_ =
                        std::max(issue_busy_until_, now + r.stall_cycles);
                    lsu_busy_until_ =
                        std::max(lsu_busy_until_, now + r.stall_cycles);
                    bcu_busy_until_ =
                        std::max(bcu_busy_until_, now + r.stall_cycles);
                    hot.bcu_stall_cycles += r.stall_cycles;
                }
                if (r.refill) {
                    ++hot.rbt_refills;
                    refill = true;
                    refill_paddr = r.refill_paddr;
                }
            };

            bool probe_passed = false;
            if (probe_now) {
                // The probe checks the whole statically-derived hull (a
                // store probe when any covered row stores). It stalls
                // and refills like a normal check — it *is* this
                // execution's check when it passes.
                BcuRequest preq = req;
                preq.min_addr = cover->va_lo;
                preq.max_end = cover->va_end;
                preq.is_store = cover->is_store || op.is_store;
                preq.min_offset = cover->rel_lo;
                preq.max_offset_end = cover->rel_end;
                preq.silent = false;
                preq.cover_probe = true;
                const BcuResponse presp = shield_->check(preq);
                ++hot.cover_probes;
                apply_check(presp);
                std::uint8_t &probe_state =
                    warp.cover_state[static_cast<std::size_t>(probe_pc)];
                if (presp.checked && !presp.violation) {
                    probe_state = 1;
                    probe_passed = true;
                    ++hot.checks;
                    ev.checked = true;
                    ev.cover_probe = true;
                } else {
                    probe_state = 2;
                    ++hot.cover_probe_fails;
                }
            }
            if (!probe_passed) {
                const BcuResponse resp = shield_->check(req);
                ++hot.checks;
                apply_check(resp);
                if (resp.violation) {
                    // Detection is warp-granular; squashing is
                    // lane-granular when the violated region is known.
                    if (resp.region_known) {
                        for_each_lane(op.mask, [&](unsigned lane) {
                            const VAddr lo = op.lane_addr[lane];
                            if (lo < resp.region_base ||
                                lo + op.size > resp.region_end)
                                suppress_mask |= LaneMask{1} << lane;
                        });
                        if (suppress_mask == 0)
                            suppress_mask = op.mask; // defensive: squash all
                    } else {
                        suppress_mask = op.mask;
                    }
                    if (!req.silent) {
                        ++hot.violations;
                        // §5.5.2: precise-exception GPUs raise a fault at
                        // the offending instruction instead of logging.
                        // Deferred past the lane-observer hook below.
                        abort_now = cfg_.precise_exceptions;
                    } else {
                        hot.guard_suppressed_lanes +=
                            static_cast<std::uint64_t>(
                                std::popcount(suppress_mask));
                    }
                }
                ev.checked = true;
                ev.violation = resp.violation;
                ev.silent = req.silent;
                ev.kind = resp.kind;
            }
        }
    } else if (shield) {
        ++hot.checks_skipped_unprotected;
        ev.skipped_unprotected = true;
    }

    if (lane_obs_ != nullptr) {
        ev.kernel = launch.kernel_id;
        ev.core = id_;
        ev.warp = warp.id;
        ev.wg_index = warp.wg_index();
        ev.warp_in_wg = warp.warp_in_wg();
        ev.op = &op;
        ev.suppress_mask = suppress_mask;
        lane_obs_->on_mem_check(ev);
    }

    // The verdict is in: apply the effects — RBT refill, abort,
    // traffic, functional write — then settle the warp's timing. A load
    // counts its completions in a PendingLoad entry; the slot
    // generation guards against completions outliving an aborted
    // kernel's (reused) slot. Completion events carry latencies >= 1
    // cycle, so nothing fires before this function returns.
    const std::uint32_t load = is_load ? new_pending_load(wg, warp) : 0;
    const auto on_done = [this, load] { complete_load(load); };
    static_assert(sizeof(on_done) <= 16 &&
                      std::is_trivially_copyable_v<decltype(on_done)>,
                  "fits std::function's inline buffer");
    // Frees the entry of a load that scheduled no completion.
    const auto drop_idle_load = [&] {
        if (is_load && pending_loads_[load].remaining == 0)
            free_loads_.push_back(load);
    };

    if (refill) {
        if (is_load) {
            ++pending_loads_[load].remaining;
            hier_.access_physical(refill_paddr, on_done);
        } else {
            hier_.access_physical(refill_paddr, [] {});
        }
    }
    // A precise exception or a translation fault aborts the kernel and
    // leaves the warp and the LSU timing untouched.
    if (abort_now) {
        drop_idle_load();
        abort_kernel(kernel);
        return;
    }

    // --- Memory traffic (squashed entirely when every lane faults;
    // partially-squashed warps only fetch the surviving lanes' lines) -
    const bool fully_suppressed = suppress_mask == op.mask;
    const std::vector<VAddr> *live = &lines;
    if (suppress_mask != 0 && !fully_suppressed) {
        coalesce_into(op, op.mask & ~suppress_mask, cfg_.mem.l1.line_size,
                      live_lines_scratch_);
        live = &live_lines_scratch_;
    }
    if (!fully_suppressed) {
        for (const VAddr line : *live) {
            const AccessIssue issue = hier_.access(
                id_, line, op.is_store,
                is_load ? MemoryHierarchy::Callback(on_done)
                        : MemoryHierarchy::Callback([] {}));
            if (issue.translation_fault || issue.permission_fault) {
                drop_idle_load();
                abort_kernel(kernel);
                return;
            }
            if (is_load)
                ++pending_loads_[load].remaining;
        }
        // Shadow-metadata traffic for instrumented baselines. Shadow
        // pages are tool-managed and physically addressed here.
        for (unsigned x = 0; x < kernel->instr_extra_transactions; ++x) {
            const PAddr shadow = 0x0000'F000'0000ull +
                                 (live->empty()
                                      ? op.min_addr % 4096
                                      : live->front() % 4096) +
                                 static_cast<PAddr>(x) * kLineSize;
            hier_.access_physical(shadow, [] {});
        }
    }

    // Functional effect (after the verdict so violations suppress).
    kernel->interp->apply_mem(warp, op, suppress_mask);

    // Timing: loads block until data (and any RBT refill) returns;
    // stores retire through the store path next cycle.
    if (is_load) {
        if (pending_loads_[load].remaining > 0) {
            warp.status = WarpStatus::Blocked;
            unschedule_warp(wg, warp);
            warp.profile_block_refill = refill;
        } else {
            drop_idle_load();
            schedule_warp(wg, warp, now + cfg_.mem.l1_latency);
        }
    } else {
        schedule_warp(wg, warp, now + 1);
    }

    // The LSU accepts one memory instruction per cycle; additional
    // coalesced transactions occupy it longer.
    lsu_busy_until_ = std::max(lsu_busy_until_, now + lines.size());
}

std::uint32_t
Core::new_pending_load(const WorkgroupCtx &wg, const WarpState &warp)
{
    std::uint32_t idx;
    if (free_loads_.empty()) {
        idx = static_cast<std::uint32_t>(pending_loads_.size());
        pending_loads_.emplace_back();
    } else {
        idx = free_loads_.back();
        free_loads_.pop_back();
    }
    pending_loads_[idx] = PendingLoad{
        0, wg.generation, static_cast<std::uint32_t>(&wg - slots_.data()),
        warp.warp_in_wg()};
    return idx;
}

void
Core::complete_load(std::uint32_t idx)
{
    PendingLoad &load = pending_loads_[idx];
    if (--load.remaining != 0)
        return;
    free_loads_.push_back(idx);
    WorkgroupCtx &wg = slots_[load.slot];
    if (wg.generation != load.generation)
        return;
    WarpState &warp = wg.warps[load.warp];
    warp.status = WarpStatus::Ready;
    warp.profile_block_refill = false;
    schedule_warp(wg, warp, eq_.now());
    note_ready(warp.ready_cycle);
}

} // namespace gpushield
