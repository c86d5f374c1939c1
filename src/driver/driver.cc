#include "driver/driver.h"

#include <algorithm>
#include <stdexcept>

#include "common/bitutil.h"
#include "common/log.h"
#include "shield/cipher.h"
#include "shield/pointer.h"

namespace gpushield {

namespace {

// Device virtual/physical address map. Each allocator owns one window
// and refuses an allocation that would cross its end, so no virtual
// mapping reaches another window or the RBT's physical window: kernels
// cannot touch bounds metadata (§5.4, §6.1). Every physical base lies
// 512 MiB past a multiple of 1 GiB, and DRAM channel, DRAM bank and L2
// set read only an address's low 30 bits.
struct Window
{
    VAddr va;
    PAddr pa;
    std::uint64_t bytes;
};
constexpr std::uint64_t kGiB = std::uint64_t{1} << 30;
constexpr Window kGlobal{0x0020'0000'0000ull, 0x0004'E000'0000ull, 16 * kGiB};
constexpr Window kLocal{0x0060'0000'0000ull, 0x0000'6000'0000ull, kGiB};
constexpr Window kHeap{0x00A0'0000'0000ull, 0x0000'A000'0000ull, kGiB};
constexpr PAddr kRbtPaBase = 0x0000'E000'0000ull; // 2^16 kernel tables
static_assert(kLocal.pa + kLocal.bytes <= kHeap.pa &&
                  kHeap.pa + kHeap.bytes <= kRbtPaBase &&
                  kRbtPaBase + 0x10000 * RegionBoundsTable::kTableBytes <=
                      kGlobal.pa,
              "device address windows overlap");

// The RBT's size field is 32 bits wide (Fig. 10).
constexpr std::uint64_t kMaxEntrySize = 0xFFFFFFFFull;

/** The Type 2 pointer to @p base for region @p id of @p state's kernel
 *  (Fig. 7). Unprotected when the shield is off. Armor pointers carry
 *  the plaintext tag fold, since that hardware has no per-kernel
 *  cipher; otherwise the ID is encrypted under the kernel's key. */
std::uint64_t
tagged_pointer(const LaunchState &state, VAddr base, BufferId id)
{
    if (!state.shield_enabled)
        return make_unprotected_ptr(base);
    if (state.shield_backend == ShieldBackendKind::Armor)
        return make_tagged_ptr(base, armor_ptr_tag(id));
    return make_tagged_ptr(base, IdCipher(state.secret_key).encrypt(id));
}

} // namespace

GpuDevice::GpuDevice(std::uint64_t page_size)
    : pt_(page_size),
      global_alloc_(pt_, kGlobal.va, kGlobal.pa, kGlobal.bytes),
      local_alloc_(pt_, kLocal.va, kLocal.pa, kLocal.bytes),
      heap_alloc_(pt_, kHeap.va, kHeap.pa, kHeap.bytes)
{
    // A larger page would start below its window's physical base.
    if (page_size > kGiB / 2)
        throw std::invalid_argument("GpuDevice: page size over 512 MiB");
}

PAddr
GpuDevice::rbt_base(KernelId kernel) const
{
    return kRbtPaBase +
           static_cast<PAddr>(kernel) * RegionBoundsTable::kTableBytes;
}

Driver::Driver(GpuDevice &dev, const DriverPartition &part,
               std::uint64_t seed)
    : dev_(dev), rng_(seed), part_(part),
      next_kernel_id_(part.kernel_first),
      c_buffers_created_(stats_.counter("buffers_created")),
      c_launches_(stats_.counter("launches")),
      c_ids_assigned_(stats_.counter("ids_assigned")),
      c_device_mallocs_(stats_.counter("device_mallocs"))
{
    if (part_.id_first < 1 || part_.id_count < 1 ||
        part_.id_first + part_.id_count > kNumBufferIds)
        fatal("Driver: invalid buffer-ID partition");
    if (part_.kernel_first < 1 || part_.kernel_count < 1 ||
        static_cast<std::size_t>(part_.kernel_first) + part_.kernel_count >
            0x10000)
        fatal("Driver: invalid kernel-ID partition");
}

BufferHandle
Driver::create_buffer(std::uint64_t size, bool read_only, bool pow2,
                      std::string label)
{
    VaRegion region =
        pow2 ? dev_.global_alloc().alloc_pow2(size, read_only, label)
             : dev_.global_alloc().alloc(size, read_only, label);
    buffers_.push_back(region);
    buffer_pow2_.push_back(pow2);
    ++c_buffers_created_;
    return BufferHandle{static_cast<int>(buffers_.size()) - 1};
}

const VaRegion &
Driver::region(BufferHandle handle) const
{
    if (handle.index < 0 ||
        static_cast<std::size_t>(handle.index) >= buffers_.size())
        throw std::invalid_argument("Driver: invalid buffer handle " +
                                    std::to_string(handle.index));
    return buffers_[handle.index];
}

void
Driver::upload(BufferHandle handle, const void *data, std::size_t len,
               std::uint64_t offset)
{
    const VaRegion &r = region(handle);
    if (offset > r.size || len > r.size - offset)
        throw std::invalid_argument("Driver::upload: out of buffer range");
    // Uploads are driver-privileged (they bypass access permissions);
    // regions are contiguous in PA.
    const Translation t =
        dev_.page_table().translate(r.base + offset, /*is_write=*/false);
    if (!t.ok)
        fatal("Driver::upload: unmapped buffer page");
    dev_.mem().write(t.paddr, data, len);
}

void
Driver::download(BufferHandle handle, void *out, std::size_t len,
                 std::uint64_t offset) const
{
    const VaRegion &r = region(handle);
    if (offset > r.size || len > r.size - offset)
        throw std::invalid_argument("Driver::download: out of buffer range");
    const Translation t =
        dev_.page_table().translate(r.base + offset, /*is_write=*/false);
    if (!t.ok)
        fatal("Driver::download: unmapped buffer page");
    dev_.mem().read(t.paddr, out, len);
}

BufferId
Driver::assign_unique_id()
{
    // Random-but-unique 14-bit IDs (§5.2.4) drawn from this driver's
    // partition. ID 0 is reserved globally so a zeroed RBT entry can
    // never alias a live buffer. Exhaustion is a recoverable,
    // per-tenant condition (a hostile client can trigger it at will),
    // so it throws instead of killing the process; api::Context and the
    // service surface it as LaunchStatus::Error.
    if (used_ids_.size() >= part_.id_count) {
        stats_.add("rbt_exhausted");
        throw SimulationError("RBT exhausted: all " +
                              std::to_string(part_.id_count) +
                              " buffer IDs of this context are live");
    }
    for (int attempts = 0; attempts < 1 << 20; ++attempts) {
        const auto id = static_cast<BufferId>(
            part_.id_first + rng_.below(part_.id_count));
        if (used_ids_.insert(id).second) {
            ++c_ids_assigned_;
            stats_.set("rbt_occupancy", used_ids_.size());
            return id;
        }
    }
    stats_.add("rbt_exhausted");
    throw SimulationError("RBT exhausted: no free buffer ID found");
}

KernelId
Driver::assign_kernel_id()
{
    // Kernel IDs are recycled at finish(); scan the partition for a
    // free one starting at the cursor. Uniqueness must hold across
    // concurrently-live kernels only (the RBT physical window and the
    // BCU registration are both keyed by kernel ID).
    for (std::size_t attempts = 0; attempts < part_.kernel_count;
         ++attempts) {
        const KernelId id = next_kernel_id_;
        const std::size_t offset =
            static_cast<std::size_t>(next_kernel_id_ - part_.kernel_first);
        next_kernel_id_ = static_cast<KernelId>(
            part_.kernel_first + (offset + 1) % part_.kernel_count);
        if (live_kernels_.insert(id).second)
            return id;
    }
    throw SimulationError("kernel ID space exhausted: all " +
                          std::to_string(part_.kernel_count) +
                          " kernel IDs of this context are live");
}

BufferId
Driver::install_region(LaunchState &state, VaRegion &region,
                       VaAllocator *from)
{
    // The RBT size field is 32 bits (Fig. 10): truncating would leave
    // the entry covering a sliver of the region. An empty region (a
    // zero-size local) has nothing to bound. Either refuses the launch
    // before anything is allocated for the region.
    if (region.size == 0 || region.size > kMaxEntrySize)
        throw SimulationError("Driver::launch: region " + region.label +
                              " of " + std::to_string(region.size) +
                              " bytes is outside the 32-bit RBT size "
                              "field's range [1, 2^32)");
    if (from != nullptr) {
        try {
            region = from->alloc(region.size, region.read_only, region.label);
        } catch (const std::invalid_argument &e) {
            throw SimulationError("Driver::launch: region " + region.label +
                                  ": " + e.what());
        }
    }
    const BufferId id = assign_unique_id();
    Bounds bounds;
    bounds.base_addr = region.base;
    bounds.size = static_cast<std::uint32_t>(region.size);
    bounds.valid = true;
    bounds.read_only = region.read_only;
    bounds.kernel = state.kernel_id;
    state.rbt->set(id, bounds);
    state.shield_regions.push_back({id, armor_ptr_tag(id), bounds});
    return id;
}

LaunchState
Driver::launch(const LaunchConfig &cfg)
{
    if (cfg.program == nullptr)
        fatal("Driver::launch: no program");

    const KernelProgram &src = *cfg.program;
    if (src.args.size() > kMaxKernelArgs)
        throw SimulationError("Driver::launch: more than " +
                              std::to_string(kMaxKernelArgs) +
                              " kernel arguments (§2.1)");

    // --- Static analysis (host-side, Fig. 9 steps 1-3) ---------------
    // Its launch facts are gathered before anything is assigned, so an
    // unbound pointer argument refuses the launch with nothing to undo.
    StaticLaunchInfo info;
    info.ntid = cfg.ntid;
    info.nctaid = cfg.nctaid;
    info.arg_buffer_sizes.assign(src.args.size(), 0);
    info.arg_buffer_pow2.assign(src.args.size(), false);
    info.arg_buffer_readonly.assign(src.args.size(), false);
    info.scalar_values.assign(src.args.size(), std::nullopt);
    for (std::size_t a = 0; a < src.args.size(); ++a) {
        const KernelArgSpec &spec = src.args[a];
        if (spec.is_pointer) {
            if (spec.buffer_index < 0 ||
                static_cast<std::size_t>(spec.buffer_index) >=
                    cfg.buffers.size())
                throw SimulationError(
                    "Driver::launch: unbound pointer argument " + spec.name);
            const BufferHandle handle = cfg.buffers[spec.buffer_index];
            const VaRegion &r = region(handle);
            info.arg_buffer_sizes[a] = r.size;
            info.arg_buffer_pow2[a] = buffer_pow2_[handle.index];
            info.arg_buffer_readonly[a] = r.read_only;
        } else if (a < cfg.scalar_static.size() && cfg.scalar_static[a] &&
                   a < cfg.scalars.size()) {
            info.scalar_values[a] = cfg.scalars[a];
        }
    }

    LaunchState state;
    ++c_launches_;
    state.driver = this;
    state.kernel_id = assign_kernel_id();
    state.tenant = part_.tenant;
    state.secret_key = rng_.next64();
    state.ntid = cfg.ntid;
    state.nctaid = cfg.nctaid;
    state.program = src; // patched copy
    state.shield_enabled = cfg.shield_enabled;
    state.shield_backend = backend_;

    const KernelProgram &prog = state.program;

    // §6.4: replace redundant software guards before the bounds
    // analysis (the transformed program is what runs and is analyzed).
    if (cfg.shield_enabled && cfg.replace_sw_checks) {
        GuardReplaceResult gr = replace_sw_guards(state.program, info);
        state.program = std::move(gr.program);
        state.guards_removed = gr.guards_removed;
    }

    state.bat = analyze_kernel(prog, info);

    // Patch statically-proven-safe instructions (pointer Type 1).
    if (cfg.shield_enabled && cfg.use_static_analysis) {
        for (const BatEntry &e : state.bat.entries)
            if (e.verdict == Verdict::InBounds)
                state.program.code[e.pc].check = CheckMode::StaticSafe;
    }

    // --- RBT + ID assignment (Fig. 9 step 4, Fig. 10) ----------------
    state.rbt = std::make_unique<RegionBoundsTable>(
        dev_.mem(), dev_.rbt_base(state.kernel_id));
    state.rbt->clear_all();

    // --- ID budgeting (§6.3) -----------------------------------------
    // When the remaining ID space cannot cover this launch, the driver
    // falls back to sharing one ID (and a merged bounds entry) between
    // groups of adjacent buffers — coarser but still region-bounded.
    std::vector<int> ptr_args;
    for (std::size_t a = 0; a < prog.args.size(); ++a)
        if (prog.args[a].is_pointer)
            ptr_args.push_back(static_cast<int>(a));

    const std::size_t fixed_ids =
        prog.locals.size() + (cfg.heap_bytes > 0 ? 1 : 0);
    const std::size_t avail = part_.id_count > used_ids_.size()
                                  ? part_.id_count - used_ids_.size()
                                  : 0;
    std::size_t group = 1;
    if (ptr_args.size() + fixed_ids > avail) {
        if (avail <= fixed_ids) {
            live_kernels_.erase(state.kernel_id);
            stats_.add("rbt_exhausted");
            throw SimulationError(
                "RBT exhausted: " + std::to_string(avail) +
                " free buffer IDs cannot cover locals/heap of kernel " +
                prog.name);
        }
        const std::size_t slots = avail - fixed_ids;
        group = (ptr_args.size() + slots - 1) / slots;
        state.ids_merged = true;
    }

    // Assign (possibly shared) IDs and bounds per pointer argument. The
    // RBT size field is 32 bits (Fig. 10), so a merged hull that would
    // overflow it closes the group early (costing an extra ID) rather
    // than silently truncating the bounds.
    std::vector<BufferId> arg_id(prog.args.size(), 0);
    std::vector<bool> arg_in_merged_group(prog.args.size(), false);

    // Exhaustion or a refused size mid-launch must not leak the IDs
    // already assigned to this launch (each has its row in
    // shield_regions): release them and the kernel ID before
    // propagating the error.
    try {
    for (std::size_t g = 0; g < ptr_args.size();) {
        const std::size_t want = std::min(g + group, ptr_args.size());
        VAddr lo = ~VAddr{0};
        VAddr hi = 0;
        bool single_ro = false;
        std::size_t end = g;
        while (end < want) {
            const KernelArgSpec &spec = prog.args[ptr_args[end]];
            const VaRegion &r = region(cfg.buffers[spec.buffer_index]);
            const VAddr nlo = std::min(lo, r.base);
            const VAddr nhi = std::max(hi, r.base + r.size);
            if (end > g && nhi - nlo > kMaxEntrySize)
                break;
            lo = nlo;
            hi = nhi;
            single_ro = r.read_only;
            ++end;
        }
        // Read-only is only enforceable for unshared entries.
        VaRegion hull{.base = lo,
                      .size = hi - lo,
                      .read_only = (end - g == 1) && single_ro,
                      .label = prog.args[ptr_args[g]].name};
        const BufferId id = install_region(state, hull);
        for (std::size_t k = g; k < end; ++k) {
            arg_id[ptr_args[k]] = id;
            arg_in_merged_group[ptr_args[k]] = end - g > 1;
        }
        g = end;
    }

    // Method A binding table: one entry per pointer argument, in
    // argument order (§2.2: "the GPU driver assigns buffer IDs based on
    // the order specified in kernel arguments"). Every buffer fits the
    // 32-bit size field: a larger one was refused as its own group.
    for (const int a : ptr_args) {
        const VaRegion &r =
            region(cfg.buffers[prog.args[a].buffer_index]);
        Bounds bt;
        bt.base_addr = r.base;
        bt.size = static_cast<std::uint32_t>(r.size);
        bt.valid = true;
        bt.read_only = r.read_only;
        bt.kernel = state.kernel_id;
        state.binding_table.push_back(bt);
    }

    // Kernel argument pointers.
    state.arg_values.assign(prog.args.size(), 0);
    for (std::size_t a = 0; a < prog.args.size(); ++a) {
        const KernelArgSpec &spec = prog.args[a];
        if (!spec.is_pointer) {
            state.arg_values[a] =
                a < cfg.scalars.size()
                    ? static_cast<std::uint64_t>(cfg.scalars[a])
                    : 0;
            continue;
        }
        const BufferHandle handle = cfg.buffers[spec.buffer_index];
        const VaRegion &r = region(handle);
        state.bound_buffers.push_back(handle.index);

        const BaseRef ref{BaseKind::Arg, static_cast<int>(a)};
        PtrTypeRec type = PtrTypeRec::TaggedId;
        if (cfg.shield_enabled) {
            const auto it = state.bat.pointer_types.find(ref);
            if (it != state.bat.pointer_types.end()) {
                // Type 1 elision is the static-filtering optimization
                // and honours the flag; Type 3 is purely an addressing
                // choice (§5.3.3) and always applies.
                if (it->second == PtrTypeRec::SizedWindow)
                    type = PtrTypeRec::SizedWindow;
                else if (it->second == PtrTypeRec::Unprotected &&
                         cfg.use_static_analysis)
                    type = PtrTypeRec::Unprotected;
            }
            // Type 3 requires the power-of-two reservation and a
            // non-merged entry.
            if (type == PtrTypeRec::SizedWindow &&
                (!buffer_pow2_[handle.index] || arg_in_merged_group[a]))
                type = PtrTypeRec::TaggedId;
            // Armor has no power-of-two window checker: a sized pointer
            // would go entirely unchecked there, so demote it to a
            // tagged pointer the metadata table covers.
            if (backend_ == ShieldBackendKind::Armor &&
                type == PtrTypeRec::SizedWindow)
                type = PtrTypeRec::TaggedId;
            // Multi-tenant hardening: tenants share one VA space, and
            // neither Type 1 (raw address) nor Type 3 (window check,
            // no ownership) pointers carry the per-kernel cipher — a
            // leaked one is a replayable cross-tenant capability. A
            // partitioned driver therefore hands out encrypted Type 2
            // pointers only; the static-analysis win is preserved at
            // instruction granularity (CheckMode::StaticSafe above),
            // which a capability thief's kernel does not inherit.
            if (part_.tenant != 0)
                type = PtrTypeRec::TaggedId;
        } else {
            type = PtrTypeRec::Unprotected;
        }

        const BufferId id = arg_id[a];
        state.id_map[ref] = id;
        state.arg_values[a] =
            type == PtrTypeRec::Unprotected ? make_unprotected_ptr(r.base)
            : type == PtrTypeRec::SizedWindow
                ? make_sized_ptr(r.base, log2_floor(r.reserved))
                : tagged_pointer(state, r.base, id);

        // Canary fill for Type 3 padding (detected at finish()).
        if (type == PtrTypeRec::SizedWindow && r.reserved > r.size) {
            const Translation t = dev_.page_table().translate(
                r.base + r.size, /*is_write=*/true);
            dev_.mem().fill(t.paddr, kCanaryByte, r.reserved - r.size);
        }
    }

    // Local variables: one region-bounds entry per variable (§5.2.1).
    // A size that wraps 64 bits reads 0 and is refused like a zero one.
    const std::uint64_t threads =
        static_cast<std::uint64_t>(cfg.ntid) * cfg.nctaid;
    state.local_bases.assign(prog.locals.size(), 0);
    for (std::size_t l = 0; l < prog.locals.size(); ++l) {
        const LocalVarSpec &lv = prog.locals[l];
        VaRegion r{.size = lv.total_bytes(threads), .label = lv.name};
        const BufferId id = install_region(state, r, &dev_.local_alloc());
        state.id_map[BaseRef{BaseKind::Local, static_cast<int>(l)}] = id;
        state.local_bases[l] = tagged_pointer(state, r.base, id);
    }

    // Heap: one coarse entry covering the whole preset heap (§5.2.1).
    if (cfg.heap_bytes > 0) {
        VaRegion r{.size = cfg.heap_bytes, .label = "heap"};
        const BufferId id = install_region(state, r, &dev_.heap_alloc());
        state.heap_base = r.base;
        state.heap_cursor = r.base;
        state.heap_bytes = cfg.heap_bytes;
        state.id_map[BaseRef{BaseKind::Heap, -1}] = id;
        state.heap_base_tagged = tagged_pointer(state, r.base, id);
    }

    // --- Loop-aware check optimization (compiler/check_opt.h) --------
    // Runs after every base VA is known so the static cover hulls can
    // be resolved to absolute ranges. Rows whose hull cannot be
    // resolved simply stay at per-access checking — the pass never
    // weakens a verdict, it only lets the core skip checks behind a
    // *passed* runtime probe.
    if (cfg.shield_enabled && cfg.optimize_checks) {
        state.check_opt_stats = optimize_checks(state.bat, state.program);
        const auto base_va = [&](const BaseRef &ref)
            -> std::optional<VAddr> {
            if (ref.kind == BaseKind::Arg && ref.index >= 0 &&
                static_cast<std::size_t>(ref.index) <
                    state.arg_values.size() &&
                prog.args[ref.index].is_pointer)
                return ptr_addr(state.arg_values[ref.index]);
            if (ref.kind == BaseKind::Local && ref.index >= 0 &&
                static_cast<std::size_t>(ref.index) <
                    state.local_bases.size())
                return ptr_addr(state.local_bases[ref.index]);
            return std::nullopt;
        };
        for (const BatEntry &e : state.bat.entries) {
            if (e.check_kind != CheckKind::Hoisted &&
                e.check_kind != CheckKind::Widened)
                continue;
            // Negative or empty hulls cannot pass a probe; leave the
            // row per-access instead of issuing a doomed probe.
            if (e.cover_lo < 0 || e.cover_end <= e.cover_lo)
                continue;
            const auto base = base_va(e.base);
            if (!base)
                continue;
            LaunchState::CheckCover cover;
            cover.pc = e.pc;
            cover.kind = e.check_kind;
            cover.va_lo = *base + static_cast<VAddr>(e.cover_lo);
            cover.va_end = *base + static_cast<VAddr>(e.cover_end);
            cover.rel_lo = e.cover_lo;
            cover.rel_end = e.cover_end;
            cover.is_store = e.is_store;
            state.check_covers[e.pc] = cover;
        }
        for (const BatEntry &e : state.bat.entries) {
            if (e.check_kind != CheckKind::Elided)
                continue;
            const auto it = state.check_covers.find(e.cover_pc);
            if (it == state.check_covers.end())
                continue; // cover unresolved: row stays per-access
            it->second.is_store |= e.is_store;
            LaunchState::CheckCover row;
            row.pc = e.pc;
            row.kind = CheckKind::Elided;
            row.cover_pc = e.cover_pc;
            state.check_covers[e.pc] = row;
        }
    }
    } catch (...) {
        for (const ShieldRegionDesc &r : state.shield_regions)
            used_ids_.erase(r.id);
        stats_.set("rbt_occupancy", used_ids_.size());
        live_kernels_.erase(state.kernel_id);
        throw;
    }

    return state;
}

std::uint64_t
Driver::device_malloc(LaunchState &state, std::uint64_t bytes)
{
    // No heap configured (cudaLimitMallocHeapSize 0) or too little left:
    // the allocation fails, like CUDA malloc returning NULL.
    if (state.heap_bytes == 0)
        return 0;
    const VAddr at = align_up(state.heap_cursor, 16);
    // Overflow-safe limit check: `at + bytes` wraps for huge requests.
    const VAddr heap_end = state.heap_base + state.heap_bytes;
    if (at > heap_end || bytes > heap_end - at)
        return 0;
    state.heap_cursor = at + bytes;
    ++c_device_mallocs_;
    // The preassigned heap-region ID is embedded in every heap pointer.
    const std::uint64_t tag_bits =
        state.heap_base_tagged & ~kVAddrMask;
    return tag_bits | (at & kVAddrMask);
}

std::vector<CanaryReport>
Driver::finish(LaunchState &state)
{
    std::vector<CanaryReport> reports;
    // Verify Type 3 canary padding.
    for (std::size_t a = 0; a < state.program.args.size(); ++a) {
        if (!state.program.args[a].is_pointer)
            continue;
        if (ptr_class(state.arg_values[a]) != PtrClass::SizedWindow)
            continue;
        // Locate the region via the pointer's base address.
        const VAddr base = ptr_addr(state.arg_values[a]);
        const VaRegion *found = nullptr;
        for (const VaRegion &cand : buffers_) {
            if (cand.base == base) {
                found = &cand;
                break;
            }
        }
        if (found == nullptr || found->reserved <= found->size)
            continue;
        const Translation t = dev_.page_table().translate(
            found->base + found->size, /*is_write=*/false);
        CanaryReport report;
        for (std::uint64_t off = 0; off < found->reserved - found->size;
             ++off) {
            std::uint8_t byte = 0;
            dev_.mem().read(t.paddr + off, &byte, 1);
            if (byte != kCanaryByte) {
                if (report.corrupt_bytes == 0)
                    report.first_corrupt = found->base + found->size + off;
                ++report.corrupt_bytes;
            }
        }
        if (report.corrupt_bytes > 0) {
            report.buffer_index = static_cast<int>(a);
            reports.push_back(report);
        }
    }

    // Invalidate this kernel's RBT entries and recycle its IDs: the
    // uniqueness requirement is per concurrently-live kernel, so a
    // finished kernel's IDs return to the pool (keeping long multi-
    // launch applications like streamcluster from exhausting the
    // 14-bit space).
    state.rbt->clear_all();
    for (const auto &[ref, id] : state.id_map)
        used_ids_.erase(id);
    state.id_map.clear();
    stats_.set("rbt_occupancy", used_ids_.size());
    live_kernels_.erase(state.kernel_id);
    return reports;
}

} // namespace gpushield
