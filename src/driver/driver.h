/**
 * @file
 * The GPUShield GPU driver model (§5.4, Figs. 9-10).
 *
 * At kernel launch the driver: runs (or consumes) the compiler's BAT,
 * assigns a random-but-unique 14-bit ID to every kernel buffer, local
 * variable, and the heap region, generates a per-kernel secret key,
 * encrypts each ID and embeds it in the buffer's base pointer, allocates
 * and populates the per-kernel RBT in device memory, and patches
 * statically-proven-safe instructions so the BCU skips them.
 *
 * The driver also owns device-memory allocation, reproducing the
 * address-space behaviour the paper observed on real CUDA: buffers are
 * 512B-aligned and packed inside large pages (Fig. 4's overflow cases).
 */

#ifndef GPUSHIELD_DRIVER_DRIVER_H
#define GPUSHIELD_DRIVER_DRIVER_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "compiler/bat.h"
#include "compiler/check_opt.h"
#include "compiler/guard_replace.h"
#include "compiler/static_analysis.h"
#include "isa/ir.h"
#include "mem/page_table.h"
#include "mem/physical_memory.h"
#include "shield/backend.h"
#include "shield/rbt.h"

namespace gpushield {

/** One GPU context's functional device state. */
class GpuDevice
{
  public:
    /** @param page_size device page size (2MB Nvidia-like, 4KB optional)
     *  @throws std::invalid_argument unless it is a power of two of at
     *          most 512 MiB, which tiles every address window. */
    explicit GpuDevice(std::uint64_t page_size = kPageSize2M);

    PhysicalMemory &mem() { return mem_; }
    PageTable &page_table() { return pt_; }
    VaAllocator &global_alloc() { return global_alloc_; }
    VaAllocator &local_alloc() { return local_alloc_; }
    VaAllocator &heap_alloc() { return heap_alloc_; }

    /** Physical base for kernel @p kernel's RBT (outside any VA mapping). */
    PAddr rbt_base(KernelId kernel) const;

  private:
    PhysicalMemory mem_;
    PageTable pt_;
    VaAllocator global_alloc_;
    VaAllocator local_alloc_;
    VaAllocator heap_alloc_;
};

/** Handle to a device buffer created through the driver. */
struct BufferHandle
{
    int index = -1;
};

/** Launch-time parameters supplied by the host. */
struct LaunchConfig
{
    const KernelProgram *program = nullptr;
    std::uint32_t ntid = 256;   //!< workgroup size (threads)
    std::uint32_t nctaid = 1;   //!< number of workgroups
    /** Buffers bound to the launch; KernelArgSpec::buffer_index picks
     *  into this list. */
    std::vector<BufferHandle> buffers;
    /** Scalar values per kernel-arg position (ignored for pointers). */
    std::vector<std::int64_t> scalars;
    /** Scalar args whose values the host passes as compile-time
     *  constants (visible to the static pass). */
    std::vector<bool> scalar_static;

    bool shield_enabled = true;        //!< GPUShield on/off (baseline runs)
    bool use_static_analysis = false;  //!< elide proven-safe checks
    /** §6.4: remove provably-redundant software guards and let the BCU
     *  squash the formerly-guarded lanes. */
    bool replace_sw_checks = false;
    /** Loop-aware check optimization (compiler/check_opt.h): hoist,
     *  widen, and coalesce per-iteration BCU checks into per-warp
     *  runtime cover probes. Off by default: the baseline pipeline is
     *  byte-identical without it. */
    bool optimize_checks = false;
    std::uint64_t heap_bytes = 0;      //!< cudaLimitMallocHeapSize
};

/** Canary verdicts produced at kernel finish for Type 3 padding. */
struct CanaryReport
{
    int buffer_index = -1;
    VAddr first_corrupt = 0;
    std::uint64_t corrupt_bytes = 0;
};

class Driver;

/** Everything the hardware needs to run one kernel. */
struct LaunchState
{
    /** The driver that built this launch; services its device-side
     *  mallocs (each tenant's kernels allocate from its own driver). */
    Driver *driver = nullptr;
    KernelId kernel_id = 0;
    /** Owning tenant (service mode; 0 = single-tenant default). */
    TenantId tenant = 0;
    std::uint64_t secret_key = 0;
    std::uint32_t ntid = 0;
    std::uint32_t nctaid = 0;

    KernelProgram program;              //!< patched copy (CheckMode set)
    std::vector<std::uint64_t> arg_values;   //!< tagged ptrs / scalars
    std::vector<std::uint64_t> local_bases;  //!< tagged local-var bases
    std::uint64_t heap_base_tagged = 0;      //!< Type 2 ptr over the heap

    std::unique_ptr<RegionBoundsTable> rbt;
    BoundsAnalysisTable bat;

    /**
     * One resolved check-opt row (LaunchConfig::optimize_checks). For a
     * Hoisted/Widened row the driver turned the static cover hull into
     * an absolute VA range; the core probes it through the BCU on the
     * warp's first execution of the row and skips subsequent checks
     * only while the probe has passed. Elided rows carry no hull of
     * their own — they consult the probe state at cover_pc.
     */
    struct CheckCover
    {
        int pc = -1;
        CheckKind kind = CheckKind::PerAccess;
        int cover_pc = -1;       //!< Elided: probe site to consult
        VAddr va_lo = 0;         //!< absolute VA hull [va_lo, va_end)
        VAddr va_end = 0;
        std::int64_t rel_lo = 0; //!< base-relative hull (Method C rows)
        std::int64_t rel_end = 0;
        bool is_store = false;   //!< any store among the covered rows
    };
    /** pc -> cover row; empty unless optimize_checks was requested. */
    std::map<int, CheckCover> check_covers;
    /** Static pass counts (harness / BENCH_check_opt.json reporting). */
    CheckOptStats check_opt_stats;

    /**
     * Method A binding table (Fig. 2 / Intel BTS): entry i holds the
     * bounds of the i-th pointer argument. Populated for every launch;
     * kernels using ld_bt/st_bt address through it, and the BCU checks
     * those accesses against the entry directly (no RBT traffic).
     */
    std::vector<Bounds> binding_table;

    /** BaseRef -> assigned (plaintext) buffer ID, for tests/tools. */
    std::map<BaseRef, BufferId> id_map;
    /** Buffer list indices bound to this launch (arg order). */
    std::vector<int> bound_buffers;

    bool shield_enabled = true;

    /** Which shield hardware this launch's pointers were signed for;
     *  the cores route register/check calls to that backend. */
    ShieldBackendKind shield_backend = ShieldBackendKind::Region;

    /** Every protected region the driver installed (args, merged
     *  groups, locals, heap): namespace slot, Armor tag, exact bounds.
     *  Armor backends build their metadata tables from this; the
     *  conformance oracle reads it for either backend. */
    std::vector<ShieldRegionDesc> shield_regions;

    /** §6.3 fallback engaged: adjacent buffers share merged entries. */
    bool ids_merged = false;

    /** §6.4: software guards removed by the compiler pass. */
    unsigned guards_removed = 0;

    /** Heap bump cursor (device-side malloc). */
    VAddr heap_cursor = 0;
    VAddr heap_base = 0;
    std::uint64_t heap_bytes = 0;
};

/**
 * Resource partition one Driver draws from. The single-tenant default
 * covers the whole 14-bit buffer-ID space and the whole 16-bit
 * kernel-ID space; the multi-tenant service (src/service/) carves
 * disjoint partitions out of both so tenants sharing one GpuDevice can
 * never collide on an RBT namespace slot or an RBT physical window,
 * and one tenant exhausting its partition cannot starve another.
 */
struct DriverPartition
{
    /** First usable buffer ID (0 is reserved globally). */
    BufferId id_first = 1;
    /** Number of usable buffer IDs starting at id_first. */
    std::size_t id_count = kNumBufferIds - 1;
    /** First usable kernel ID (0 is reserved globally). */
    KernelId kernel_first = 1;
    /** Number of usable kernel IDs starting at kernel_first. */
    std::size_t kernel_count = 0xFFFF;
    /** Tenant tag stamped on every launch (0 = single-tenant). */
    TenantId tenant = 0;
};

/** The GPUShield driver. */
class Driver
{
  public:
    /** The driver assigns buffer and kernel IDs only from @p part
     *  (default: both whole spaces). A service carves disjoint
     *  partitions for its tenants; tests shrink id_count to exercise
     *  the §6.3 low-ID fallback, where adjacent buffers share a merged
     *  entry. */
    explicit Driver(GpuDevice &dev, const DriverPartition &part = {},
                    std::uint64_t seed = 0xD81EE5ull);

    /**
     * Allocates a device buffer (512B-aligned, packed). @p pow2 reserves
     * a power-of-two window with canary padding (Type 3 eligible).
     * @throws std::invalid_argument for a zero @p size or one the rest
     *         of the device's global window cannot hold.
     */
    BufferHandle create_buffer(std::uint64_t size, bool read_only = false,
                               bool pow2 = false, std::string label = {});

    /** Region descriptor of @p handle. It, upload() and download() throw
     *  std::invalid_argument for a handle this driver never made. */
    const VaRegion &region(BufferHandle handle) const;

    /** Fills a buffer with host data.
     *  @throws std::invalid_argument for a range past the buffer's end. */
    void upload(BufferHandle handle, const void *data, std::size_t len,
                std::uint64_t offset = 0);

    /** Reads a buffer back to the host (throws as upload() does). */
    void download(BufferHandle handle, void *out, std::size_t len,
                  std::uint64_t offset = 0) const;

    /**
     * Sets up a kernel launch per Fig. 9: static analysis, ID assignment,
     * encryption, RBT population, instruction patching.
     * @throws SimulationError for a launch it refuses (over 128
     *         arguments, an unbound pointer argument, a region that
     *         install_region() refuses) or on ID exhaustion.
     */
    LaunchState launch(const LaunchConfig &cfg);

    /**
     * Kernel-completion hook: verifies Type 3 canary padding and
     * invalidates the kernel's RBT entries.
     */
    std::vector<CanaryReport> finish(LaunchState &state);

    /** Device-side malloc servicing the Malloc IR op. Returns 0 (NULL)
     *  when the launch has no heap or too little of it is left. */
    std::uint64_t device_malloc(LaunchState &state, std::uint64_t bytes);

    GpuDevice &device() { return dev_; }

    /**
     * Selects which shield backend subsequent launches target. Region
     * (default) signs pointers with the per-kernel cipher; Armor signs
     * them with the plaintext `armor_ptr_tag` fold and never emits
     * Type 3 sized pointers (no power-of-two window check in that
     * hardware). Takes effect at the next launch(); in-flight kernels
     * keep the backend they were launched with.
     */
    void set_shield_backend(ShieldBackendKind kind) { backend_ = kind; }
    ShieldBackendKind shield_backend() const { return backend_; }

    /** The ID partition this driver draws from. */
    const DriverPartition &partition() const { return part_; }

    /** Buffer IDs currently live (RBT-namespace occupancy). */
    std::size_t ids_in_use() const { return used_ids_.size(); }

    /** Driver-side activity counters (buffers_created, launches,
     *  ids_assigned, device_mallocs, rbt_occupancy, rbt_exhausted). */
    const StatSet &stats() const { return stats_; }

  private:
    BufferId assign_unique_id();
    KernelId assign_kernel_id();

    /**
     * Installs one protected region of @p state's kernel under a fresh
     * buffer ID, which it returns: the RBT entry and the shield_regions
     * row. Argument groups, locals and the heap all go through here.
     * With @p from set, @p region (size, label) is allocated there first.
     * @throws SimulationError, before allocating, for a size of 0 or
     *         over the RBT's 32-bit size field, or one the rest of
     *         @p from's window cannot hold; or on ID exhaustion.
     */
    BufferId install_region(LaunchState &state, VaRegion &region,
                            VaAllocator *from = nullptr);

    GpuDevice &dev_;
    Rng rng_;
    DriverPartition part_;
    ShieldBackendKind backend_ = ShieldBackendKind::Region;
    std::vector<VaRegion> buffers_;
    std::vector<bool> buffer_pow2_;
    std::unordered_set<std::uint16_t> used_ids_;
    std::unordered_set<std::uint16_t> live_kernels_;
    KernelId next_kernel_id_ = 1;

    StatSet stats_;
    // Interned per-call counters (resolved once; bumped per event).
    StatSet::Counter c_buffers_created_, c_launches_, c_ids_assigned_,
        c_device_mallocs_;

    static constexpr std::uint8_t kCanaryByte = 0xC3;
};

} // namespace gpushield

#endif // GPUSHIELD_DRIVER_DRIVER_H
