/**
 * @file
 * Pluggable shield-backend interface.
 *
 * A `ShieldBackend` is the per-core bounds-checking hardware point: the
 * sim's LSU hands it one `BcuRequest` per global memory instruction and
 * applies the verdict/timing from the `BcuResponse`; the driver's
 * launch-time metadata reaches it through `register_kernel`. Two
 * implementations exist:
 *
 *  - `RegionShieldBackend` (shield/region_backend.h): the paper's
 *    BCU + RBT + RCache pipeline with per-kernel encrypted buffer IDs.
 *  - `ArmorShieldBackend` (shield/armor_backend.h): a GPUArmor-style
 *    plaintext pointer tag matched against a small per-kernel metadata
 *    table — no cipher, coarser (granule-rounded) bounds.
 *
 * The request/response/violation types are shared: they describe what
 * the LSU knows and what the core needs, not how a backend decides.
 */

#ifndef GPUSHIELD_SHIELD_BACKEND_H
#define GPUSHIELD_SHIELD_BACKEND_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "shield/config.h"
#include "shield/rbt.h"

namespace gpushield {

/** Classification of a detected memory-safety violation. */
enum class ViolationKind : std::uint8_t {
    OutOfBounds,   //!< address range escapes the buffer region
    ReadOnlyWrite, //!< store to a read-only buffer
    InvalidEntry,  //!< decrypted ID hit an invalid RBT entry (forged ptr)
    KernelMismatch //!< entry belongs to another kernel
};

/** One logged violation (error-logging mode of §5.5.2). */
struct Violation
{
    KernelId kernel = 0;
    /** Tenant that issued the faulting access (service mode; 0 =
     *  single-tenant). Makes cross-tenant attacks attributable. */
    TenantId tenant = 0;
    CoreId core = 0;
    int pc = -1;
    WarpId warp = 0;
    bool is_store = false;
    VAddr min_addr = 0;
    VAddr max_end = 0;
    ViolationKind kind = ViolationKind::OutOfBounds;
};

/** Everything the LSU hands the shield for one memory instruction. */
struct BcuRequest
{
    KernelId kernel = 0;
    TenantId tenant = 0;
    CoreId core = 0;
    WarpId warp = 0;
    int pc = -1;

    std::uint64_t pointer = 0; //!< tagged address-register value
    VAddr min_addr = 0;        //!< lowest byte touched by the warp
    VAddr max_end = 0;         //!< one past the highest byte touched
    bool is_store = false;

    unsigned num_transactions = 1; //!< coalesced transaction count
    bool dcache_hit = false;       //!< first transaction L1 D-cache hit

    /** Base+offset (Method C / Type 3) operands, when the instruction
     *  uses that addressing mode. Offsets are relative to the base. */
    bool has_base_offset = false;
    std::int64_t min_offset = 0;
    std::int64_t max_offset_end = 0; //!< one past the highest offset byte

    /** Method A (binding table): the driver-managed BT entry supplies
     *  exact bounds, so the check is direct — no decrypt, no RCache. */
    bool has_bt_bounds = false;
    Bounds bt_bounds;

    /**
     * §6.4 guard replacement: the compiler removed a redundant software
     * guard because GPUShield subsumes it. Violations through this
     * instruction are the *expected* squashes of the formerly-guarded
     * lanes — suppress without logging (counted separately).
     */
    bool silent = false;

    /**
     * Check-opt cover probe (compiler/check_opt.h): the range is a
     * statically-derived hull over a whole loop/group, not one access.
     * A failing probe only means the hull is too wide for one-shot
     * clearance — the core falls back to per-access checks — so the
     * backend must not log it as a violation or count it as one.
     */
    bool cover_probe = false;
};

/** Shield verdict and timing for one memory instruction. */
struct BcuResponse
{
    bool checked = false;   //!< a runtime check was performed
    bool violation = false;
    ViolationKind kind = ViolationKind::OutOfBounds;
    Cycle stall_cycles = 0; //!< exposed pipeline bubble at issue
    bool refill = false;    //!< metadata refill traffic required
    PAddr refill_paddr = 0; //!< metadata entry address for the refill

    /**
     * Valid region for lane-granular squashing: detection happens at
     * warp granularity (min/max), but the store pipeline knows each
     * lane's address, so only lanes outside [region_base, region_end)
     * are dropped / zero-filled. Unset when no region applies (invalid
     * entry, kernel mismatch, read-only write): then every lane
     * squashes.
     */
    bool region_known = false;
    VAddr region_base = 0;
    VAddr region_end = 0;
};

/**
 * Canonical Armor pointer tag for a namespace slot: a 14-bit fold of
 * the buffer ID that both the driver (signing pointers) and the Armor
 * backend (masking to its configured `tag_bits`) derive from, so the
 * two stay consistent for any tag width. Plaintext by design — Armor
 * has no per-kernel cipher; aliasing under the mask is the backend's
 * documented weakness.
 */
inline std::uint16_t
armor_ptr_tag(BufferId id)
{
    return static_cast<std::uint16_t>(
        (id ^ (id >> 7) ^ (id << 3)) & 0x3FFFu);
}

/** One protected region as the driver installed it: the namespace slot
 *  (RBT index), the plaintext tag an Armor pointer carries for it, and
 *  its exact bounds. The launch state carries the full list so backends
 *  and the conformance oracle see the same metadata. */
struct ShieldRegionDesc
{
    BufferId id = 0;
    std::uint16_t tag = 0;
    Bounds bounds;
};

/** Launch-time metadata handed to a backend when a kernel becomes
 *  resident on a core. Backends take what they need: Region uses the
 *  cipher key + RBT, Armor uses the region list (bounds + tags). */
struct ShieldKernelDesc
{
    KernelId kernel = 0;
    std::uint64_t secret_key = 0;
    const RegionBoundsTable *rbt = nullptr;
    const std::vector<ShieldRegionDesc> *regions = nullptr;
};

/** Context for classifying a bounds violation the shield did NOT flag
 *  (conformance oracle): enough to decide whether the miss falls into
 *  a backend's documented weakness class. */
struct ShieldMissContext
{
    std::uint64_t pointer = 0;
    bool has_bt = false;
    bool has_base_offset = false;
    KernelId kernel = 0;
    VAddr min_addr = 0; //!< lowest truly-violating byte
    VAddr max_end = 0;  //!< one past the highest truly-violating byte
    const std::vector<ShieldRegionDesc> *regions = nullptr;
};

/**
 * Per-core pluggable bounds-checking hardware. The check front end is
 * shared and non-virtual: the Method A binding-table check, the skip of
 * unprotected (Type 1) pointers, violation logging with its silent and
 * cover-probe suppression, and the exposed-stall rule (Fig. 12). A
 * backend implements only its pointer scheme (check_pointer), its
 * kernel metadata and its miss classification.
 */
class ShieldBackend
{
  public:
    virtual ~ShieldBackend() = default;
    // Counter handles point into stats(): a copy would bump the original.
    ShieldBackend(const ShieldBackend &) = delete;
    ShieldBackend &operator=(const ShieldBackend &) = delete;

    virtual ShieldBackendKind kind() const = 0;
    virtual const char *name() const = 0;

    /** Registers a kernel resident on this core. */
    virtual void register_kernel(const ShieldKernelDesc &desc) = 0;

    /** Removes a kernel and drops its cached metadata (kernel
     *  termination; co-resident kernels keep theirs, §6.2). */
    virtual void deregister_kernel(KernelId kernel) = 0;

    /** Performs the bounds check for one memory instruction. */
    BcuResponse check(const BcuRequest &req);

    /** Violations logged so far (error-logging mode). */
    const std::vector<Violation> &violations() const { return violations_; }

    /** Clears the violation log (read out by the host at kernel end). */
    void clear_violations() { violations_.clear(); }

    /** Check/violation/stall counters. */
    const StatSet &stats() const { return stats_; }

    /** Metadata-lookup counters (RCache levels for Region, entry cache
     *  for Armor). Both backends use the "lookups"/"l1_hits"/"refills"
     *  names so hit-rate ratios work unchanged. */
    virtual StatSet metadata_stats() const = 0;

    /**
     * Classifies a true bounds violation this backend checked but did
     * not flag. @return a stable label for the documented weakness
     * class the miss falls into ("type3_weak" for the region backend's
     * Method-B sized-pointer checks, "tag_collision" for Armor's
     * same-kernel tag aliasing), or nullptr for a hard miss — a bug.
     */
    virtual const char *
    weakness_label(const ShieldMissContext &ctx) const = 0;

  protected:
    /** @param pipeline_slack LSU cycles that shadow the check on a
     *  D-cache hit (2 reproduces Fig. 12). */
    explicit ShieldBackend(Cycle pipeline_slack);

    /**
     * The pointer scheme, for a protected pointer without a binding
     * table entry: sets @p resp's verdict (violation, kind, region) and
     * any metadata refill. @return the check latency the LSU pipeline
     * may shadow; 0 for a check that completes in address gather.
     */
    virtual Cycle check_pointer(const BcuRequest &req,
                                BcuResponse &resp) = 0;

    /** Interns a scheme-specific counter in stats(). */
    StatSet::Counter counter(const std::string &name)
    {
        return stats_.counter(name);
    }

  private:
    void log(const BcuRequest &req, ViolationKind kind);
    Cycle exposed_stall(const BcuRequest &req, Cycle check_latency) const;

    Cycle pipeline_slack_;
    std::vector<Violation> violations_;
    StatSet stats_;
    // Interned per-check counters (resolved once; bumped per event).
    StatSet::Counter c_checks_, c_bt_checks_, c_skipped_unprotected_,
        c_guard_suppressed_, c_violations_, c_stall_cycles_;
};

/** Creates the backend @p cfg.backend selects. @p pipeline_slack is the
 *  LSU shadow for the exposed-stall model (GpuConfig::lsu_pipeline_slack). */
std::unique_ptr<ShieldBackend>
make_shield_backend(const ShieldConfig &cfg, Cycle pipeline_slack);

} // namespace gpushield

#endif // GPUSHIELD_SHIELD_BACKEND_H
