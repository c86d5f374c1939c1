/**
 * @file
 * Per-lane conformance oracle.
 *
 * GPUShield checks bounds at warp granularity: the BCU compares the
 * warp's coalesced [min_addr, max_end) range against a single region
 * (§5.5). The oracle re-derives, for every active lane of every
 * global-memory instruction, whether that lane's access really lies
 * inside the buffer its pointer was derived from — the *true* region,
 * before §6.3 ID merging and Type 3 power-of-two padding widened the
 * hardware-visible cover — and classifies each check as
 *
 *   - agree: the warp verdict matches the per-lane ground truth,
 *   - warp-level false positive: the BCU flagged a warp none of whose
 *     lanes actually violates (e.g. lanes of one instruction derived
 *     from different buffers, so the min/max hull spans a gap),
 *   - false negative: a lane truly out of bounds escaped undetected —
 *     a hard bug in the shield, never expected.
 *
 * Provenance is tracked through the interpreter with a shadow register
 * file: LDARG/LDLOC/MALLOC seed a region index, MOV/GEP/ALU propagate
 * it, loads sink to unknown. Lanes with unknown provenance fall back to
 * resolve-by-address and are counted conservatively (never as false
 * negatives of a specific region they cannot be tied to).
 *
 * The oracle is a pure LaneObserver: attaching it never changes
 * simulated timing or functional behaviour.
 */

#ifndef GPUSHIELD_CONFORM_ORACLE_H
#define GPUSHIELD_CONFORM_ORACLE_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "driver/driver.h"
#include "shield/pointer.h"
#include "sim/observer.h"

namespace gpushield::conform {

/** Ground-truth and hardware-visible extents of one checkable region. */
struct RegionInfo
{
    VAddr true_base = 0;  //!< exact buffer base (driver allocation)
    VAddr true_end = 0;   //!< one past the last truly-owned byte
    VAddr cover_base = 0; //!< what the runtime check compares against
    VAddr cover_end = 0;  //!< (RBT entry / Type 3 window / BT entry)
    bool read_only = false;
    bool has_cover = false; //!< false for Type 1 pointers (never checked)
    PtrClass cls = PtrClass::Unprotected;
    std::string name;
};

/** One classified disagreement, kept (capped) for diagnostics. */
struct Finding
{
    enum class Kind : std::uint8_t {
        FalseNegative,    //!< truth-violating lane, no BCU flag
        FalsePositive,    //!< BCU flag, no truth-violating lane
        UnsuppressedLane, //!< truth-violating lane escaped the squash
    };
    Kind kind = Kind::FalseNegative;
    KernelId kernel = 0;
    int pc = -1;
    bool is_store = false;
    VAddr addr = 0;       //!< first offending lane address
    std::string region;   //!< provenance region name ("?" when unknown)

    std::string to_string() const;
};

/** Counter roll-up of everything the oracle observed. */
struct ConformCounters
{
    std::uint64_t checks = 0;         //!< mem-check events observed
    std::uint64_t checked = 0;        //!< events the BCU actually checked
    std::uint64_t elided = 0;         //!< StaticSafe (compile-time proven)
    std::uint64_t skipped = 0;        //!< Type 1 pointer, check skipped
    std::uint64_t lanes = 0;          //!< active lanes across all events
    std::uint64_t agree_clean = 0;    //!< no flag, no truth violation
    std::uint64_t agree_violation = 0;//!< flag and >=1 truth-oob lane
    std::uint64_t fp_checks = 0;      //!< flagged, zero truth-oob lanes
    std::uint64_t fp_lanes = 0;       //!< in-bounds lanes squashed on them
    std::uint64_t fn_checks = 0;      //!< truth-oob lane, no flag (BUG)
    std::uint64_t fn_lanes = 0;
    std::uint64_t truth_violation_lanes = 0; //!< non-silent truth-oob lanes
    std::uint64_t unsuppressed_oob_lanes = 0;//!< escaped the squash (BUG)
    std::uint64_t collateral_squashed_lanes = 0; //!< in-bounds lanes
                                      //!< squashed on agree-violations
    std::uint64_t padding_lanes = 0;  //!< inside cover, outside truth
    std::uint64_t type3_weak_checks = 0; //!< Method B sized-ptr fallback
    std::uint64_t type3_weak_lanes = 0;  //!< truth-oob lanes it may miss
    /** Armor's documented miss: the violating range fell inside a
     *  same-kernel region sharing the pointer's masked tag. Counted
     *  separately like the Type 3 padding cover — not a shield bug. */
    std::uint64_t armor_collision_checks = 0;
    std::uint64_t armor_collision_lanes = 0;
    std::uint64_t silent_checks = 0;  //!< §6.4 guard-replaced squashes
    std::uint64_t silent_squashed_lanes = 0;
    std::uint64_t unknown_provenance_lanes = 0; //!< address-resolved
};

/**
 * The oracle. Attach to a Gpu via set_lane_observer *before* launching;
 * one instance may observe several launches (counters accumulate).
 * @p driver must be the driver that owns the launched buffers and must
 * outlive the oracle.
 */
class LaneOracle final : public LaneObserver
{
  public:
    explicit LaneOracle(Driver &driver) : driver_(driver) {}

    void on_launch(const LaunchState &state) override;
    void on_step(CoreId core, KernelId kernel, const WarpState &warp,
                 const Instr &instr) override;
    void on_mem_check(const MemCheckEvent &ev) override;

    const ConformCounters &counters() const { return counters_; }
    const std::vector<Finding> &findings() const { return findings_; }

    /** No check misclassified in the dangerous direction. */
    bool no_false_negatives() const { return counters_.fn_checks == 0; }

    /** Fully conformant *and* the run was truth-clean: suitable for
     *  clean-workload legs where no violation of any kind is expected. */
    bool clean() const;

    /** Counter roll-up as a StatSet (harness/metrics integration). */
    StatSet to_statset() const;

    /** Human-readable multi-line report of counters + findings. */
    std::string report() const;

  private:
    struct KernelInfo
    {
        std::vector<RegionInfo> regions;
        std::vector<int> arg_region;   //!< arg index -> region (-1 scalar)
        std::vector<int> local_region; //!< local index -> region
        std::vector<int> bt_region;    //!< ptr-arg order -> region
        int heap_region = -1;
        int num_regs = 0;
        /** Which hardware point checked this kernel, and the regions the
         *  driver installed for it — what weakness_label classifies
         *  unflagged misses against. */
        ShieldBackendKind backend = ShieldBackendKind::Region;
        std::vector<ShieldRegionDesc> shield_regions;
    };

    /** Shadow provenance of one warp: region index per (lane, reg). */
    using Shadow = std::vector<std::int16_t>;

    Shadow &shadow(KernelId kernel, std::uint32_t wg,
                   std::uint32_t warp_in_wg, int num_regs);
    static std::uint64_t shadow_key(KernelId kernel, std::uint32_t wg,
                                    std::uint32_t warp_in_wg);
    int resolve_by_address(const KernelInfo &ki, VAddr addr) const;
    void note(Finding::Kind kind, const MemCheckEvent &ev, VAddr addr,
              const std::string &region);
    /** Lazily-built default-config backend of @p kind, used purely for
     *  weakness_label classification (never fed checks). */
    ShieldBackend &classifier(ShieldBackendKind kind);

    Driver &driver_;
    std::array<std::unique_ptr<ShieldBackend>, kShieldBackendKinds> classifiers_;
    std::unordered_map<KernelId, KernelInfo> kernels_;
    std::unordered_map<std::uint64_t, Shadow> shadows_;

    /** Base-register provenance of the in-flight memory instruction,
     *  captured at on_step before the destination is clobbered (the
     *  core's mem-check follows synchronously within the same issue). */
    struct Pending
    {
        const Instr *instr = nullptr;
        std::array<std::int16_t, kWarpSize> prov{};
    };
    Pending pending_;

    ConformCounters counters_;
    std::vector<Finding> findings_;

    static constexpr std::size_t kMaxFindings = 64;
};

} // namespace gpushield::conform

#endif // GPUSHIELD_CONFORM_ORACLE_H
