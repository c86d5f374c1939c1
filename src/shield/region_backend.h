/**
 * @file
 * Region shield backend: the paper's Bounds-Checking Unit (§5.5).
 *
 * The BCU sits beside each core's LSU. For every memory instruction it
 * receives the tagged pointer, the warp's coalesced address range
 * (min/max across active lanes — the paper's workgroup/warp-level
 * checking), and enough LSU context to decide whether the check latency
 * is exposed as a pipeline bubble (Fig. 12).
 *
 * Type 2 pointers: the embedded ID is decrypted with the per-kernel key
 * and looked up in the RCache hierarchy; an L2 RCache miss triggers an
 * RBT refill (physically addressed, bypassing translation). Type 3
 * pointers carry log2(window) and are checked against base+offset
 * operands with no RCache access. Type 1 pointers skip checking.
 *
 * Timing model: the check completes `rcache_latency` cycles after AGEN.
 * ShieldBackend's shared exposed-stall rule applies: the LSU pipeline
 * shadows `pipeline_slack` cycles for a D-cache hit plus one cycle per
 * additional coalesced transaction; anything beyond that is an exposed
 * stall. With the default 1-cycle L1 RCache this reproduces the paper's
 * "one bubble only on single-transaction D-cache hit with L1 RCache
 * miss" behaviour. Method A and Type 1 requests never reach this
 * backend's code: the shared front end handles them.
 */

#ifndef GPUSHIELD_SHIELD_REGION_BACKEND_H
#define GPUSHIELD_SHIELD_REGION_BACKEND_H

#include <cstdint>
#include <unordered_map>

#include "common/types.h"
#include "shield/backend.h"
#include "shield/cipher.h"
#include "shield/rbt.h"
#include "shield/rcache.h"

namespace gpushield {

/** Per-core bounds-checking unit (region backend). */
class RegionShieldBackend : public ShieldBackend
{
  public:
    /**
     * @param cfg            RCache geometry/latencies
     * @param pipeline_slack LSU cycles that shadow the check on a D-cache
     *                       hit (paper: check hides unless it exceeds the
     *                       LSU pipe; 2 reproduces Fig. 12)
     */
    explicit RegionShieldBackend(const RCacheConfig &cfg,
                                 Cycle pipeline_slack = 2);

    ShieldBackendKind kind() const override
    {
        return ShieldBackendKind::Region;
    }
    const char *name() const override { return "region"; }

    void register_kernel(const ShieldKernelDesc &desc) override
    {
        register_kernel(desc.kernel, desc.secret_key, desc.rbt);
    }

    /** Registers a kernel resident on this core (key + its RBT). */
    void register_kernel(KernelId kernel, std::uint64_t key,
                         const RegionBoundsTable *rbt);

    /** Removes a kernel and invalidates its RCache entries (kernel
     *  termination; co-resident kernels keep theirs, §6.2). */
    void deregister_kernel(KernelId kernel) override;

    RCache &rcache() { return rcache_; }
    const RCache &rcache() const { return rcache_; }
    StatSet metadata_stats() const override { return rcache_.stats(); }

    const char *
    weakness_label(const ShieldMissContext &ctx) const override;

  private:
    struct KernelState
    {
        IdCipher cipher;
        const RegionBoundsTable *rbt = nullptr;
    };

    /** Type 3: the offsets against the embedded power-of-two window;
     *  Type 2: the decrypted ID through the RCache hierarchy. */
    Cycle check_pointer(const BcuRequest &req, BcuResponse &resp) override;

    RCache rcache_;
    std::unordered_map<KernelId, KernelState> kernels_;
    StatSet::Counter c_type2_checks_, c_type3_checks_;
};

/** RegionShieldConfig (sim-facing knobs) → RCacheConfig (hardware). */
RCacheConfig to_rcache_config(const RegionShieldConfig &cfg);

} // namespace gpushield

#endif // GPUSHIELD_SHIELD_REGION_BACKEND_H
