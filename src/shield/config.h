/**
 * @file
 * Shield-backend selection and per-backend configuration.
 *
 * `ShieldConfig` is the only shield type the simulator configuration
 * (`sim/config.h`) depends on: it names a backend (the tag) and carries
 * one knob struct per backend, so concrete shield headers (RCache, BCU)
 * never leak into the sim layer. The region struct mirrors the historic
 * `RCacheConfig` field names so existing sweep specs keep working
 * unchanged (`cfg.shield.region.l1_latency = ...`).
 */

#ifndef GPUSHIELD_SHIELD_CONFIG_H
#define GPUSHIELD_SHIELD_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/types.h"

namespace gpushield {

/** Which bounds-checking hardware the cores instantiate. */
enum class ShieldBackendKind : std::uint8_t {
    Region, //!< the paper's BCU + RBT + RCache pipeline (default)
    Armor,  //!< GPUArmor-style plaintext tag match, no per-kernel cipher
};

/** Number of ShieldBackendKind values: per-kind arrays index by kind. */
inline constexpr std::size_t kShieldBackendKinds = 2;

inline const char *
to_string(ShieldBackendKind kind)
{
    switch (kind) {
      case ShieldBackendKind::Region:
        return "region";
      case ShieldBackendKind::Armor:
        return "armor";
    }
    return "?";
}

/** Parses a backend name ("region" / "armor"). @return false on an
 *  unknown name, leaving @p out untouched. */
inline bool
parse_shield_backend(std::string_view name, ShieldBackendKind &out)
{
    if (name == "region") {
        out = ShieldBackendKind::Region;
        return true;
    }
    if (name == "armor") {
        out = ShieldBackendKind::Armor;
        return true;
    }
    return false;
}

/** Region-backend knobs: RCache geometry/latencies (Table 5). Field
 *  names match the historic RCacheConfig. */
struct RegionShieldConfig
{
    unsigned l1_entries = 4;
    unsigned l2_entries = 64;
    Cycle l1_latency = 1;
    Cycle l2_latency = 3;
    /** §6.2 banking: lookups from different kernels contend unless the
     *  cache is partitioned. */
    unsigned partitions = 1;
};

/** Metadata granularity of the Armor backend: region extents round up
 *  to this many bytes, so overflows that stay inside the rounded tail
 *  are a documented (and separately counted) miss class — the analogue
 *  of the Type 3 power-of-two padding cover. */
inline constexpr std::uint32_t kArmorGranule = 512;

/** Armor-backend knobs: tag width and metadata-cache timing. */
struct ArmorShieldConfig
{
    /** Pointer tag bits (of the 14-bit tag field). More bits, fewer
     *  same-kernel tag collisions. */
    unsigned tag_bits = 7;
    /** Per-core metadata-entry cache (single level, FIFO). */
    unsigned cache_entries = 8;
    Cycle cache_hit_latency = 1;
    /** Latency of an in-memory metadata-table walk on a cache miss. */
    Cycle table_latency = 3;
};

/** Tagged per-backend configuration: `backend` selects which knob
 *  struct is live; both are always present so sweep specs can set
 *  fields without variant plumbing. */
struct ShieldConfig
{
    ShieldBackendKind backend = ShieldBackendKind::Region;
    RegionShieldConfig region;
    ArmorShieldConfig armor;
};

} // namespace gpushield

#endif // GPUSHIELD_SHIELD_CONFIG_H
