#include "mem/cache.h"

#include <bit>
#include <stdexcept>

#include "common/bitutil.h"

namespace gpushield {

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg),
      c_accesses_(stats_.counter("accesses")),
      c_writes_(stats_.counter("writes")),
      c_hits_(stats_.counter("hits")),
      c_misses_(stats_.counter("misses")),
      c_writebacks_(stats_.counter("writebacks"))
{
    const auto reject = [&](const std::string &why) {
        throw std::invalid_argument("Cache " + cfg.name + ": " + why);
    };
    if (!is_pow2(cfg.line_size))
        reject("line size must be a power of two");
    if (cfg.assoc == 0 || cfg.size_bytes == 0)
        reject("empty geometry");
    const std::uint64_t lines = cfg.size_bytes / cfg.line_size;
    if (lines % cfg.assoc != 0)
        reject("size not divisible by associativity");
    const std::uint64_t sets = lines / cfg.assoc;
    if (!is_pow2(sets))
        reject("number of sets must be a power of two");
    line_shift_ = static_cast<unsigned>(std::countr_zero(cfg.line_size));
    set_bits_ = static_cast<unsigned>(std::countr_zero(sets));
    keys_.assign(lines, 0);
    lru_.assign(lines, 0);
    dirty_.assign(lines, 0);
}

unsigned
Cache::find(std::uint64_t set, std::uint64_t key) const
{
    const std::uint64_t *keys = &keys_[set * cfg_.assoc];
    for (unsigned way = 0; way < cfg_.assoc; ++way)
        if (keys[way] == key)
            return way;
    return cfg_.assoc;
}

CacheAccessResult
Cache::access(std::uint64_t addr, bool is_write)
{
    CacheAccessResult result;
    ++c_accesses_;
    if (is_write)
        ++c_writes_;

    const std::uint64_t line = addr >> line_shift_;
    const std::uint64_t set = line & ((std::uint64_t{1} << set_bits_) - 1);
    const std::uint64_t key = (line >> set_bits_) + 1;
    const std::uint64_t base = set * cfg_.assoc;

    unsigned way = find(set, key);
    if (way < cfg_.assoc) {
        lru_[base + way] = ++stamp_;
        dirty_[base + way] |= static_cast<std::uint8_t>(is_write);
        ++c_hits_;
        result.hit = true;
        return result;
    }

    // Victim: the last invalid way, else the first least recently used.
    const std::uint64_t *keys = &keys_[base];
    way = cfg_.assoc;
    while (way > 0 && keys[way - 1] != 0)
        --way;
    if (way > 0) {
        --way;
    } else {
        const std::uint64_t *lru = &lru_[base];
        for (unsigned w = 1; w < cfg_.assoc; ++w)
            if (lru[w] < lru[way])
                way = w;
    }

    ++c_misses_;
    const std::uint64_t victim = base + way;
    if (keys_[victim] != 0 && dirty_[victim] != 0) {
        ++c_writebacks_;
        result.evicted_dirty = true;
        result.evicted_tag_addr =
            (((keys_[victim] - 1) << set_bits_) | set) << line_shift_;
    }
    keys_[victim] = key;
    dirty_[victim] = static_cast<std::uint8_t>(is_write);
    lru_[victim] = ++stamp_;
    return result;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t line = addr >> line_shift_;
    const std::uint64_t set = line & ((std::uint64_t{1} << set_bits_) - 1);
    return find(set, (line >> set_bits_) + 1) < cfg_.assoc;
}

} // namespace gpushield
