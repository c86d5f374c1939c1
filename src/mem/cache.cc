#include "mem/cache.h"

#include "common/bitutil.h"
#include "common/log.h"

namespace gpushield {

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg),
      c_accesses_(stats_.counter("accesses")),
      c_writes_(stats_.counter("writes")),
      c_hits_(stats_.counter("hits")),
      c_misses_(stats_.counter("misses")),
      c_writebacks_(stats_.counter("writebacks"))
{
    if (!is_pow2(cfg.line_size))
        fatal("Cache " + cfg.name + ": line size must be a power of two");
    if (cfg.assoc == 0 || cfg.size_bytes == 0)
        fatal("Cache " + cfg.name + ": empty geometry");
    const std::uint64_t lines = cfg.size_bytes / cfg.line_size;
    if (lines % cfg.assoc != 0)
        fatal("Cache " + cfg.name + ": size not divisible by associativity");
    num_sets_ = lines / cfg.assoc;
    if (!is_pow2(num_sets_))
        fatal("Cache " + cfg.name + ": number of sets must be a power of two");
    lines_.resize(lines);
}

std::uint64_t
Cache::set_index(std::uint64_t addr) const
{
    return (addr / cfg_.line_size) & (num_sets_ - 1);
}

std::uint64_t
Cache::tag_of(std::uint64_t addr) const
{
    return addr / cfg_.line_size / num_sets_;
}

CacheAccessResult
Cache::access(std::uint64_t addr, bool is_write)
{
    CacheAccessResult result;
    ++c_accesses_;
    if (is_write)
        ++c_writes_;

    const std::uint64_t set = set_index(addr);
    const std::uint64_t tag = tag_of(addr);
    Line *base = &lines_[set * cfg_.assoc];

    Line *victim = base;
    for (unsigned way = 0; way < cfg_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag) {
            line.lru = ++stamp_;
            line.dirty |= is_write;
            ++c_hits_;
            result.hit = true;
            return result;
        }
        if (!line.valid)
            victim = &line; // prefer an invalid way
        else if (victim->valid && line.lru < victim->lru)
            victim = &line;
    }

    ++c_misses_;
    if (victim->valid && victim->dirty) {
        ++c_writebacks_;
        result.evicted_dirty = true;
        result.evicted_tag_addr =
            (victim->tag * num_sets_ + set) * cfg_.line_size;
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lru = ++stamp_;
    return result;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t set = set_index(addr);
    const std::uint64_t tag = tag_of(addr);
    const Line *base = &lines_[set * cfg_.assoc];
    for (unsigned way = 0; way < cfg_.assoc; ++way)
        if (base[way].valid && base[way].tag == tag)
            return true;
    return false;
}

} // namespace gpushield
