#include "mem/tlb.h"

namespace gpushield {

Tlb::Tlb(unsigned entries, unsigned assoc, std::uint64_t page_size,
         std::string name)
    : array_([&] {
          CacheConfig cfg;
          cfg.line_size = page_size;
          cfg.assoc = assoc;
          cfg.size_bytes = static_cast<std::uint64_t>(entries) * page_size;
          cfg.name = std::move(name);
          return cfg;
      }())
{
}

bool
Tlb::access(VAddr vaddr)
{
    return array_.access(vaddr, /*is_write=*/false).hit;
}

} // namespace gpushield
