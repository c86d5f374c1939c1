#include "mem/page_table.h"

#include <bit>
#include <stdexcept>
#include <string>

namespace gpushield {

namespace {

/** The refusal of an allocation of @p size bytes. */
std::invalid_argument
no_room(std::uint64_t size)
{
    return std::invalid_argument("VaAllocator: " + std::to_string(size) +
                                 " bytes do not fit the rest of the window");
}

} // namespace

PageTable::PageTable(std::uint64_t page_size)
    : page_size_(page_size),
      page_shift_(static_cast<unsigned>(std::countr_zero(page_size)))
{
    if (!is_pow2(page_size))
        throw std::invalid_argument(
            "PageTable: page size must be a power of two");
}

void
PageTable::map(VAddr vaddr, PAddr paddr, PageFlags flags)
{
    entries_[page_key(vaddr)] = Entry{align_down(paddr, page_size_), flags};
}

void
PageTable::unmap(VAddr vaddr)
{
    entries_.erase(page_key(vaddr));
}

Translation
PageTable::translate(VAddr vaddr, bool is_write) const
{
    Translation t;
    const auto it = entries_.find(page_key(vaddr));
    if (it == entries_.end())
        return t;
    const Entry &e = it->second;
    if (e.flags.system_reserved || (is_write && !e.flags.writable) ||
        (!is_write && !e.flags.readable)) {
        t.permission_fault = true;
        return t;
    }
    t.ok = true;
    t.paddr = e.frame + (vaddr & (page_size_ - 1));
    return t;
}

bool
PageTable::is_mapped(VAddr vaddr) const
{
    return entries_.count(page_key(vaddr)) != 0;
}

VaAllocator::VaAllocator(PageTable &pt, VAddr va_base, PAddr pa_base,
                         std::uint64_t window_bytes)
    : pt_(pt), va_base_(va_base), pa_base_(pa_base),
      va_end_(va_base + window_bytes), cursor_(va_base)
{
}

void
VaAllocator::check_size(std::uint64_t size) const
{
    if (size == 0)
        throw std::invalid_argument("VaAllocator: zero-size allocation");
    if (size > va_end_ - va_base_)
        throw no_room(size);
}

VaRegion
VaAllocator::alloc(std::uint64_t size, bool read_only, std::string label)
{
    check_size(size);
    const VAddr base = align_up(cursor_, kAllocAlign);
    const std::uint64_t reserved = align_up(size, kAllocAlign);
    return alloc_at(base, size, reserved, read_only, std::move(label));
}

VaRegion
VaAllocator::alloc_pow2(std::uint64_t size, bool read_only, std::string label)
{
    check_size(size);
    const std::uint64_t reserved = std::uint64_t{1}
                                   << log2_ceil(std::max(size, kAllocAlign));
    const VAddr base = align_up(cursor_, reserved);
    return alloc_at(base, size, reserved, read_only, std::move(label));
}

VaRegion
VaAllocator::alloc_at(VAddr base, std::uint64_t size, std::uint64_t reserved,
                      bool read_only, std::string label)
{
    if (base > va_end_ || reserved > va_end_ - base)
        throw no_room(size);
    VaRegion region;
    region.base = base;
    region.size = size;
    region.reserved = reserved;
    region.read_only = read_only;
    region.label = std::move(label);

    back_range(base, base + reserved, read_only);
    cursor_ = base + reserved;
    return region;
}

void
VaAllocator::back_range(VAddr lo, VAddr hi, bool read_only)
{
    const std::uint64_t page = pt_.page_size();
    for (VAddr v = align_down(lo, page); v < hi; v += page) {
        if (pt_.is_mapped(v))
            continue;
        // Buffers pack many-per-page, so pages stay writable even when
        // an individual buffer is read-only: per-buffer read-only
        // enforcement is the BCU's job (the Bounds read_only bit),
        // matching how constant/texture data shares pages on real GPUs.
        (void)read_only;
        PageFlags flags;
        pt_.map(v, pa_base_ + (v - va_base_), flags);
    }
}

} // namespace gpushield
