/**
 * @file
 * Per-context page table and virtual-address-space allocator.
 *
 * The allocator reproduces the allocation behaviour observed on Nvidia
 * CUDA in the paper's Section 3.1: buffers are 512B-aligned and packed
 * consecutively inside large (2MB) pages, so out-of-bounds writes that
 * stay within a mapped page silently corrupt neighbouring data while
 * accesses that cross into unmapped pages fault.
 */

#ifndef GPUSHIELD_MEM_PAGE_TABLE_H
#define GPUSHIELD_MEM_PAGE_TABLE_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitutil.h"
#include "common/types.h"

namespace gpushield {

/** Page protection attributes. */
struct PageFlags
{
    bool readable = true;
    bool writable = true;
    /** Pages holding the RBT bypass normal translation; see §5.4. */
    bool system_reserved = false;
};

/** Result of a virtual-to-physical translation attempt. */
struct Translation
{
    bool ok = false;
    PAddr paddr = 0;
    /** Set when the page is mapped but the access kind is not permitted. */
    bool permission_fault = false;
};

/** A contiguous virtual allocation made through the driver. */
struct VaRegion
{
    VAddr base = 0;
    std::uint64_t size = 0;          //!< requested size in bytes
    std::uint64_t reserved = 0;      //!< size after alignment padding
    bool read_only = false;
    std::string label;               //!< debugging / reporting aid
};

/**
 * Single-level (map-based) page table with configurable page size.
 *
 * A real GPU uses multi-level radix tables; the timing-relevant
 * behaviour — page-granularity mapping and permissions — is identical.
 */
class PageTable
{
  public:
    explicit PageTable(std::uint64_t page_size = kPageSize2M);

    std::uint64_t page_size() const { return page_size_; }

    /** Maps the page containing @p vaddr to @p paddr with @p flags. */
    void map(VAddr vaddr, PAddr paddr, PageFlags flags = {});

    /** Removes the mapping of the page containing @p vaddr. */
    void unmap(VAddr vaddr);

    /** Translates @p vaddr for a read (@p is_write = false) or write. */
    Translation translate(VAddr vaddr, bool is_write) const;

    /** True when the page containing @p vaddr is mapped. */
    bool is_mapped(VAddr vaddr) const;

  private:
    struct Entry
    {
        PAddr frame = 0;
        PageFlags flags;
    };

    std::uint64_t page_key(VAddr vaddr) const { return vaddr / page_size_; }

    std::uint64_t page_size_;
    std::unordered_map<std::uint64_t, Entry> entries_;
};

/**
 * Bump allocator over a device virtual-address range.
 *
 * Allocations are aligned to @p alloc_align (512B by default, matching
 * CUDA), packed consecutively, and backed on demand with identity-offset
 * physical frames. Pages are mapped lazily so unmapped-page faults behave
 * like the real device.
 */
class VaAllocator
{
  public:
    /**
     * @param pt           page table to populate
     * @param va_base      first virtual address handed out
     * @param pa_base      physical base backing the region
     * @param alloc_align  allocation alignment (power of two)
     */
    VaAllocator(PageTable &pt, VAddr va_base, PAddr pa_base,
                std::uint64_t alloc_align = kAllocAlign);

    /**
     * Allocates @p size bytes; maps backing pages read-write (or read-only
     * when @p read_only). Returns the region descriptor.
     */
    VaRegion alloc(std::uint64_t size, bool read_only = false,
                   std::string label = {});

    /**
     * Allocates with the reservation rounded up to the next power of two —
     * the Type 3 (size-in-pointer) mode of §5.3.3. The base is also aligned
     * to the rounded size so that base+offset arithmetic stays inside one
     * power-of-two window.
     */
    VaRegion alloc_pow2(std::uint64_t size, bool read_only = false,
                        std::string label = {});

    /** All regions allocated so far, in allocation order. */
    const std::vector<VaRegion> &regions() const { return regions_; }

    /** Next address the allocator would hand out (for tests). */
    VAddr cursor() const { return cursor_; }

  private:
    VaRegion alloc_at(VAddr base, std::uint64_t size, std::uint64_t reserved,
                      bool read_only, std::string label);
    void back_range(VAddr lo, VAddr hi, bool read_only);

    PageTable &pt_;
    VAddr va_base_;
    PAddr pa_base_;
    std::uint64_t alloc_align_;
    VAddr cursor_;
    std::vector<VaRegion> regions_;
};

} // namespace gpushield

#endif // GPUSHIELD_MEM_PAGE_TABLE_H
