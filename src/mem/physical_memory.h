/**
 * @file
 * Sparse byte-addressable device memory backing store.
 *
 * The functional half of the simulator: kernels really read and write
 * these bytes, so out-of-bounds stores genuinely corrupt neighbouring
 * buffers — which is what the attack demos and the detection tests
 * observe.
 */

#ifndef GPUSHIELD_MEM_PHYSICAL_MEMORY_H
#define GPUSHIELD_MEM_PHYSICAL_MEMORY_H

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/types.h"

namespace gpushield {

/** Sparse physical memory made of lazily-allocated 4KB frames. */
class PhysicalMemory
{
  public:
    /** Reads @p len bytes at @p addr into @p out. Unbacked bytes read 0. */
    void read(PAddr addr, void *out, std::size_t len) const;

    /** Writes @p len bytes from @p in at @p addr. */
    void write(PAddr addr, const void *in, std::size_t len);

    /** Typed convenience read. */
    template <typename T>
    T
    read_as(PAddr addr) const
    {
        T v{};
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Typed convenience write. */
    template <typename T>
    void
    write_as(PAddr addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Fills @p len bytes at @p addr with @p byte. A zero fill backs no
     *  frame and releases every frame it covers whole. */
    void fill(PAddr addr, std::uint8_t byte, std::size_t len);

    /** Number of frames currently backed. */
    std::size_t backed_frames() const { return frames_.size(); }

    /** Size and alignment of one backing frame. */
    static constexpr std::uint64_t kFrameSize = kPageSize4K;

    /** The bytes of the frame that starts at @p frame_base, allocated
     *  (zeroed) on first use. Valid until a zero fill() releases the
     *  frame: the interpreter holds one within one memory instruction. */
    std::uint8_t *frame_bytes(PAddr frame_base);

    /** The bytes of the frame that starts at @p frame_base, or nullptr
     *  while it is unbacked (and so reads as zero). */
    const std::uint8_t *frame_bytes(PAddr frame_base) const;

  private:
    using Frame = std::array<std::uint8_t, kFrameSize>;

    /** Returns the frame containing @p addr, allocating (zeroed) if needed. */
    Frame &frame_for(PAddr addr);

    /** Returns the frame containing @p addr, or nullptr if unbacked. */
    const Frame *frame_for(PAddr addr) const;

    std::unordered_map<std::uint64_t, std::unique_ptr<Frame>> frames_;
};

} // namespace gpushield

#endif // GPUSHIELD_MEM_PHYSICAL_MEMORY_H
