#include "mem/physical_memory.h"

#include <algorithm>

namespace gpushield {

PhysicalMemory::Frame &
PhysicalMemory::frame_for(PAddr addr)
{
    const std::uint64_t key = addr / kFrameSize;
    auto &slot = frames_[key];
    if (!slot) {
        slot = std::make_unique<Frame>();
        slot->fill(0);
    }
    return *slot;
}

const PhysicalMemory::Frame *
PhysicalMemory::frame_for(PAddr addr) const
{
    const auto it = frames_.find(addr / kFrameSize);
    return it == frames_.end() ? nullptr : it->second.get();
}

std::uint8_t *
PhysicalMemory::frame_bytes(PAddr frame_base)
{
    return frame_for(frame_base).data();
}

const std::uint8_t *
PhysicalMemory::frame_bytes(PAddr frame_base) const
{
    const Frame *frame = frame_for(frame_base);
    return frame == nullptr ? nullptr : frame->data();
}

void
PhysicalMemory::read(PAddr addr, void *out, std::size_t len) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        const std::uint64_t off = addr % kFrameSize;
        const std::size_t chunk = std::min<std::size_t>(len, kFrameSize - off);
        if (const Frame *frame = frame_for(addr))
            std::memcpy(dst, frame->data() + off, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::write(PAddr addr, const void *in, std::size_t len)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    while (len > 0) {
        const std::uint64_t off = addr % kFrameSize;
        const std::size_t chunk = std::min<std::size_t>(len, kFrameSize - off);
        std::memcpy(frame_for(addr).data() + off, src, chunk);
        src += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::fill(PAddr addr, std::uint8_t byte, std::size_t len)
{
    while (len > 0) {
        const std::uint64_t off = addr % kFrameSize;
        const std::size_t chunk = std::min<std::size_t>(len, kFrameSize - off);
        if (byte != 0)
            std::memset(frame_for(addr).data() + off, byte, chunk);
        else if (chunk == kFrameSize)
            frames_.erase(addr / kFrameSize); // reads as 0 unbacked
        else if (const auto it = frames_.find(addr / kFrameSize);
                 it != frames_.end())
            std::memset(it->second->data() + off, 0, chunk);
        addr += chunk;
        len -= chunk;
    }
}

} // namespace gpushield
