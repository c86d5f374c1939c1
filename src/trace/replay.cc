#include "trace/replay.h"

#include <bit>

#include "common/event_queue.h"
#include "common/log.h"
#include "mem/hierarchy.h"
#include "sim/lsu.h"

namespace gpushield::trace {

namespace {

constexpr std::uint32_t kTraceMagic = 0x47545243; // "GTRC"
constexpr std::uint32_t kTraceVersion = 1;

void
put_u32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
put_u64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
get_u32(const std::vector<std::uint8_t> &in, std::size_t &pos)
{
    if (pos + 4 > in.size())
        fatal("memory trace truncated");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(in[pos++]) << (8 * i);
    return v;
}

std::uint64_t
get_u64(const std::vector<std::uint8_t> &in, std::size_t &pos)
{
    if (pos + 8 > in.size())
        fatal("memory trace truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[pos++]) << (8 * i);
    return v;
}

} // namespace

void
MemTraceRecorder::on_mem_check(const MemCheckEvent &ev)
{
    const MemOp &mem = *ev.op;
    TraceRecord rec;
    rec.core = ev.core;
    rec.kernel = ev.kernel;
    rec.warp = ev.warp;
    rec.pc = mem.pc;
    rec.is_store = mem.is_store;
    rec.size = mem.size;
    rec.mask = mem.mask;
    rec.lane_addr = mem.lane_addr;
    records_.push_back(rec);
}

std::vector<std::uint8_t>
MemTraceRecorder::save() const
{
    std::vector<std::uint8_t> out;
    put_u32(out, kTraceMagic);
    put_u32(out, kTraceVersion);
    put_u64(out, records_.size());
    for (const TraceRecord &rec : records_) {
        put_u32(out, rec.core);
        put_u32(out, rec.kernel);
        put_u32(out, rec.warp);
        put_u32(out, static_cast<std::uint32_t>(rec.pc));
        put_u32(out, (rec.is_store ? 1u : 0u) |
                         (static_cast<std::uint32_t>(rec.size) << 8));
        put_u32(out, rec.mask);
        // Only active lanes are stored (the mask recovers positions).
        for (unsigned lane = 0; lane < kWarpSize; ++lane)
            if ((rec.mask >> lane) & 1)
                put_u64(out, rec.lane_addr[lane]);
    }
    return out;
}

std::vector<TraceRecord>
MemTraceRecorder::load(const std::vector<std::uint8_t> &bytes)
{
    std::size_t pos = 0;
    if (get_u32(bytes, pos) != kTraceMagic)
        fatal("memory trace: bad magic");
    if (get_u32(bytes, pos) != kTraceVersion)
        fatal("memory trace: version mismatch");
    const std::uint64_t count = get_u64(bytes, pos);

    std::vector<TraceRecord> records;
    records.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceRecord rec;
        rec.core = get_u32(bytes, pos);
        rec.kernel = static_cast<KernelId>(get_u32(bytes, pos));
        rec.warp = get_u32(bytes, pos);
        rec.pc = static_cast<int>(get_u32(bytes, pos));
        const std::uint32_t flags = get_u32(bytes, pos);
        rec.is_store = (flags & 1) != 0;
        rec.size = static_cast<std::uint8_t>(flags >> 8);
        rec.mask = get_u32(bytes, pos);
        for (unsigned lane = 0; lane < kWarpSize; ++lane)
            if ((rec.mask >> lane) & 1)
                rec.lane_addr[lane] = get_u64(bytes, pos);
        records.push_back(rec);
    }
    if (pos != bytes.size())
        fatal("memory trace: trailing bytes");
    return records;
}

ReplayResult
replay_trace(const std::vector<TraceRecord> &records, const GpuConfig &cfg,
             GpuDevice &device)
{
    ReplayResult result;
    EventQueue eq;
    MemoryHierarchy hier(eq, device.page_table(), cfg.mem, cfg.num_cores);

    // Per-core in-order streams: each core owns the subsequence of
    // records it originally executed and replays them with a window of
    // outstanding memory instructions — the TLP a warp scheduler
    // provides (one instruction per resident warp).
    struct CoreStream
    {
        std::vector<const TraceRecord *> records;
        std::size_t next = 0;
        unsigned in_flight = 0;
    };
    std::vector<CoreStream> streams(cfg.num_cores);
    for (const TraceRecord &rec : records) {
        if (rec.core >= cfg.num_cores)
            fatal("replay_trace: trace core exceeds configuration");
        streams[rec.core].records.push_back(&rec);
    }
    const unsigned window = cfg.max_warps_per_core;

    std::uint64_t outstanding_total = 0;

    // Issues records of core `c` while its window has room.
    const std::function<void(unsigned)> issue_more = [&](unsigned c) {
        CoreStream &stream = streams[c];
        while (stream.in_flight < window &&
               stream.next < stream.records.size()) {
            const TraceRecord &rec = *stream.records[stream.next++];
            ++result.instructions;

            MemOp op;
            op.mask = rec.mask;
            op.size = rec.size;
            op.is_store = rec.is_store;
            op.lane_addr = rec.lane_addr;
            const std::vector<VAddr> lines =
                coalesce(op, cfg.mem.l1.line_size);
            result.transactions += lines.size();
            if (lines.empty())
                continue;

            ++stream.in_flight;
            ++outstanding_total;
            auto remaining = std::make_shared<unsigned>(
                static_cast<unsigned>(lines.size()));
            auto on_done = [&, c, remaining] {
                if (--*remaining == 0) {
                    --streams[c].in_flight;
                    --outstanding_total;
                    issue_more(c);
                }
            };
            unsigned faulted = 0;
            for (const VAddr line : lines) {
                const AccessIssue issue =
                    hier.access(c, line, rec.is_store, on_done);
                if (issue.translation_fault || issue.permission_fault)
                    ++faulted; // these lines never call back
            }
            // Faulting lines complete immediately in replay.
            for (unsigned f = 0; f < faulted; ++f)
                on_done();
        }
    };

    for (unsigned c = 0; c < cfg.num_cores; ++c)
        issue_more(c);

    // Drive the clock until every stream drains.
    const Cycle deadline = cfg.max_cycles;
    while (eq.now() < deadline) {
        if (outstanding_total == 0)
            break;
        eq.step();
    }
    if (eq.now() >= deadline)
        fatal("replay_trace: cycle budget exhausted");

    result.cycles = eq.now();
    result.hierarchy = hier.stats();
    std::uint64_t hits = 0, accesses = 0;
    for (unsigned c = 0; c < cfg.num_cores; ++c) {
        hits += hier.l1(c).stats().get("hits");
        accesses += hier.l1(c).stats().get("accesses");
    }
    result.l1_hit_rate =
        accesses == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(accesses);
    return result;
}

} // namespace gpushield::trace
