/**
 * @file
 * Google-benchmark micro-benchmarks of the GPUShield hardware-model
 * components on the critical path: the ID cipher, RCache lookups, BCU
 * checks, RBT entry serialization, and the coalescer. These measure
 * *simulator* throughput (useful when scaling experiments up), not
 * modeled hardware latency — that is fixed by configuration.
 */

#include <benchmark/benchmark.h>

#include "shield/cipher.h"
#include "shield/pointer.h"
#include "shield/rbt.h"
#include "shield/rcache.h"
#include "shield/region_backend.h"
#include "sim/lsu.h"

namespace {

using namespace gpushield;

void
BM_CipherEncryptDecrypt(benchmark::State &state)
{
    IdCipher cipher(0xFEED);
    std::uint16_t id = 1;
    for (auto _ : state) {
        const std::uint16_t enc = cipher.encrypt(id);
        benchmark::DoNotOptimize(cipher.decrypt(enc));
        id = (id + 1) & kBufferIdMask;
    }
}
BENCHMARK(BM_CipherEncryptDecrypt);

void
BM_RCacheLookupHit(benchmark::State &state)
{
    RCache rcache{RCacheConfig{}};
    Bounds b;
    b.base_addr = 0x1000;
    b.size = 4096;
    b.valid = true;
    b.kernel = 1;
    rcache.fill(1, 42, b);
    for (auto _ : state)
        benchmark::DoNotOptimize(rcache.lookup(1, 42));
}
BENCHMARK(BM_RCacheLookupHit);

void
BM_BcuCheckL1Hit(benchmark::State &state)
{
    PhysicalMemory mem;
    RegionBoundsTable rbt(mem, 0xE0000000ull);
    rbt.clear_all();
    Bounds b;
    b.base_addr = 0x1000;
    b.size = 1 << 20;
    b.valid = true;
    b.kernel = 1;
    rbt.set(7, b);

    RegionShieldBackend bcu{RCacheConfig{}};
    bcu.register_kernel(1, 0xABC, &rbt);
    IdCipher cipher(0xABC);

    BcuRequest req;
    req.kernel = 1;
    req.pointer = make_tagged_ptr(0x1000, cipher.encrypt(7));
    req.min_addr = 0x1000;
    req.max_end = 0x1080;
    req.num_transactions = 1;
    req.dcache_hit = true;
    bcu.check(req); // warm
    for (auto _ : state)
        benchmark::DoNotOptimize(bcu.check(req));
}
BENCHMARK(BM_BcuCheckL1Hit);

void
BM_RbtSetGet(benchmark::State &state)
{
    PhysicalMemory mem;
    RegionBoundsTable rbt(mem, 0xE0000000ull);
    Bounds b;
    b.base_addr = 0x2512546000ull;
    b.size = 1024;
    b.valid = true;
    BufferId id = 1;
    for (auto _ : state) {
        rbt.set(id, b);
        benchmark::DoNotOptimize(rbt.get(id));
        id = (id + 1) & kBufferIdMask;
    }
}
BENCHMARK(BM_RbtSetGet);

void
BM_CoalesceWarp(benchmark::State &state)
{
    MemOp op;
    op.mask = kFullMask;
    op.size = 4;
    const bool strided = state.range(0) != 0;
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        op.lane_addr[lane] = 0x1000 + lane * (strided ? 512 : 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(coalesce(op, kLineSize));
}
BENCHMARK(BM_CoalesceWarp)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
