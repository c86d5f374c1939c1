#include "workloads/suites.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "workloads/kernels.h"

namespace gpushield::workloads {

namespace {

constexpr unsigned kElem = 4;

/** Uploads `count` int32 values produced by @p gen into @p handle. */
template <typename Gen>
void
fill_buffer(Driver &driver, BufferHandle handle, std::size_t count, Gen gen)
{
    std::vector<std::int32_t> data(count);
    for (std::size_t i = 0; i < count; ++i)
        data[i] = gen(i);
    driver.upload(handle, data.data(), data.size() * sizeof(std::int32_t));
}

/** Streaming family (vectoradd, blackscholes, backprop, ...). */
WorkloadInstance
streaming(Driver &driver, const std::string &name, unsigned inputs,
          std::uint32_t ntid, std::uint32_t nctaid, bool guard = false,
          bool base_offset = false, unsigned inner = 2)
{
    PatternParams p;
    p.name = name;
    p.inputs = inputs;
    p.tid_guard = guard;
    p.base_offset = base_offset;
    p.inner_iters = inner;

    WorkloadInstance w;
    w.program = make_streaming(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    for (unsigned i = 0; i < inputs; ++i) {
        w.buffers.push_back(driver.create_buffer(n * kElem, false,
                                                 base_offset,
                                                 name + ".in" +
                                                     std::to_string(i)));
        fill_buffer(driver, w.buffers.back(), n, [i](std::size_t j) {
            return static_cast<std::int32_t>(j + i);
        });
    }
    w.buffers.push_back(
        driver.create_buffer(n * kElem, false, base_offset, name + ".out"));
    if (guard) {
        w.scalars.assign(w.program.args.size(), 0);
        w.scalar_static.assign(w.program.args.size(), false);
        // Guard bound: a runtime scalar (not statically known), slightly
        // below the thread count like the kmeans kernel of Fig. 13.
        w.scalars.back() = static_cast<std::int64_t>(n - n / 16);
    }
    return w;
}

/** Strided / permuted store family (hybridsort, dwt, sorting). */
WorkloadInstance
strided(Driver &driver, const std::string &name, unsigned stride,
        std::uint32_t ntid, std::uint32_t nctaid)
{
    PatternParams p;
    p.name = name;
    p.stride = stride;

    WorkloadInstance w;
    w.program = make_strided(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".in"));
    fill_buffer(driver, w.buffers.back(), n,
                [](std::size_t j) { return static_cast<std::int32_t>(j); });
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".out"));
    w.scalars.assign(w.program.args.size(), 0);
    w.scalar_static.assign(w.program.args.size(), true);
    w.scalars.back() = static_cast<std::int64_t>(n);
    return w;
}

/** Stencil family (hotspot, srad, pathfinder, conv). */
WorkloadInstance
stencil(Driver &driver, const std::string &name, unsigned sweeps,
        std::uint32_t ntid, std::uint32_t nctaid)
{
    PatternParams p;
    p.name = name;
    p.inner_iters = sweeps;

    WorkloadInstance w;
    w.program = make_stencil(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".in"));
    fill_buffer(driver, w.buffers.back(), n,
                [](std::size_t j) { return static_cast<std::int32_t>(j % 97); });
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".out"));
    w.scalars.assign(w.program.args.size(), 0);
    w.scalar_static.assign(w.program.args.size(), true);
    w.scalars.back() = static_cast<std::int64_t>(n);
    return w;
}

/** Reduction family (Reduction, ScalarProd, Histogram). */
WorkloadInstance
reduction(Driver &driver, const std::string &name, std::uint32_t ntid,
          std::uint32_t nctaid)
{
    PatternParams p;
    p.name = name;

    WorkloadInstance w;
    w.program = make_reduction(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".in"));
    fill_buffer(driver, w.buffers.back(), n,
                [](std::size_t j) { return static_cast<std::int32_t>(j & 7); });
    w.buffers.push_back(driver.create_buffer(
        std::uint64_t{nctaid} * kElem, false, false, name + ".out"));
    return w;
}

/** Indirect-gather family (spmv, nn variants, particlefilter). */
WorkloadInstance
indirect(Driver &driver, const std::string &name, std::uint32_t ntid,
         std::uint32_t nctaid, std::uint64_t seed)
{
    PatternParams p;
    p.name = name;

    WorkloadInstance w;
    w.program = make_indirect(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".index"));
    Rng rng(seed);
    fill_buffer(driver, w.buffers.back(), n, [&](std::size_t) {
        return static_cast<std::int32_t>(rng.below(n));
    });
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".data"));
    fill_buffer(driver, w.buffers[1], n,
                [](std::size_t j) { return static_cast<std::int32_t>(j); });
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".out"));
    return w;
}

/** Graph / CSR family (bfs, bc, sssp, pagerank, nw). */
WorkloadInstance
graph(Driver &driver, const std::string &name, unsigned avg_degree,
      std::uint32_t ntid, std::uint32_t nctaid, std::uint64_t seed)
{
    PatternParams p;
    p.name = name;

    WorkloadInstance w;
    w.program = make_graph(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    const std::uint64_t edges = n * avg_degree;

    Rng rng(seed);
    // CSR row pointers: monotone with ~avg_degree spacing. The row_ptr
    // buffer holds n+1 entries.
    std::vector<std::int32_t> rows(n + 1);
    std::uint32_t cursor = 0;
    for (std::uint64_t v = 0; v < n; ++v) {
        rows[v] = static_cast<std::int32_t>(cursor);
        cursor += static_cast<std::uint32_t>(rng.below(2 * avg_degree + 1));
        cursor = std::min<std::uint32_t>(cursor,
                                         static_cast<std::uint32_t>(edges));
    }
    rows[n] = static_cast<std::int32_t>(cursor);

    w.buffers.push_back(driver.create_buffer((n + 1) * kElem, false, false,
                                             name + ".row"));
    driver.upload(w.buffers.back(), rows.data(),
                  rows.size() * sizeof(std::int32_t));
    w.buffers.push_back(driver.create_buffer(
        std::max<std::uint64_t>(edges, 1) * kElem, false, false,
        name + ".col"));
    fill_buffer(driver, w.buffers.back(), edges, [&](std::size_t) {
        return static_cast<std::int32_t>(rng.below(n));
    });
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".val"));
    fill_buffer(driver, w.buffers[2], n,
                [](std::size_t j) { return static_cast<std::int32_t>(j & 15); });
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".out"));
    return w;
}

/** Shared-memory-tiled matrix multiply (mm, GEMM, lud). */
WorkloadInstance
tiled_mm(Driver &driver, const std::string &name, std::uint32_t dim,
         std::uint32_t ntid)
{
    PatternParams p;
    p.name = name;

    WorkloadInstance w;
    w.program = make_tiled_mm(p);
    w.ntid = ntid;
    w.nctaid = std::max<std::uint32_t>(1, dim * dim / ntid);
    const std::uint64_t n2 = std::uint64_t{dim} * dim;
    for (const char *nm : {".A", ".B", ".C"}) {
        w.buffers.push_back(driver.create_buffer(n2 * kElem, false, false,
                                                 name + nm));
        fill_buffer(driver, w.buffers.back(), n2, [](std::size_t j) {
            return static_cast<std::int32_t>(j % 31);
        });
    }
    w.scalars.assign(w.program.args.size(), 0);
    w.scalar_static.assign(w.program.args.size(), true);
    w.scalars.back() = dim;
    return w;
}

/** Local-array family (lavaMD, myocyte, heartwall). */
WorkloadInstance
local_array(Driver &driver, const std::string &name, unsigned elems,
            std::uint32_t ntid, std::uint32_t nctaid)
{
    PatternParams p;
    p.name = name;
    p.inner_iters = elems;

    WorkloadInstance w;
    w.program = make_local_array(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".in"));
    fill_buffer(driver, w.buffers.back(), n,
                [](std::size_t j) { return static_cast<std::int32_t>(j); });
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".out"));
    return w;
}

/** Many-buffer family (streamcluster, cfd, Chai-like kernels). */
WorkloadInstance
multibuffer(Driver &driver, const std::string &name, unsigned inputs,
            unsigned rounds, std::uint32_t ntid, std::uint32_t nctaid)
{
    PatternParams p;
    p.name = name;
    p.inputs = inputs;
    p.inner_iters = rounds;

    WorkloadInstance w;
    w.program = make_multibuffer(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    for (unsigned i = 0; i < inputs; ++i) {
        // Stagger sizes so buffer bases don't alias to the same L1 set
        // (real allocations are size-varied; a uniform power-of-two
        // stride would artificially conflict-miss every access).
        const std::uint64_t pad = (i + 1) * 640;
        w.buffers.push_back(driver.create_buffer(
            n * kElem + pad, false, false, name + ".b" + std::to_string(i)));
        fill_buffer(driver, w.buffers.back(), n, [i](std::size_t j) {
            return static_cast<std::int32_t>(j * (i + 1) % 101);
        });
    }
    w.buffers.push_back(driver.create_buffer(n * kElem, false, false,
                                             name + ".out"));
    return w;
}

using Make = std::function<WorkloadInstance(Driver &)>;

BenchmarkDef
def(std::string name, std::string suite, std::string category,
    bool sensitive, Make make)
{
    BenchmarkDef d;
    d.name = std::move(name);
    d.suite = std::move(suite);
    d.category = std::move(category);
    d.rcache_sensitive = sensitive;
    d.make = std::move(make);
    return d;
}

} // namespace

const std::vector<BenchmarkDef> &
cuda_benchmarks()
{
    static const std::vector<BenchmarkDef> defs = [] {
        std::vector<BenchmarkDef> v;
        // --- Machine learning --------------------------------------
        v.push_back(def("mm", "CUDA-SDK", "ML", false, [](Driver &d) {
            return tiled_mm(d, "mm", 128, 256);
        }));
        v.push_back(def("ConvSep", "CUDA-SDK", "ML", true, [](Driver &d) {
            return stencil(d, "ConvSep", 3, 256, 64);
        }));
        v.push_back(def("kmeans", "Rodinia", "ML", false, [](Driver &d) {
            return streaming(d, "kmeans", 2, 256, 64, /*guard=*/true);
        }));
        v.push_back(def("backprop", "Rodinia", "ML", false, [](Driver &d) {
            return streaming(d, "backprop", 3, 256, 64);
        }));
        // --- Linear algebra -----------------------------------------
        v.push_back(def("sad", "Parboil", "LA", false, [](Driver &d) {
            return strided(d, "sad", 9, 256, 64);
        }));
        v.push_back(def("spmv", "Parboil", "LA", false, [](Driver &d) {
            return graph(d, "spmv", 6, 256, 48, 11);
        }));
        v.push_back(def("stencil", "Parboil", "LA", false, [](Driver &d) {
            return stencil(d, "stencil", 2, 256, 64);
        }));
        v.push_back(def("ScalarProd", "CUDA-SDK", "LA", true, [](Driver &d) {
            return reduction(d, "ScalarProd", 256, 64);
        }));
        v.push_back(def("vectoradd", "CUDA-SDK", "LA", false, [](Driver &d) {
            return streaming(d, "vectoradd", 2, 256, 64);
        }));
        v.push_back(def("dct", "CUDA-SDK", "LA", false, [](Driver &d) {
            return strided(d, "dct", 8, 256, 64);
        }));
        v.push_back(def("Reduction", "CUDA-SDK", "LA", true, [](Driver &d) {
            return reduction(d, "Reduction", 256, 96);
        }));
        // --- Graph traversal ----------------------------------------
        v.push_back(def("bc", "GraphBig", "GT", true, [](Driver &d) {
            return graph(d, "bc", 8, 256, 48, 21);
        }));
        v.push_back(def("bfs-dtc", "GraphBig", "GT", true, [](Driver &d) {
            return graph(d, "bfs-dtc", 4, 256, 64, 22);
        }));
        v.push_back(def("gc-dtc", "GraphBig", "GT", true, [](Driver &d) {
            return graph(d, "gc-dtc", 5, 256, 48, 23);
        }));
        v.push_back(def("sssp-dwc", "GraphBig", "GT", true, [](Driver &d) {
            return graph(d, "sssp-dwc", 6, 256, 48, 24);
        }));
        v.push_back(def("lavaMD", "Rodinia", "GT", false, [](Driver &d) {
            return local_array(d, "lavaMD", 6, 128, 48);
        }));
        v.push_back(def("gaussian", "Rodinia", "GT", false, [](Driver &d) {
            return streaming(d, "gaussian", 2, 256, 48, /*guard=*/true);
        }));
        v.push_back(def("nn", "Rodinia", "GT", false, [](Driver &d) {
            return streaming(d, "nn", 1, 256, 64);
        }));
        v.push_back(def("nn-256k-1", "Rodinia", "GT", true, [](Driver &d) {
            return streaming(d, "nn-256k-1", 1, 256, 256);
        }));
        // --- Graph iterative ----------------------------------------
        v.push_back(def("pagerank", "GraphBig", "GI", false, [](Driver &d) {
            return graph(d, "pagerank", 8, 256, 48, 31);
        }));
        v.push_back(def("kcore", "GraphBig", "GI", false, [](Driver &d) {
            return graph(d, "kcore", 5, 256, 48, 32);
        }));
        v.push_back(def("trianglecount", "GraphBig", "GI", false,
                        [](Driver &d) {
            return graph(d, "trianglecount", 7, 256, 32, 33);
        }));
        // --- Physics / modeling -------------------------------------
        v.push_back(def("cutcp", "Parboil", "PS", false, [](Driver &d) {
            return local_array(d, "cutcp", 4, 128, 48);
        }));
        v.push_back(def("tpacf", "Parboil", "PS", false, [](Driver &d) {
            return reduction(d, "tpacf", 256, 48);
        }));
        v.push_back(def("blacksholes", "CUDA-SDK", "PS", false,
                        [](Driver &d) {
            return streaming(d, "blacksholes", 3, 256, 64, false, false, 6);
        }));
        v.push_back(def("mersennetwister", "CUDA-SDK", "PS", false,
                        [](Driver &d) {
            return streaming(d, "mersennetwister", 1, 256, 64, false, false,
                             8);
        }));
        v.push_back(def("sorting", "CUDA-SDK", "PS", false, [](Driver &d) {
            return strided(d, "sorting", 2, 256, 64);
        }));
        v.push_back(def("MergeSort", "CUDA-SDK", "PS", true, [](Driver &d) {
            return strided(d, "MergeSort", 4, 256, 64);
        }));
        // --- Image / media ------------------------------------------
        v.push_back(def("mri-q", "Parboil", "IM", false, [](Driver &d) {
            return streaming(d, "mri-q", 2, 256, 64, false, false, 8);
        }));
        v.push_back(def("SobolQRNG", "CUDA-SDK", "IM", true, [](Driver &d) {
            return strided(d, "SobolQRNG", 16, 256, 64);
        }));
        v.push_back(def("DwtHarr", "CUDA-SDK", "IM", false, [](Driver &d) {
            return strided(d, "DwtHarr", 2, 256, 64);
        }));
        v.push_back(def("hotspot", "Rodinia", "IM", false, [](Driver &d) {
            return stencil(d, "hotspot", 4, 256, 64);
        }));
        v.push_back(def("lud-64", "Rodinia", "IM", true, [](Driver &d) {
            return tiled_mm(d, "lud-64", 64, 128);
        }));
        v.push_back(def("lud-256", "Rodinia", "IM", true, [](Driver &d) {
            return tiled_mm(d, "lud-256", 256, 256);
        }));
        v.push_back(def("LineOfSight", "CUDA-SDK", "IM", true,
                        [](Driver &d) {
            return stencil(d, "LineOfSight", 2, 256, 64);
        }));
        v.push_back(def("Dxtc", "CUDA-SDK", "IM", true, [](Driver &d) {
            return strided(d, "Dxtc", 8, 256, 48);
        }));
        v.push_back(def("Histogram", "CUDA-SDK", "IM", true, [](Driver &d) {
            return reduction(d, "Histogram", 256, 64);
        }));
        v.push_back(def("HSOpticalFlow", "CUDA-SDK", "IM", false,
                        [](Driver &d) {
            return stencil(d, "HSOpticalFlow", 3, 256, 64);
        }));
        // --- Additional Rodinia / Parboil / CUDA-SDK kernels toward
        // --- the paper's 88-benchmark CUDA corpus --------------------
        v.push_back(def("b+tree", "Rodinia", "GT", false, [](Driver &d) {
            return graph(d, "b+tree", 3, 256, 48, 71);
        }));
        v.push_back(def("dwt2d", "Rodinia", "IM", false, [](Driver &d) {
            return strided(d, "dwt2d", 2, 256, 64);
        }));
        v.push_back(def("srad", "Rodinia", "IM", false, [](Driver &d) {
            return stencil(d, "srad", 2, 256, 64);
        }));
        v.push_back(def("myocyte", "Rodinia", "PS", false, [](Driver &d) {
            return local_array(d, "myocyte", 8, 128, 24);
        }));
        v.push_back(def("particlefilter", "Rodinia", "PS", false,
                        [](Driver &d) {
            return indirect(d, "particlefilter", 256, 48, 72);
        }));
        v.push_back(def("hybridsort", "Rodinia", "DM", false,
                        [](Driver &d) {
            return strided(d, "hybridsort", 7, 256, 64);
        }));
        v.push_back(def("cfd", "Rodinia", "PS", false, [](Driver &d) {
            return multibuffer(d, "cfd", 8, 2, 256, 32);
        }));
        v.push_back(def("hotspot3D", "Rodinia", "IM", false,
                        [](Driver &d) {
            return stencil(d, "hotspot3D", 6, 256, 64);
        }));
        v.push_back(def("heartwall", "Rodinia", "IM", false,
                        [](Driver &d) {
            return local_array(d, "heartwall", 5, 128, 48);
        }));
        v.push_back(def("pathfinder", "Rodinia", "PS", false,
                        [](Driver &d) {
            return stencil(d, "pathfinder", 2, 256, 64);
        }));
        v.push_back(def("bfs", "Rodinia", "GT", false, [](Driver &d) {
            return graph(d, "bfs", 4, 256, 64, 73);
        }));
        v.push_back(def("lbm", "Parboil", "PS", false, [](Driver &d) {
            return multibuffer(d, "lbm", 9, 1, 256, 48);
        }));
        v.push_back(def("histo", "Parboil", "IM", false, [](Driver &d) {
            return reduction(d, "histo", 256, 64);
        }));
        v.push_back(def("mri-gridding", "Parboil", "IM", false,
                        [](Driver &d) {
            return indirect(d, "mri-gridding", 256, 48, 74);
        }));
        v.push_back(def("transpose", "CUDA-SDK", "LA", false,
                        [](Driver &d) {
            return strided(d, "transpose", 32, 256, 64);
        }));
        v.push_back(def("MonteCarlo", "CUDA-SDK", "PS", false,
                        [](Driver &d) {
            return streaming(d, "MonteCarlo", 2, 256, 64, false, false, 8);
        }));
        v.push_back(def("mummergpu", "Rodinia", "GT", false, [](Driver &d) {
            return graph(d, "mummergpu", 5, 256, 48, 81);
        }));
        v.push_back(def("cell", "Rodinia", "PS", false, [](Driver &d) {
            return stencil(d, "cell", 3, 256, 64);
        }));
        v.push_back(def("nbody", "CUDA-SDK", "PS", false, [](Driver &d) {
            return local_array(d, "nbody", 6, 128, 64);
        }));
        v.push_back(def("scan", "CUDA-SDK", "LA", false, [](Driver &d) {
            return reduction(d, "scan", 256, 64);
        }));
        v.push_back(def("radixsort", "CUDA-SDK", "PS", false,
                        [](Driver &d) {
            return strided(d, "radixsort", 16, 256, 64);
        }));
        v.push_back(def("lud-16", "Rodinia", "IM", false, [](Driver &d) {
            return tiled_mm(d, "lud-16", 32, 64);
        }));
        v.push_back(def("nn-64k", "Rodinia", "GT", false, [](Driver &d) {
            return streaming(d, "nn-64k", 1, 256, 128);
        }));
        v.push_back(def("kmeans-fuzzy", "Rodinia", "ML", false,
                        [](Driver &d) {
            return streaming(d, "kmeans-fuzzy", 3, 256, 64,
                             /*guard=*/true);
        }));
        v.push_back(def("srad-v2", "Rodinia", "IM", false, [](Driver &d) {
            return stencil(d, "srad-v2", 4, 256, 48);
        }));
        v.push_back(def("backprop-l2", "Rodinia", "ML", false,
                        [](Driver &d) {
            return streaming(d, "backprop-l2", 4, 256, 48);
        }));
        v.push_back(def("cutcp-large", "Parboil", "PS", false,
                        [](Driver &d) {
            return local_array(d, "cutcp-large", 4, 128, 96);
        }));
        v.push_back(def("sgemm", "Parboil", "LA", false, [](Driver &d) {
            return tiled_mm(d, "sgemm", 128, 256);
        }));
        v.push_back(def("dc-dtc", "GraphBig", "GT", false, [](Driver &d) {
            return graph(d, "dc-dtc", 5, 256, 48, 91);
        }));
        v.push_back(def("cc-dtc", "GraphBig", "GT", false, [](Driver &d) {
            return graph(d, "cc-dtc", 4, 256, 48, 92);
        }));
        v.push_back(def("bfs-twc", "GraphBig", "GT", false, [](Driver &d) {
            return graph(d, "bfs-twc", 6, 256, 48, 93);
        }));
        v.push_back(def("sssp-dtc", "GraphBig", "GT", false,
                        [](Driver &d) {
            return graph(d, "sssp-dtc", 5, 256, 48, 94);
        }));
        v.push_back(def("gc-twc", "GraphBig", "GI", false, [](Driver &d) {
            return graph(d, "gc-twc", 6, 256, 40, 95);
        }));
        v.push_back(def("leukocyte", "Rodinia", "IM", false,
                        [](Driver &d) {
            return stencil(d, "leukocyte", 5, 256, 48);
        }));
        v.push_back(def("huffman", "Rodinia", "DM", false, [](Driver &d) {
            return indirect(d, "huffman", 256, 48, 96);
        }));
        v.push_back(def("srad-v1", "Rodinia", "IM", false, [](Driver &d) {
            return stencil(d, "srad-v1", 3, 256, 48);
        }));
        v.push_back(def("bfs-parboil", "Parboil", "GT", false,
                        [](Driver &d) {
            return graph(d, "bfs-parboil", 4, 256, 48, 97);
        }));
        v.push_back(def("FDTD3d", "CUDA-SDK", "PS", false, [](Driver &d) {
            return stencil(d, "FDTD3d", 6, 256, 48);
        }));
        v.push_back(def("binomialOptions", "CUDA-SDK", "PS", false,
                        [](Driver &d) {
            return streaming(d, "binomialOptions", 2, 256, 48, false,
                             false, 10);
        }));
        v.push_back(def("SobelFilter", "CUDA-SDK", "IM", false,
                        [](Driver &d) {
            return stencil(d, "SobelFilter", 2, 256, 48);
        }));
        v.push_back(def("recursiveGaussian", "CUDA-SDK", "IM", false,
                        [](Driver &d) {
            return stencil(d, "recursiveGaussian", 3, 256, 48);
        }));
        v.push_back(def("eigenvalues", "CUDA-SDK", "LA", false,
                        [](Driver &d) {
            return reduction(d, "eigenvalues", 256, 48);
        }));
        v.push_back(def("interval", "CUDA-SDK", "PS", false,
                        [](Driver &d) {
            return local_array(d, "interval", 5, 128, 48);
        }));
        v.push_back(def("convolutionTexture", "CUDA-SDK", "IM", false,
                        [](Driver &d) {
            return strided(d, "convolutionTexture", 4, 256, 48);
        }));
        v.push_back(def("volumeRender", "CUDA-SDK", "IM", false,
                        [](Driver &d) {
            return indirect(d, "volumeRender", 256, 48, 98);
        }));
        v.push_back(def("bilateralFilter", "CUDA-SDK", "IM", false,
                        [](Driver &d) {
            return stencil(d, "bilateralFilter", 4, 256, 48);
        }));
        v.push_back(def("matrixMul", "CUDA-SDK", "LA", false,
                        [](Driver &d) {
            return tiled_mm(d, "matrixMul", 96, 128);
        }));
        v.push_back(def("fastWalshTransform", "CUDA-SDK", "LA", false,
                        [](Driver &d) {
            return strided(d, "fastWalshTransform", 8, 256, 48);
        }));
        // --- Data mining --------------------------------------------
        v.push_back(def("streamcluster", "Rodinia", "DM", true,
                        [](Driver &d) {
            // Many resident buffers cycling through the 4-entry L1
            // RCache with high D-cache locality: the paper's worst case
            // (one-cycle bubbles on L1 RCache misses).
            return multibuffer(d, "streamcluster", 8, 4, 256, 16);
        }));
        v.push_back(def("nw", "Rodinia", "DM", true, [](Driver &d) {
            return graph(d, "nw", 4, 256, 48, 41);
        }));
        return v;
    }();
    return defs;
}

const std::vector<BenchmarkDef> &
opencl_benchmarks()
{
    static const std::vector<BenchmarkDef> defs = [] {
        std::vector<BenchmarkDef> v;
        // OpenCL kernels lean on the send-style Method C addressing
        // (Fig. 3b), so most instances use base+offset mode.
        const std::uint32_t ntid = 128; // 4 warps per workgroup (7 HW thr.)
        v.push_back(def("backprop", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return streaming(d, "backprop.cl", 3, ntid, 288, false, true);
        }));
        v.push_back(def("bfs", "OpenCL", "OpenCL", false, [ntid](Driver &d) {
            return graph(d, "bfs.cl", 4, ntid, 288, 51);
        }));
        v.push_back(def("BitonicSort", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return strided(d, "BitonicSort.cl", 2, ntid, 288);
        }));
        v.push_back(def("GEMM", "OpenCL", "OpenCL", false, [ntid](Driver &d) {
            return tiled_mm(d, "GEMM.cl", 128, ntid);
        }));
        v.push_back(def("image", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return stencil(d, "image.cl", 3, ntid, 288);
        }));
        v.push_back(def("lavaMD", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return local_array(d, "lavaMD.cl", 6, ntid, 192);
        }));
        v.push_back(def("MedianFilter", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return stencil(d, "MedianFilter.cl", 2, ntid, 288);
        }));
        v.push_back(def("MonteCarlo", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return streaming(d, "MonteCarlo.cl", 2, ntid, 288, false, true,
                             8);
        }));
        v.push_back(def("pathfinder", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return stencil(d, "pathfinder.cl", 2, ntid, 288);
        }));
        v.push_back(def("svm", "OpenCL", "OpenCL", false, [ntid](Driver &d) {
            return streaming(d, "svm.cl", 2, ntid, 288, false, true, 4);
        }));
        v.push_back(def("cfd", "OpenCL", "OpenCL", false, [ntid](Driver &d) {
            return multibuffer(d, "cfd.cl", 8, 2, ntid, 192);
        }));
        v.push_back(def("hotspot", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return stencil(d, "hotspot.cl", 4, ntid, 288);
        }));
        v.push_back(def("hotspot3D", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return stencil(d, "hotspot3D.cl", 6, ntid, 288);
        }));
        v.push_back(def("hybridsort", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return strided(d, "hybridsort.cl", 7, ntid, 288);
        }));
        v.push_back(def("kmeans", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return streaming(d, "kmeans.cl", 2, ntid, 288, /*guard=*/true);
        }));
        v.push_back(def("nn", "OpenCL", "OpenCL", false, [ntid](Driver &d) {
            return streaming(d, "nn.cl", 1, ntid, 288);
        }));
        v.push_back(def("streamcluster", "OpenCL", "OpenCL", false,
                        [ntid](Driver &d) {
            return multibuffer(d, "streamcluster.cl", 6, 3, ntid, 72);
        }));
        return v;
    }();
    return defs;
}

const std::vector<BenchmarkDef> &
rodinia_fig19_benchmarks()
{
    // Single-launch benchmarks use full-size inputs (long kernels, so
    // per-launch tool costs amortize, as on the authors' testbed);
    // streamcluster launches a tiny kernel ~1000 times, which is what
    // makes it the pathological case for MEMCHECK and GMOD.
    static const std::vector<BenchmarkDef> defs = [] {
        std::vector<BenchmarkDef> v;
        v.push_back(def("bfs", "Rodinia", "fig19", false, [](Driver &d) {
            return graph(d, "bfs", 4, 256, 512, 61);
        }));
        v.push_back(def("gaussian", "Rodinia", "fig19", false,
                        [](Driver &d) {
            return streaming(d, "gaussian", 2, 256, 768, /*guard=*/true);
        }));
        v.push_back(def("heartwall", "Rodinia", "fig19", false,
                        [](Driver &d) {
            return local_array(d, "heartwall", 5, 128, 768);
        }));
        v.push_back(def("hotspot", "Rodinia", "fig19", false, [](Driver &d) {
            return stencil(d, "hotspot", 4, 256, 768);
        }));
        v.push_back(def("kmeans", "Rodinia", "fig19", false, [](Driver &d) {
            return streaming(d, "kmeans", 2, 256, 768, /*guard=*/true);
        }));
        v.push_back(def("lavaMD", "Rodinia", "fig19", false, [](Driver &d) {
            return local_array(d, "lavaMD", 6, 128, 768);
        }));
        v.push_back(def("lud", "Rodinia", "fig19", false, [](Driver &d) {
            return tiled_mm(d, "lud", 384, 256);
        }));
        v.push_back(def("particlefilter", "Rodinia", "fig19", false,
                        [](Driver &d) {
            return indirect(d, "particlefilter", 256, 768, 62);
        }));
        v.push_back(def("streamcluster", "Rodinia", "fig19", false,
                        [](Driver &d) {
            return multibuffer(d, "streamcluster", 8, 4, 256, 8);
        }));
        return v;
    }();
    return defs;
}

const BenchmarkDef *
find_benchmark(const std::string &name, const std::string &set)
{
    const std::pair<const char *, const std::vector<BenchmarkDef> *>
        sets[] = {{"cuda", &cuda_benchmarks()},
                  {"opencl", &opencl_benchmarks()},
                  {"fig19", &rodinia_fig19_benchmarks()}};
    for (const auto &[set_name, defs] : sets) {
        if (!set.empty() && set != set_name)
            continue;
        for (const BenchmarkDef &d : *defs)
            if (d.name == name)
                return &d;
    }
    return nullptr;
}

} // namespace gpushield::workloads
