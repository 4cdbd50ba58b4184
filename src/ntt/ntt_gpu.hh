/**
 * @file
 * GPU-model NTT variants (paper Sections 2.2 and 3).
 *
 * Two designs execute the same batched Cooley-Tukey flow and produce
 * bit-identical results, but move data differently:
 *
 *  - ShuffledNtt ("BG", bellperson-like): maximises the batch size B,
 *    maps one independent group per GPU block, and *reorders the
 *    global array at the start of every batch* (the shuffle stage) so
 *    the compute phase reads contiguously. The shuffle's strided
 *    gather is the cost the paper attacks: 42-81% of per-batch time
 *    at large bit-widths.
 *
 *  - GzkpNtt: shuffle-less. The global array order never changes.
 *    Each block is assigned G >= 4 *small* independent groups whose
 *    union forms 2^B contiguous length-G chunks, loaded coalesced and
 *    scattered into the (modeled) shared memory by an internal
 *    shuffle (Figure 4). Batches group fewer iterations and the last
 *    batch re-balances G so blocks never drop below a full warp.
 *
 * Both variants expose run() (functional execution on the host) and
 * stats() (operation counts plus a representative-block memory trace
 * scaled to the full kernel) for the roofline model.
 */

#ifndef GZKP_NTT_NTT_GPU_HH
#define GZKP_NTT_NTT_GPU_HH

#include <algorithm>
#include <vector>

#include "faultsim/faultsim.hh"
#include "gpusim/device.hh"
#include "gpusim/memtrace.hh"
#include "gpusim/perf_model.hh"
#include "ntt/butterfly.hh"
#include "ntt/domain.hh"

namespace gzkp::ntt {

/** One batch of consecutive butterfly iterations. */
struct Batch {
    std::size_t startIter; //!< first iteration (global stride 2^start)
    std::size_t iters;     //!< number of iterations in this batch
};

/** Split log N iterations into batches of (at most) B. */
inline std::vector<Batch>
makeBatches(std::size_t log_n, std::size_t b)
{
    std::vector<Batch> out;
    for (std::size_t s = 0; s < log_n; s += b)
        out.push_back({s, std::min(b, log_n - s)});
    return out;
}

/** Group base address: fixes all index bits outside [s0, s0+Bb). */
inline std::size_t
groupBase(std::size_t u, std::size_t s0, std::size_t bb)
{
    std::size_t low_mask = (std::size_t(1) << s0) - 1;
    return ((u >> s0) << (s0 + bb)) | (u & low_mask);
}

/** Per-stage statistics of one NTT execution (Figure 8 breakdown). */
struct NttStats {
    gpusim::KernelStats bitrev;  //!< bit-reversal pass
    gpusim::KernelStats shuffle; //!< global-memory shuffle stages (BG)
    gpusim::KernelStats compute; //!< staged butterfly compute

    gzkp::gpusim::KernelStats
    total() const
    {
        gpusim::KernelStats t = bitrev;
        t += shuffle;
        t += compute;
        return t;
    }
};

/**
 * Modeled time of one NTT: the three stages run as *separate*
 * kernel launches, so their roofline times add (a memory-bound
 * shuffle cannot hide behind the compute phase).
 */
inline double
nttModelSeconds(const NttStats &st, const gpusim::DeviceConfig &dev,
                gpusim::Backend backend)
{
    return gpusim::modelSeconds(st.bitrev, dev, backend) +
        gpusim::modelSeconds(st.shuffle, dev, backend) +
        gpusim::modelSeconds(st.compute, dev, backend);
}

namespace detail {

/**
 * Trace warp-level column-major global accesses for `count` elements
 * produced by `elem(i)`, each of `words` 64-bit words, over an array
 * of `n` elements. Lane l of a warp covers element index elem(i0+l);
 * one warpAccess is recorded per 64-bit word column.
 */
template <typename ElemFn>
void
traceWarpElems(gpusim::MemTrace &mt, std::size_t count, std::size_t words,
               std::size_t n, std::size_t warp, ElemFn elem)
{
    std::vector<std::uint64_t> addrs;
    for (std::size_t i0 = 0; i0 < count; i0 += warp) {
        std::size_t lanes = std::min(warp, count - i0);
        for (std::size_t w = 0; w < words; ++w) {
            addrs.clear();
            for (std::size_t l = 0; l < lanes; ++l)
                addrs.push_back((std::uint64_t(w) * n +
                                 elem(i0 + l)) * 8);
            mt.warpAccess(addrs, 8);
        }
    }
}

/** Scale a one-block trace into kernel-level line/byte counts. */
inline void
scaleTraceInto(gpusim::KernelStats &ks, const gpusim::MemTrace &mt,
               double factor)
{
    ks.linesTouched += std::uint64_t(double(mt.linesTouched()) * factor);
    ks.usefulBytes += std::uint64_t(double(mt.usefulBytes()) * factor);
}

} // namespace detail

/** Shared bit-reversal pass statistics (same for both variants). */
template <typename Fr>
gpusim::KernelStats
bitrevStats(std::size_t log_n, const gpusim::DeviceConfig &dev)
{
    std::size_t n = std::size_t(1) << log_n;
    std::size_t m = Fr::kLimbs;
    gpusim::KernelStats ks;
    ks.limbs = m;
    ks.numBlocks = std::max<std::size_t>(1, n / 1024);
    // Representative 4 warps: contiguous read, bit-reversed write.
    gpusim::MemTrace mt(dev.l2LineBytes);
    std::size_t sample = std::min<std::size_t>(n, 4 * dev.warpSize);
    detail::traceWarpElems(mt, sample, m, n, dev.warpSize,
                           [](std::size_t i) { return i; });
    detail::traceWarpElems(mt, sample, m, n, dev.warpSize,
                           [log_n](std::size_t i) {
                               return bitReverse(i, log_n);
                           });
    detail::scaleTraceInto(ks, mt, double(n) / double(sample));
    return ks;
}

/**
 * BG-like shuffled NTT. B defaults to 8 iterations per batch (the
 * paper's description of bellperson) capped by shared memory.
 */
template <typename Fr>
class ShuffledNtt
{
  public:
    explicit ShuffledNtt(std::size_t b = 8) : b_(b) {}

    /** Batch size usable under the shared-memory capacity. */
    std::size_t
    effectiveB(const gpusim::DeviceConfig &dev) const
    {
        std::size_t elem_bytes = Fr::kLimbs * 8;
        std::size_t cap = dev.sharedMemPerSMBytes / elem_bytes;
        std::size_t b = b_;
        while ((std::size_t(1) << b) > cap)
            --b;
        return b;
    }

    /** Functional execution; result equals nttInPlace(). */
    void
    run(const Domain<Fr> &dom, std::vector<Fr> &a, bool invert = false,
        const gpusim::DeviceConfig &dev = gpusim::DeviceConfig::v100()) const
    {
        std::size_t n = dom.size();
        std::size_t log_n = dom.logSize();
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t j = bitReverse(i, log_n);
            if (i < j)
                std::swap(a[i], a[j]);
        }

        std::size_t b = effectiveB(dev);
        std::vector<Fr> staged, scratch;
        for (const Batch &bt : makeBatches(log_n, b)) {
            faultsim::checkLaunch("ntt.bg.batch", bt.startIter);
            std::size_t bb = bt.iters;
            std::size_t gsz = std::size_t(1) << bb;
            std::size_t groups = n / gsz;
            staged.resize(gsz);
            scratch.resize(gsz); // twiddle row + butterfly scratch
            for (std::size_t u = 0; u < groups; ++u) {
                std::size_t base = groupBase(u, bt.startIter, bb);
                std::size_t stride = std::size_t(1) << bt.startIter;
                // Shuffle stage: strided gather to contiguous buffer
                // (one GPU block per group).
                for (std::size_t j = 0; j < gsz; ++j)
                    staged[j] = a[base + j * stride];
                butterfliesInGroup(dom, staged, base, bt,
                                   scratch.data(), invert);
                for (std::size_t j = 0; j < gsz; ++j)
                    a[base + j * stride] = staged[j];
            }
            faultsim::maybeCorruptElement(
                faultsim::FaultKind::Butterfly, a.data(), n,
                "ntt.bg.batch", bt.startIter);
        }

        if (invert)
            ff::mulcBatch(a.data(), a.data(), dom.nInv(), n);
    }

    /** Model statistics at any scale (no functional run needed). */
    NttStats
    stats(std::size_t log_n, const gpusim::DeviceConfig &dev) const
    {
        std::size_t n = std::size_t(1) << log_n;
        std::size_t m = Fr::kLimbs;
        std::size_t b = effectiveB(dev);
        NttStats st;
        st.bitrev = bitrevStats<Fr>(log_n, dev);
        st.shuffle.limbs = m;
        st.compute.limbs = m;
        st.shuffle.numLaunches = 0;
        st.compute.numLaunches = 0;

        double idle_work = 0, idle_den = 0;
        for (const Batch &bt : makeBatches(log_n, b)) {
            std::size_t bb = bt.iters;
            std::size_t gsz = std::size_t(1) << bb;
            std::size_t groups = n / gsz;
            std::size_t stride = std::size_t(1) << bt.startIter;

            if (bt.startIter != 0) {
                // Shuffle: strided gather read + contiguous write of
                // the whole array. Trace one group and scale.
                gpusim::MemTrace mt(dev.l2LineBytes);
                detail::traceWarpElems(
                    mt, gsz, m, n, dev.warpSize,
                    [&](std::size_t j) { return j * stride; });
                detail::traceWarpElems(mt, gsz, m, n, dev.warpSize,
                                       [](std::size_t j) { return j; });
                detail::scaleTraceInto(st.shuffle, mt, double(groups));
                st.shuffle.numLaunches += 1;
                st.shuffle.numBlocks += groups;
            }

            // Compute phase: contiguous load + store per group plus
            // the butterfly arithmetic. BG threads additionally read
            // the (CPU-precomputed) twiddles from global memory,
            // N/2 values per iteration.
            gpusim::MemTrace mt(dev.l2LineBytes);
            detail::traceWarpElems(mt, gsz, m, n, dev.warpSize,
                                   [](std::size_t j) { return j; });
            detail::scaleTraceInto(st.compute, mt, 2.0 * double(groups));
            detail::scaleTraceInto(st.compute, mt,
                                   0.5 * double(bb) * double(groups));
            double butterflies = double(n) / 2.0 * double(bb);
            st.compute.fieldMuls += butterflies;
            st.compute.fieldAdds += butterflies * 2.0;
            st.compute.numBlocks += groups;
            st.compute.numLaunches += 1;
            // Host-side synchronisation between dependent batches
            // (bellperson round-trips to the host per launch).
            st.compute.hostSeconds += 50e-6;

            // One group per block: blocks with < 32 working threads
            // leave warp lanes idle (paper Figure 8 at 2^18). The
            // slowdown is time-weighted, so aggregate harmonically.
            std::size_t threads = gsz / 2;
            double idle = std::min(1.0, double(threads) / dev.warpSize);
            idle_work += butterflies;
            idle_den += butterflies / idle;
        }
        st.compute.idleLaneFactor = idle_work / idle_den;
        return st;
    }

    /**
     * Statistics for the Figure 8 intermediate ("GZKP-no-GM-
     * shuffle"): the BG structure with the shuffle stages removed,
     * so the compute phase gathers its groups *strided* straight
     * from global memory -- saving the shuffle passes but paying
     * poor L2-line utilisation on every batch after the first.
     */
    NttStats
    statsNoShuffle(std::size_t log_n,
                   const gpusim::DeviceConfig &dev) const
    {
        std::size_t n = std::size_t(1) << log_n;
        std::size_t m = Fr::kLimbs;
        std::size_t b = effectiveB(dev);
        NttStats st;
        st.bitrev = bitrevStats<Fr>(log_n, dev);
        st.compute.limbs = m;
        st.shuffle.limbs = m;
        st.compute.numLaunches = 0;

        double idle_work = 0, idle_den = 0;
        for (const Batch &bt : makeBatches(log_n, b)) {
            std::size_t bb = bt.iters;
            std::size_t gsz = std::size_t(1) << bb;
            std::size_t groups = n / gsz;
            std::size_t stride = std::size_t(1) << bt.startIter;

            gpusim::MemTrace mt(dev.l2LineBytes);
            detail::traceWarpElems(
                mt, gsz, m, n, dev.warpSize,
                [&](std::size_t j) { return j * stride; });
            detail::scaleTraceInto(st.compute, mt, 2.0 * double(groups));
            detail::scaleTraceInto(st.compute, mt,
                                   0.5 * double(bb) * double(groups));
            double butterflies = double(n) / 2.0 * double(bb);
            st.compute.fieldMuls += butterflies;
            st.compute.fieldAdds += butterflies * 2.0;
            st.compute.numBlocks += groups;
            st.compute.numLaunches += 1;
            st.compute.hostSeconds += 50e-6;
            std::size_t threads = gsz / 2;
            double idle = std::min(1.0, double(threads) / dev.warpSize);
            idle_work += butterflies;
            idle_den += butterflies / idle;
        }
        st.compute.idleLaneFactor = idle_work / idle_den;
        return st;
    }

  private:
    void
    butterfliesInGroup(const Domain<Fr> &dom, std::vector<Fr> &g,
                       std::size_t base, const Batch &bt, Fr *scratch,
                       bool invert) const
    {
        std::size_t s0 = bt.startIter;
        std::size_t low_mask = (std::size_t(1) << s0) - 1;
        for (std::size_t t = 0; t < bt.iters; ++t) {
            std::size_t iter = s0 + t;
            std::size_t half = std::size_t(1) << t;
            if (half >= 8) {
                // Lane pairs are block-contiguous runs of `half`; the
                // twiddle indices are strided by 2^s0 but shared by
                // every run of this iteration, so one gather feeds
                // all batched butterfly rows. `scratch` (gsz wide)
                // holds the gathered row and the multiply scratch.
                Fr *wrow = scratch;
                Fr *mrow = scratch + half;
                for (std::size_t l = 0; l < half; ++l) {
                    std::size_t tw = (base & low_mask) + (l << s0);
                    wrow[l] = invert ? dom.twiddleInv(iter, tw)
                                     : dom.twiddle(iter, tw);
                }
                for (std::size_t j0 = 0; j0 < g.size(); j0 += 2 * half)
                    butterflyRows(&g[j0], &g[j0 + half], wrow, half,
                                  mrow);
                continue;
            }
            for (std::size_t j = 0; j < g.size(); ++j) {
                if (j & half)
                    continue;
                // Global element of lane j is base + j * 2^s0; its
                // twiddle index is (element mod 2^iter).
                std::size_t tw = (base & low_mask) +
                    ((j & (half - 1)) << s0);
                const Fr &w = invert ? dom.twiddleInv(iter, tw)
                                     : dom.twiddle(iter, tw);
                Fr u = g[j];
                Fr v = g[j + half] * w;
                g[j] = u + v;
                g[j + half] = u - v;
            }
        }
    }

    std::size_t b_;
};

/**
 * GZKP shuffle-less NTT with internal shuffle (Section 3).
 * B defaults to 6 ("fewer iterations per batch"); G is chosen to
 * fill shared memory and never fall below 4 (full L2 lines).
 */
template <typename Fr>
class GzkpNtt
{
  public:
    explicit GzkpNtt(std::size_t b = 6, std::size_t g = 0)
        : b_(b), g_(g)
    {}

    std::size_t
    effectiveB(std::size_t log_n) const
    {
        return std::min(b_, log_n);
    }

    /** Groups per block for a batch of bb iterations. */
    std::size_t
    groupsPerBlock(std::size_t bb, std::size_t log_n,
                   const gpusim::DeviceConfig &dev) const
    {
        std::size_t elem_bytes = Fr::kLimbs * 8;
        std::size_t cap = dev.sharedMemPerSMBytes / elem_bytes;
        std::size_t gsz = std::size_t(1) << bb;
        std::size_t g = g_ != 0 ? g_ : std::max<std::size_t>(4, cap / gsz);
        // Keep at least a full warp of threads per block and do not
        // exceed the number of groups available.
        g = std::min(g, (std::size_t(1) << log_n) / gsz);
        g = std::min(g, std::max<std::size_t>(
                            1, dev.maxThreadsPerBlock * 2 / gsz));
        while (g * gsz / 2 < dev.warpSize && g * gsz < cap)
            g *= 2;
        // Power of two so blocks tile the group index space evenly.
        std::size_t p2 = 1;
        while (p2 * 2 <= g)
            p2 *= 2;
        return p2;
    }

    void
    run(const Domain<Fr> &dom, std::vector<Fr> &a, bool invert = false,
        const gpusim::DeviceConfig &dev = gpusim::DeviceConfig::v100()) const
    {
        std::size_t n = dom.size();
        std::size_t log_n = dom.logSize();
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t j = bitReverse(i, log_n);
            if (i < j)
                std::swap(a[i], a[j]);
        }

        std::size_t b = effectiveB(log_n);
        std::vector<Fr> shared; // the modeled per-SM shared memory
        std::vector<Fr> scratch;
        for (const Batch &bt : makeBatches(log_n, b)) {
            faultsim::checkLaunch("ntt.gzkp.batch", bt.startIter);
            std::size_t bb = bt.iters;
            std::size_t gsz = std::size_t(1) << bb;
            std::size_t groups = n / gsz;
            std::size_t stride = std::size_t(1) << bt.startIter;
            std::size_t g = blockGroups(bt, log_n, dev);
            shared.resize(g * gsz);
            scratch.resize(gsz); // twiddle row + butterfly scratch
            for (std::size_t u0 = 0; u0 < groups; u0 += g) {
                std::size_t gcnt = std::min(g, groups - u0);
                // Internal shuffle in: the union of the block's G
                // groups forms contiguous chunks in global memory
                // (Figure 4); stage it into the shared layout
                // shared[c * gsz + j].
                for (std::size_t c = 0; c < gcnt; ++c) {
                    std::size_t base =
                        groupBase(u0 + c, bt.startIter, bb);
                    for (std::size_t j = 0; j < gsz; ++j)
                        shared[c * gsz + j] = a[base + j * stride];
                }
                for (std::size_t c = 0; c < gcnt; ++c) {
                    std::size_t base =
                        groupBase(u0 + c, bt.startIter, bb);
                    butterflies(dom, &shared[c * gsz], gsz, base, bt,
                                scratch.data(), invert);
                }
                // Internal shuffle out: reverse movement.
                for (std::size_t c = 0; c < gcnt; ++c) {
                    std::size_t base =
                        groupBase(u0 + c, bt.startIter, bb);
                    for (std::size_t j = 0; j < gsz; ++j)
                        a[base + j * stride] = shared[c * gsz + j];
                }
            }
            faultsim::maybeCorruptElement(
                faultsim::FaultKind::Butterfly, a.data(), n,
                "ntt.gzkp.batch", bt.startIter);
        }

        if (invert)
            ff::mulcBatch(a.data(), a.data(), dom.nInv(), n);
    }

    NttStats
    stats(std::size_t log_n, const gpusim::DeviceConfig &dev) const
    {
        std::size_t n = std::size_t(1) << log_n;
        std::size_t m = Fr::kLimbs;
        std::size_t b = effectiveB(log_n);
        NttStats st;
        st.bitrev = bitrevStats<Fr>(log_n, dev);
        st.compute.limbs = m;
        st.shuffle.limbs = m;
        st.shuffle.numLaunches = 0;
        st.compute.numLaunches = 0;

        for (const Batch &bt : makeBatches(log_n, b)) {
            std::size_t bb = bt.iters;
            std::size_t gsz = std::size_t(1) << bb;
            std::size_t groups = n / gsz;
            std::size_t stride = std::size_t(1) << bt.startIter;
            std::size_t g = blockGroups(bt, log_n, dev);
            std::size_t blocks = (groups + g - 1) / g;

            // Block-style access: threads sweep the union of the
            // block's G groups in ascending global address order
            // (2^B chunks of G consecutive elements). Trace one
            // block and scale.
            std::vector<std::size_t> elems;
            elems.reserve(g * gsz);
            for (std::size_t c = 0; c < g; ++c) {
                std::size_t base = groupBase(c, bt.startIter, bb);
                for (std::size_t j = 0; j < gsz; ++j)
                    elems.push_back(base + j * stride);
            }
            std::sort(elems.begin(), elems.end());
            gpusim::MemTrace mt(dev.l2LineBytes);
            detail::traceWarpElems(
                mt, elems.size(), m, n, dev.warpSize,
                [&](std::size_t i) { return elems[i]; });
            detail::scaleTraceInto(st.compute, mt, 2.0 * double(blocks));
            // Twiddles are staged once per batch, read contiguously.
            detail::scaleTraceInto(st.compute, mt, 0.5 * double(blocks));

            double butterflies = double(n) / 2.0 * double(bb);
            st.compute.fieldMuls += butterflies;
            st.compute.fieldAdds += butterflies * 2.0;
            st.compute.numBlocks += blocks;
            st.compute.numLaunches += 1;
        }
        st.compute.idleLaneFactor = 1.0; // blocks never underfill
        return st;
    }

  private:
    std::size_t
    blockGroups(const Batch &bt, std::size_t log_n,
                const gpusim::DeviceConfig &dev) const
    {
        std::size_t g = groupsPerBlock(bt.iters, log_n, dev);
        // Consecutive group bases require G <= 2^s0 after batch 0.
        if (bt.startIter != 0)
            g = std::min(g, std::size_t(1) << bt.startIter);
        return std::max<std::size_t>(1, g);
    }

    void
    butterflies(const Domain<Fr> &dom, Fr *g, std::size_t gsz,
                std::size_t base, const Batch &bt, Fr *scratch,
                bool invert) const
    {
        std::size_t s0 = bt.startIter;
        std::size_t low_mask = (std::size_t(1) << s0) - 1;
        for (std::size_t t = 0; t < bt.iters; ++t) {
            std::size_t iter = s0 + t;
            std::size_t half = std::size_t(1) << t;
            if (half >= 8) {
                // Same batched-row scheme as ShuffledNtt: gather the
                // group's strided twiddle row once, then batch every
                // contiguous lane-pair run through the kernels.
                Fr *wrow = scratch;
                Fr *mrow = scratch + half;
                for (std::size_t l = 0; l < half; ++l) {
                    std::size_t tw = (base & low_mask) + (l << s0);
                    wrow[l] = invert ? dom.twiddleInv(iter, tw)
                                     : dom.twiddle(iter, tw);
                }
                for (std::size_t j0 = 0; j0 < gsz; j0 += 2 * half)
                    butterflyRows(g + j0, g + j0 + half, wrow, half,
                                  mrow);
                continue;
            }
            for (std::size_t j = 0; j < gsz; ++j) {
                if (j & half)
                    continue;
                std::size_t tw = (base & low_mask) +
                    ((j & (half - 1)) << s0);
                const Fr &w = invert ? dom.twiddleInv(iter, tw)
                                     : dom.twiddle(iter, tw);
                Fr u = g[j];
                Fr v = g[j + half] * w;
                g[j] = u + v;
                g[j + half] = u - v;
            }
        }
    }

    std::size_t b_;
    std::size_t g_;
};

} // namespace gzkp::ntt

#endif // GZKP_NTT_NTT_GPU_HH
