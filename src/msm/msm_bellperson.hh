/**
 * @file
 * Bellperson-like windowed sub-MSM Pippenger (the "Best-GPU" baseline
 * for BLS12-381; paper Sections 2.3 and 5.3).
 *
 * The MSM is decomposed horizontally into S sub-MSMs; each (sub-MSM,
 * window) pair is an independent task run by one thread group:
 * bucket-accumulate its slice, reduce its buckets, and finally
 * window-reduce across windows on the host. To fill the GPU, S must
 * be large -- and every sub-MSM then pays its own 2 * 2^k
 * bucket-reduction adds per window, which is exactly the redundancy
 * GZKP's cross-window consolidation removes (Figure 10's 3.25x).
 */

#ifndef GZKP_MSM_MSM_BELLPERSON_HH
#define GZKP_MSM_MSM_BELLPERSON_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "faultsim/faultsim.hh"
#include "gpusim/device.hh"
#include "gpusim/perf_model.hh"
#include "msm/batch_affine.hh"
#include "msm/msm_common.hh"
#include "runtime/runtime.hh"

namespace gzkp::msm {

template <typename Cfg>
class BellpersonMsm
{
  public:
    using Point = ec::ECPoint<Cfg>;
    using Affine = ec::AffinePoint<Cfg>;
    using Scalar = typename Cfg::Scalar;

    /**
     * @param k window bits (bellperson default region)
     * @param sub_msms horizontal split; 0 = pick for GPU occupancy
     * @param threads CPU runtime threads; 0 = GZKP_THREADS default
     * @param accumulator bucket strategy for the functional CPU
     *        execution (the modeled GPU kernel stays Jacobian)
     */
    explicit BellpersonMsm(std::size_t k = 10, std::size_t sub_msms = 0,
                           std::size_t threads = 0,
                           Accumulator accumulator = Accumulator::BatchAffine)
        : k_(k), subMsms_(sub_msms), threads_(threads),
          accumulator_(accumulator)
    {}

    std::size_t
    effectiveSubMsms(std::size_t n, const gpusim::DeviceConfig &dev) const
    {
        if (subMsms_ != 0)
            return subMsms_;
        // bellperson slices to a roughly fixed chunk of points per
        // task (to bound per-task latency), floored by occupancy --
        // but a sub-MSM needs a useful slice, so small instances cap
        // the split and leave the chip underfilled.
        std::size_t l = Scalar::bits();
        std::size_t windows = windowCount(l, k_);
        std::size_t occupancy = std::max<std::size_t>(
            1, dev.numSMs * dev.maxThreadsPerBlock / windows / 16);
        std::size_t s = std::max<std::size_t>(occupancy, n / 1024);
        return std::min(s, std::max<std::size_t>(1, n / 256));
    }

    Point
    run(const std::vector<Affine> &points,
        const std::vector<Scalar> &scalars,
        const gpusim::DeviceConfig &dev =
            gpusim::DeviceConfig::v100()) const
    {
        std::size_t n = points.size();
        std::size_t l = Scalar::bits();
        std::size_t windows = windowCount(l, k_);
        std::size_t s = effectiveSubMsms(n, dev);
        std::size_t chunk = (n + s - 1) / s;
        std::size_t threads = runtime::resolveThreads(threads_);
        bool ba = accumulator_ == Accumulator::BatchAffine;
        auto repr = scalarsToRepr(scalars, threads);

        // windowSums[t] accumulates W_t across sub-MSMs. Each window
        // is owned by exactly one task and its sub-MSM partials are
        // merged in ascending sub order, so W_t is identical at any
        // thread count (and to the sub-major serial walk).
        std::vector<Point> window_sums(windows);
        runtime::parallelForChunks(
            threads, windows,
            [&](std::size_t wlo, std::size_t whi, std::size_t) {
                BucketSet<Cfg> buckets(std::size_t(1) << k_, ba);
                bool fresh = true;
                for (std::size_t t = wlo; t < whi; ++t) {
                    faultsim::checkLaunch("msm.bellperson.window", t);
                    Point wsum;
                    for (std::size_t sub = 0; sub < s; ++sub) {
                        std::size_t lo = sub * chunk;
                        std::size_t hi = std::min(n, lo + chunk);
                        if (lo >= hi)
                            break;
                        // One task: slice [lo,hi) of window t.
                        if (!fresh)
                            buckets.reset();
                        fresh = false;
                        for (std::size_t i = lo; i < hi; ++i) {
                            std::uint64_t d =
                                windowDigit(repr[i], t, k_);
                            if (d != 0)
                                buckets.add(d, points[i]);
                        }
                        wsum += buckets.reduceWeighted();
                    }
                    faultsim::maybeCorruptPoint(
                        faultsim::FaultKind::Bucket, wsum,
                        "msm.bellperson.bucket", t);
                    window_sums[t] = wsum;
                }
            });

        // Host-side window reduction (bellperson does this on CPU).
        Point result;
        for (std::size_t t = windows; t-- > 0;) {
            for (std::size_t d = 0; d < k_; ++d)
                result = result.dbl();
            result += window_sums[t];
        }
        return result;
    }

    std::uint64_t
    memoryBytes(std::size_t n, const gpusim::DeviceConfig &dev) const
    {
        std::uint64_t pt_bytes = 2 * Cfg::Field::kLimbs * 8;
        std::uint64_t proj_bytes = 3 * Cfg::Field::kLimbs * 8;
        std::uint64_t s = effectiveSubMsms(n, dev);
        // Points + scalars + bucket arrays for the resident wave of
        // sub-MSM tasks (bucket storage is reused across window
        // launches).
        return n * pt_bytes + n * Scalar::kLimbs * 8 +
            s * (std::uint64_t(1) << k_) * proj_bytes;
    }

    /**
     * Kernel statistics. `loads` (optional) are the per-(sub,window)
     * nonzero digit counts from the actual scalars, used to compute
     * the load-imbalance factor the paper attributes to sparse
     * real-world scalar vectors.
     */
    gpusim::KernelStats
    gpuStats(std::size_t n, const gpusim::DeviceConfig &dev,
             const std::vector<Scalar> *scalars = nullptr) const
    {
        std::size_t l = Scalar::bits();
        double windows = double(windowCount(l, k_));
        double s = double(effectiveSubMsms(n, dev));
        double buckets = double(std::size_t(1) << k_);
        std::size_t pt_bytes = 2 * Cfg::Field::kLimbs * 8;

        gpusim::KernelStats st;
        st.limbs = Cfg::Field::kLimbs;
        double insert = windows * double(n);
        double reduce = windows * s * buckets * 2.0;
        st.fieldMuls = insert * kMulsPerMixedAdd +
            reduce * kMulsPerFullAdd;
        st.fieldAdds = (insert + reduce) * kAddsPerPadd;

        // Each task streams its slice of points and scalars; bucket
        // state lives in global memory (too large for shared).
        double reads = windows * double(n) +
            (insert + 2.0 * reduce);
        st.usefulBytes = std::uint64_t(reads) * pt_bytes;
        st.linesTouched = std::uint64_t(
            reads * double(pt_bytes) / dev.l2LineBytes * 1.3);
        st.numBlocks = std::max<double>(dev.numSMs, s * windows / 256);

        // Host window reduction: windows Horner steps of k doublings
        // each on the CPU (~0.5 us per 381-bit PADD on the host).
        st.hostSeconds = windows * (k_ + 1.0) * 0.5e-6 + 2e-3;

        st.loadImbalanceFactor = scalars
            ? imbalanceFromScalars(*scalars, dev)
            : 1.15;
        return st;
    }

    /**
     * max/mean nonzero-digit load over (sub-MSM, window) tasks: with
     * sparse 0/1-heavy scalars, tasks for high windows have nothing
     * to do while window-0 tasks carry everything (Section 4.2).
     */
    double
    imbalanceFromScalars(const std::vector<Scalar> &scalars,
                         const gpusim::DeviceConfig &dev) const
    {
        std::size_t n = scalars.size();
        std::size_t l = Scalar::bits();
        std::size_t windows = windowCount(l, k_);
        std::size_t s = effectiveSubMsms(n, dev);
        std::size_t chunk = (n + s - 1) / s;
        // Exact counts merged in chunk order: thread-count invariant.
        auto task_load = runtime::parallelReduce(
            threads_, n, std::vector<std::uint64_t>(s * windows, 0),
            [&](std::size_t lo, std::size_t hi) {
                std::vector<std::uint64_t> local(s * windows, 0);
                for (std::size_t i = lo; i < hi; ++i) {
                    auto r = scalars[i].toBigInt();
                    std::size_t sub = i / chunk;
                    for (std::size_t t = 0; t < windows; ++t) {
                        if (windowDigit(r, t, k_) != 0)
                            ++local[sub * windows + t];
                    }
                }
                return local;
            },
            [](std::vector<std::uint64_t> acc,
               std::vector<std::uint64_t> part) {
                for (std::size_t j = 0; j < acc.size(); ++j)
                    acc[j] += part[j];
                return acc;
            });
        // Tasks co-scheduled in warps: a warp retires at its slowest
        // lane, so compare the mean against the warp-max average.
        double total = 0;
        double warp_max_total = 0;
        std::size_t warp = dev.warpSize;
        for (std::size_t i = 0; i < task_load.size(); i += warp) {
            std::uint64_t mx = 0;
            std::size_t hi = std::min(task_load.size(), i + warp);
            for (std::size_t j = i; j < hi; ++j) {
                total += double(task_load[j]);
                mx = std::max(mx, task_load[j]);
            }
            warp_max_total += double(mx) * double(hi - i);
        }
        if (total == 0)
            return 1.0;
        return std::max(1.0, warp_max_total / total);
    }

  private:
    std::size_t k_;
    std::size_t subMsms_;
    std::size_t threads_;
    Accumulator accumulator_;
};

} // namespace gzkp::msm

#endif // GZKP_MSM_MSM_BELLPERSON_HH
