/**
 * @file
 * CPU baseline MSMs.
 *
 * - PippengerSerial: the libsnark-like bucket method ("Best-CPU" in
 *   Tables 2 and 7): per window, group points by digit into buckets,
 *   sum each bucket, reduce buckets with the running-suffix trick,
 *   then combine windows by k doublings (Horner).
 * - Windows are independent, so the bucket phase parallelises across
 *   the runtime's threads (one window per task, fixed assignment);
 *   only the final Horner combine is serial. threads == 1 runs the
 *   same window sequence inline -- results are bit-identical at any
 *   thread count.
 * - The bucket phase runs on either accumulation strategy (see
 *   msm/batch_affine.hh): Jacobian mixed adds, or the batch-affine
 *   shared-inversion scheduler (the default). On GLV-capable curves
 *   the window digitization optionally splits each scalar into two
 *   half-length signed components over {P, phi(P)} (ec/glv.hh),
 *   halving the window count.
 * - Cost statistics feed the CPU roofline model of gpusim; they
 *   default to the original Jacobian accounting so the modeled
 *   baseline tables are unaffected by the execution default.
 */

#ifndef GZKP_MSM_MSM_SERIAL_HH
#define GZKP_MSM_MSM_SERIAL_HH

#include <cmath>
#include <vector>

#include "ec/glv.hh"
#include "faultsim/faultsim.hh"
#include "gpusim/perf_model.hh"
#include "msm/batch_affine.hh"
#include "msm/msm_common.hh"
#include "runtime/runtime.hh"

namespace gzkp::msm {

/** libsnark-style window choice: roughly log2(N) - 4, in [2, 16]. */
inline std::size_t
pippengerWindow(std::size_t n)
{
    std::size_t k = 2;
    while ((std::size_t(1) << (k + 4)) < n && k < 16)
        ++k;
    return k;
}

template <typename Cfg>
class PippengerSerial
{
  public:
    using Point = ec::ECPoint<Cfg>;
    using Affine = ec::AffinePoint<Cfg>;
    using Scalar = typename Cfg::Scalar;

    explicit PippengerSerial(
        std::size_t k = 0, std::size_t threads = 0,
        Accumulator accumulator = Accumulator::BatchAffine,
        GlvMode glv = GlvMode::On)
        : k_(k), threads_(threads), accumulator_(accumulator), glv_(glv)
    {}

    Point
    run(const std::vector<Affine> &points,
        const std::vector<Scalar> &scalars) const
    {
        std::size_t n = points.size();
        std::size_t k = k_ ? k_ : pippengerWindow(n);
        std::size_t threads = runtime::resolveThreads(threads_);
        bool ba = accumulator_ == Accumulator::BatchAffine;

        if constexpr (ec::Glv<Cfg>::kEnabled) {
            if (glv_ == GlvMode::On)
                return runGlv(points, scalars, k, threads, ba);
        }

        std::size_t windows = windowCount(Scalar::bits(), k);
        auto repr = scalarsToRepr(scalars, threads);
        return windowSums(
            windows, k, threads, ba,
            [&](std::size_t t, BucketSet<Cfg> &buckets) {
                for (std::size_t i = 0; i < n; ++i) {
                    std::uint64_t d = windowDigit(repr[i], t, k);
                    if (d != 0)
                        buckets.add(d, points[i]);
                }
            });
    }

    /**
     * Operation counts for the CPU model. With `scalars`, the
     * bucket-insert work counts only nonzero window digits (the
     * library skips them), which matters a lot for real-world
     * sparse vectors; otherwise a dense distribution is assumed.
     * `accumulator`/`glv` select the modeled bucket strategy and
     * default to the original Jacobian accounting (the CPU baseline
     * of the reproduced tables), independent of the execution
     * default; the GLV model is always dense (the digit histogram of
     * the decomposed halves is not derivable from `scalars`).
     */
    gpusim::CpuStats
    stats(std::size_t n, const std::vector<Scalar> *scalars = nullptr,
          Accumulator accumulator = Accumulator::Jacobian,
          GlvMode glv = GlvMode::Off) const
    {
        std::size_t k = k_ ? k_ : pippengerWindow(n);
        bool use_glv = ec::Glv<Cfg>::kEnabled && glv == GlvMode::On;
        std::size_t scalar_bits =
            use_glv ? ec::Glv<Cfg>::kScalarBits : Scalar::bits();
        double windows = double(windowCount(scalar_bits, k));
        double buckets = double(std::size_t(1) << k);
        double inserts_per_window = use_glv ? 2.0 * double(n)
                                            : double(n);

        double inserts = windows * inserts_per_window;
        if (scalars && !use_glv) {
            auto hist = bucketLoadHistogram(*scalars, k);
            double nz = 0;
            for (auto h : hist)
                nz += double(h);
            inserts = nz;
        }
        double full_adds = windows * buckets * 2.0;
        double dbls = windows * double(k);

        gpusim::CpuStats s;
        s.limbs = Cfg::Field::kLimbs;
        if (accumulator == Accumulator::BatchAffine) {
            s.fieldMuls = inserts * kMulsPerBatchedAffineAdd +
                full_adds * kMulsPerFullAdd + dbls * kMulsPerDbl;
            s.fieldAdds = inserts * kAddsPerBatchedAffineAdd +
                (full_adds + dbls) * kAddsPerPadd;
            s.fieldInvs =
                inserts / double(BatchAffineAccumulator<Cfg>::kBatch);
        } else {
            s.fieldMuls = inserts * kMulsPerMixedAdd +
                full_adds * kMulsPerFullAdd + dbls * kMulsPerDbl;
            s.fieldAdds = (inserts + full_adds + dbls) * kAddsPerPadd;
        }
        // Windows are independent, so even the bucket reduction
        // parallelises; only the final window combine serialises.
        s.serialFraction = 0.01;
        return s;
    }

  private:
    /**
     * Per-window sums, one window per task: within a window the
     * bucket-insert and suffix-sum order is fixed, so W_t does not
     * depend on the thread count, on either accumulation strategy.
     */
    template <typename Insert>
    Point
    windowSums(std::size_t windows, std::size_t k, std::size_t threads,
               bool batch_affine, Insert &&insert) const
    {
        std::vector<Point> window_sums(windows);
        runtime::parallelForChunks(
            threads, windows,
            [&](std::size_t wlo, std::size_t whi, std::size_t) {
                BucketSet<Cfg> buckets(std::size_t(1) << k,
                                       batch_affine);
                for (std::size_t t = wlo; t < whi; ++t) {
                    faultsim::checkLaunch("msm.serial.window", t);
                    if (t != wlo)
                        buckets.reset();
                    insert(t, buckets);
                    Point sum = buckets.reduceWeighted();
                    faultsim::maybeCorruptPoint(
                        faultsim::FaultKind::Bucket, sum,
                        "msm.serial.bucket", t);
                    window_sums[t] = sum;
                }
            });

        // Horner combine across windows, serial by construction.
        Point result;
        for (std::size_t t = windows; t-- > 0;) {
            for (std::size_t d = 0; d < k; ++d)
                result = result.dbl();
            result += window_sums[t];
        }
        return result;
    }

    /**
     * GLV window digitization: each scalar splits into signed halves
     * (k1, k2) with s = k1 + lambda*k2, and the bucket inserts run
     * over half-length digits of the doubled, sign-folded point set
     * {+-P_i, +-phi(P_i)}. The per-window insertion order (i
     * ascending, k1 before k2) is fixed, so determinism is untouched.
     */
    Point
    runGlv(const std::vector<Affine> &points,
           const std::vector<Scalar> &scalars, std::size_t k,
           std::size_t threads, bool batch_affine) const
    {
        using G = ec::Glv<Cfg>;
        std::size_t n = points.size();
        std::vector<typename Scalar::Repr> r1(n), r2(n);
        std::vector<Affine> base(n), mapped(n);
        runtime::parallelFor(threads, n, [&](std::size_t i) {
            auto d = G::decompose(scalars[i]);
            r1[i] = d.k1;
            r2[i] = d.k2;
            base[i] = d.neg1 ? points[i].negate() : points[i];
            Affine e = G::endo(points[i]);
            mapped[i] = d.neg2 ? e.negate() : e;
        });

        std::size_t windows = windowCount(G::kScalarBits, k);
        return windowSums(
            windows, k, threads, batch_affine,
            [&](std::size_t t, BucketSet<Cfg> &buckets) {
                for (std::size_t i = 0; i < n; ++i) {
                    std::uint64_t d1 = windowDigit(r1[i], t, k);
                    if (d1 != 0)
                        buckets.add(d1, base[i]);
                    std::uint64_t d2 = windowDigit(r2[i], t, k);
                    if (d2 != 0)
                        buckets.add(d2, mapped[i]);
                }
            });
    }

    std::size_t k_;
    std::size_t threads_;
    Accumulator accumulator_;
    GlvMode glv_;
};

} // namespace gzkp::msm

#endif // GZKP_MSM_MSM_SERIAL_HH
