/**
 * @file
 * Shared MSM utilities: window digit extraction, the naive reference,
 * and bucket-load histograms (paper Figure 6).
 *
 * An MSM instance is s . P = sum_i s_i (x) P_i with s_i in Fr and P_i
 * affine points (Section 2.3). All algorithm variants in this module
 * take the same (points, scalars) inputs and must agree exactly.
 */

#ifndef GZKP_MSM_MSM_COMMON_HH
#define GZKP_MSM_MSM_COMMON_HH

#include <cstdint>
#include <vector>

#include "ec/point.hh"
#include "runtime/runtime.hh"

namespace gzkp::msm {

/** PADD cost in field multiplications (Jacobian mixed / full / dbl). */
inline constexpr double kMulsPerMixedAdd = 11.0;
inline constexpr double kMulsPerFullAdd = 16.0;
inline constexpr double kMulsPerDbl = 8.0;
inline constexpr double kAddsPerPadd = 7.0;

/**
 * Batch-affine accumulation (msm/batch_affine.hh): the chord add is
 * 3 muls and the Montgomery-trick share another 3, with one shared
 * field inversion (counted separately as CpuStats/KernelStats
 * fieldInvs) per kBatch staged adds.
 */
inline constexpr double kMulsPerBatchedAffineAdd = 6.0;
inline constexpr double kAddsPerBatchedAffineAdd = 6.0;

/** Number of k-bit windows covering an l-bit scalar. */
inline std::size_t
windowCount(std::size_t scalar_bits, std::size_t k)
{
    return (scalar_bits + k - 1) / k;
}

/** Digit of `s` in window `t` under base 2^k. */
template <std::size_t M>
inline std::uint64_t
windowDigit(const ff::BigInt<M> &s, std::size_t t, std::size_t k)
{
    return s.bits(t * k, k);
}

/** A window digit of the signed recoding: magnitude and sign. */
struct SignedDigit {
    std::uint64_t mag;
    bool neg;
};

/**
 * One step of the signed-digit recoding, windows taken low to high:
 * the unsigned digit `raw` plus the incoming `carry` maps to a digit
 * in (-2^(k-1), 2^(k-1)], and `carry` becomes the carry into the next
 * window. The digits reconstruct the scalar exactly when the last
 * window carries nothing out, which holds whenever the scalar is
 * below 2^(windows*k - 1): signedWindowCount() leaves that spare bit.
 */
inline SignedDigit
signedDigit(std::uint64_t raw, std::uint64_t &carry, std::size_t k)
{
    std::uint64_t v = raw + carry;
    carry = v > (std::uint64_t(1) << (k - 1)) ? 1 : 0;
    if (carry)
        return {(std::uint64_t(1) << k) - v, true};
    return {v, false};
}

/** Windows for the signed recoding of an l-bit scalar (one spare bit). */
inline std::size_t
signedWindowCount(std::size_t scalar_bits, std::size_t k)
{
    return windowCount(scalar_bits + 1, k);
}

/** Convert scalars to standard (non-Montgomery) form once. */
template <typename Scalar>
std::vector<typename Scalar::Repr>
scalarsToRepr(const std::vector<Scalar> &scalars,
              std::size_t threads = 1)
{
    std::vector<typename Scalar::Repr> out(scalars.size());
    runtime::parallelFor(threads, scalars.size(), [&](std::size_t i) {
        out[i] = scalars[i].toBigInt();
    });
    return out;
}

/**
 * Naive reference MSM: sum of PMULs (Figure 1's definition).
 * O(N * l) doublings -- test oracle only.
 */
template <typename Cfg>
ec::ECPoint<Cfg>
msmNaive(const std::vector<ec::AffinePoint<Cfg>> &points,
         const std::vector<typename Cfg::Scalar> &scalars)
{
    ec::ECPoint<Cfg> acc;
    for (std::size_t i = 0; i < points.size(); ++i) {
        acc += ec::ECPoint<Cfg>::fromAffine(points[i])
                   .mul(scalars[i].toBigInt());
    }
    return acc;
}

/**
 * Per-bucket point counts for GZKP's cross-window bucketing: entry d
 * counts the (window, element) pairs whose digit equals d, over all
 * windows (bucket 0 is excluded -- it needs no processing).
 * This is the raw data behind Figure 6.
 */
template <typename Scalar>
std::vector<std::uint64_t>
bucketLoadHistogram(const std::vector<Scalar> &scalars, std::size_t k,
                    std::size_t threads = 1)
{
    std::size_t l = Scalar::bits();
    std::size_t windows = windowCount(l, k);
    std::size_t nbuckets = std::size_t(1) << k;
    // Per-chunk histograms merged in chunk order at join: the totals
    // are exact counts, so they are thread-count invariant.
    auto load = runtime::parallelReduce(
        threads, scalars.size(), std::vector<std::uint64_t>(nbuckets, 0),
        [&](std::size_t lo, std::size_t hi) {
            std::vector<std::uint64_t> local(nbuckets, 0);
            for (std::size_t i = lo; i < hi; ++i) {
                auto r = scalars[i].toBigInt();
                for (std::size_t t = 0; t < windows; ++t) {
                    std::uint64_t d = windowDigit(r, t, k);
                    if (d != 0)
                        ++local[d];
                }
            }
            return local;
        },
        [](std::vector<std::uint64_t> acc,
           std::vector<std::uint64_t> part) {
            for (std::size_t d = 0; d < acc.size(); ++d)
                acc[d] += part[d];
            return acc;
        });
    load[0] = 0;
    return load;
}

/**
 * Group bucket loads into bands of similar workload (the histogram
 * bars of Figure 6 / the "similar task groups" of Section 4.2).
 * Returns (loadUpperBound, taskCount) pairs, heaviest first.
 */
struct TaskGroup {
    std::uint64_t minLoad;
    std::uint64_t maxLoad;
    std::size_t tasks;
};

std::vector<TaskGroup>
groupTasksByLoad(const std::vector<std::uint64_t> &loads,
                 std::size_t num_groups = 8);

} // namespace gzkp::msm

#endif // GZKP_MSM_MSM_COMMON_HH
