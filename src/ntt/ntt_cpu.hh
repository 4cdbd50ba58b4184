/**
 * @file
 * CPU reference NTTs.
 *
 * - naiveDft: the O(N^2) definition, ground truth for unit tests.
 * - nttInPlace: the canonical iterative radix-2 Cooley-Tukey flow of
 *   the paper's Figure 2 (bit-reverse, then log N iterations with
 *   stride 2^i). Every GPU-model variant must match it bit-for-bit.
 * - LibsnarkStyleNtt: the "Best-CPU" baseline. Functionally identical
 *   output, but its cost statistics include the redundant per-
 *   butterfly omega recomputation the paper calls out in Section 5.3
 *   (the reason libsnark does not scale linearly in Table 5).
 */

#ifndef GZKP_NTT_NTT_CPU_HH
#define GZKP_NTT_NTT_CPU_HH

#include <algorithm>
#include <vector>

#include "faultsim/faultsim.hh"
#include "gpusim/perf_model.hh"
#include "ntt/butterfly.hh"
#include "ntt/domain.hh"

namespace gzkp::ntt {

/** O(N^2) evaluation of A at 1, w, w^2, ...; test oracle only. */
template <typename Fr>
std::vector<Fr>
naiveDft(const Domain<Fr> &dom, const std::vector<Fr> &coeffs)
{
    std::size_t n = dom.size();
    std::vector<Fr> out(n, Fr::zero());
    Fr wi = Fr::one();
    for (std::size_t i = 0; i < n; ++i) {
        Fr x = Fr::one();
        for (std::size_t j = 0; j < n; ++j) {
            out[i] += coeffs[j] * x;
            x *= wi;
        }
        wi *= dom.omega();
    }
    return out;
}

/**
 * In-place iterative radix-2 NTT (or INTT when `invert`).
 * Input/output in natural order; INTT includes the 1/N scaling.
 */
template <typename Fr>
void
nttInPlace(const Domain<Fr> &dom, std::vector<Fr> &a, bool invert = false)
{
    std::size_t n = dom.size();
    std::size_t log_n = dom.logSize();

    for (std::size_t i = 0; i < n; ++i) {
        std::size_t j = bitReverse(i, log_n);
        if (i < j)
            std::swap(a[i], a[j]);
    }

    // Scratch for the batched butterfly rows; the largest row is the
    // final iteration's n/2 lanes.
    std::vector<Fr> scratch(n / 2);

    for (std::size_t iter = 0; iter < log_n; ++iter) {
        std::size_t half = std::size_t(1) << iter;
        std::size_t len = half << 1;
        if (half >= 8) {
            // Wide iterations: each block's lane pairs are contiguous
            // rows (u = a[start..], v = a[start+half..]) and the
            // iteration's twiddles are a contiguous row, so the whole
            // inner loop is batched field ops through the dispatched
            // vector kernels. Bit-identical to the scalar loop below.
            const Fr *w = invert ? dom.twiddleInvRow(iter)
                                 : dom.twiddleRow(iter);
            for (std::size_t start = 0; start < n; start += len)
                butterflyRows(a.data() + start, a.data() + start + half,
                              w, half, scratch.data());
        } else {
            for (std::size_t start = 0; start < n; start += len) {
                for (std::size_t j = 0; j < half; ++j) {
                    const Fr &w = invert ? dom.twiddleInv(iter, j)
                                         : dom.twiddle(iter, j);
                    Fr u = a[start + j];
                    Fr v = a[start + j + half] * w;
                    a[start + j] = u + v;
                    a[start + j + half] = u - v;
                }
            }
        }
        // Simulated soft error: one butterfly output of this
        // iteration is corrupted (one probe per iteration, so the
        // hot loop stays probe-free).
        faultsim::maybeCorruptElement(faultsim::FaultKind::Butterfly,
                                      a.data(), n, "ntt.cpu.iter",
                                      iter);
    }

    if (invert)
        ff::mulcBatch(a.data(), a.data(), dom.nInv(), n);
}

/**
 * Multiply element i by g^i (move evaluations to the coset gH, or
 * back with g = cosetGenInv). Used by the POLY stage's coset NTTs.
 * The powers of one block are built by doubling batched runs, then
 * each block takes one batched multiply and steps the powers by
 * g^block, so no element waits on a chain of scalar multiplies.
 */
template <typename Fr>
void
cosetScale(std::vector<Fr> &a, const Fr &g)
{
    constexpr std::size_t kBlock = 256;
    std::size_t n = a.size();
    std::size_t width = std::min(n, kBlock);
    if (width == 0)
        return;
    std::vector<Fr> pw(width);
    pw[0] = Fr::one();
    for (std::size_t len = 1; len < width; len *= 2)
        ff::mulcBatch(pw.data() + len, pw.data(), pw[len - 1] * g,
                      std::min(len, width - len));
    Fr step = pw[width - 1] * g;
    for (std::size_t lo = 0; lo < n; lo += width) {
        std::size_t len = std::min(width, n - lo);
        ff::mulBatch(a.data() + lo, a.data() + lo, pw.data(), len);
        if (lo + width < n)
            ff::mulcBatch(pw.data(), pw.data(), step, width);
    }
}

/**
 * The libsnark-like CPU baseline: same functional flow, with cost
 * statistics reflecting its implementation strategy.
 */
template <typename Fr>
class LibsnarkStyleNtt
{
  public:
    /**
     * @param recompute_omegas model the per-butterfly omega power
     *        recomputation (the library's default); setting false
     *        models the paper's "precompute all omega values"
     *        experiment, which trades 16x memory for ~1.5x speed.
     */
    explicit LibsnarkStyleNtt(bool recompute_omegas = true)
        : recomputeOmegas_(recompute_omegas)
    {}

    void
    run(const Domain<Fr> &dom, std::vector<Fr> &a, bool invert = false) const
    {
        nttInPlace(dom, a, invert);
    }

    /** Operation counts for the CPU roofline model. */
    gpusim::CpuStats
    stats(std::size_t log_n) const
    {
        double n = double(std::size_t(1) << log_n);
        double butterflies = n / 2 * double(log_n);
        gpusim::CpuStats s;
        s.limbs = Fr::kLimbs;
        // Butterfly: 1 twiddle multiply + add + sub; the baseline
        // additionally recomputes the omega power (~2 extra muls
        // amortised: incremental multiply plus block-entry power).
        s.fieldMuls = butterflies * (recomputeOmegas_ ? 3.0 : 1.0);
        s.fieldAdds = butterflies * 2.0;
        // Serial fraction: bit-reversal plus inter-iteration sync.
        s.serialFraction = 0.06;
        return s;
    }

  private:
    bool recomputeOmegas_;
};

} // namespace gzkp::ntt

#endif // GZKP_NTT_NTT_CPU_HH
