/**
 * @file
 * Scalar CIOS Montgomery multiplication on raw little-endian limbs.
 *
 * This is the generic reference loop of the field stack: the oracle
 * that Fp<Tag>'s branch-free kernels (ff/fp_kernels.hh) are tested
 * against, the multiply behind fp.hh's montMul() and makeMontParams(),
 * and the portable dispatch arm's batch kernel (two independent limb
 * chains interleaved per loop iteration, the ZKProphet-style latency
 * fix). The vector arms (avx2.cc / avx512.cc) also call it for batch
 * tails.
 *
 * Bit-identity contract: for fully-reduced inputs (< p) the output is
 * the fully-reduced canonical value a * b * R^-1 mod p -- a function
 * of the inputs alone, not of the algorithm. Every kernel in the
 * dispatch layer preserves full reduction, which is what makes
 * cross-arm limb equality a testable invariant rather than a hope.
 *
 * Header-only and free of fp.hh dependencies so the per-file-ISA
 * translation units can include it without dragging field tags in.
 */

#ifndef GZKP_FF_SIMD_MONT_SCALAR_HH
#define GZKP_FF_SIMD_MONT_SCALAR_HH

#include <cstddef>
#include <cstdint>

namespace gzkp::ff::simd {

using uint128_t = unsigned __int128;

/** limbs(a) >= limbs(b), both N wide. */
template <std::size_t N>
inline bool
limbsGe(const std::uint64_t *a, const std::uint64_t *b)
{
    for (std::size_t i = N; i-- > 0;) {
        if (a[i] < b[i])
            return false;
        if (a[i] > b[i])
            return true;
    }
    return true;
}

/** out = a - b on N limbs (caller guarantees a >= b). */
template <std::size_t N>
inline void
limbsSub(std::uint64_t *out, const std::uint64_t *a,
         const std::uint64_t *b)
{
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < N; ++i) {
        uint128_t t = uint128_t(a[i]) - b[i] - borrow;
        out[i] = std::uint64_t(t);
        borrow = (t >> 64) ? 1 : 0;
    }
}

/**
 * CIOS Montgomery multiplication: out = a * b * R^-1 mod p with
 * R = 2^(64N). Inputs fully reduced; output fully reduced. `out` may
 * alias `a` or `b` (the working state lives in `t`).
 */
template <std::size_t N>
inline void
montMulLimbs(std::uint64_t *out, const std::uint64_t *a,
             const std::uint64_t *b, const std::uint64_t *p,
             std::uint64_t inv)
{
    std::uint64_t t[N + 2] = {0};
    for (std::size_t i = 0; i < N; ++i) {
        // Multiplication step: t += a[i] * b.
        std::uint64_t c = 0;
        for (std::size_t j = 0; j < N; ++j) {
            uint128_t s = uint128_t(t[j]) + uint128_t(a[i]) * b[j] + c;
            t[j] = std::uint64_t(s);
            c = std::uint64_t(s >> 64);
        }
        uint128_t s = uint128_t(t[N]) + c;
        t[N] = std::uint64_t(s);
        t[N + 1] = std::uint64_t(s >> 64);

        // Reduction step: fold out one limb with m = t[0] * inv.
        std::uint64_t m = t[0] * inv;
        s = uint128_t(t[0]) + uint128_t(m) * p[0];
        c = std::uint64_t(s >> 64);
        for (std::size_t j = 1; j < N; ++j) {
            s = uint128_t(t[j]) + uint128_t(m) * p[j] + c;
            t[j - 1] = std::uint64_t(s);
            c = std::uint64_t(s >> 64);
        }
        s = uint128_t(t[N]) + c;
        t[N - 1] = std::uint64_t(s);
        t[N] = t[N + 1] + std::uint64_t(s >> 64);
        t[N + 1] = 0;
    }
    if (t[N] != 0 || limbsGe<N>(t, p))
        limbsSub<N>(out, t, p);
    else
        for (std::size_t i = 0; i < N; ++i)
            out[i] = t[i];
}

/**
 * Two independent CIOS multiplications with interleaved limb chains.
 *
 * A single CIOS pass is a long dependency chain (each partial product
 * waits on the previous carry), so the integer ALUs sit idle between
 * steps. Interleaving two *independent* multiplications fills those
 * stalls -- the portable batch arm's whole trick. Results are exactly
 * montMulLimbs of each pair (same operations, same order per chain).
 */
template <std::size_t N>
inline void
montMulLimbs2(std::uint64_t *out0, const std::uint64_t *a0,
              const std::uint64_t *b0, std::uint64_t *out1,
              const std::uint64_t *a1, const std::uint64_t *b1,
              const std::uint64_t *p, std::uint64_t inv)
{
    std::uint64_t t0[N + 2] = {0};
    std::uint64_t t1[N + 2] = {0};
    for (std::size_t i = 0; i < N; ++i) {
        std::uint64_t c0 = 0, c1 = 0;
        for (std::size_t j = 0; j < N; ++j) {
            uint128_t s0 =
                uint128_t(t0[j]) + uint128_t(a0[i]) * b0[j] + c0;
            uint128_t s1 =
                uint128_t(t1[j]) + uint128_t(a1[i]) * b1[j] + c1;
            t0[j] = std::uint64_t(s0);
            c0 = std::uint64_t(s0 >> 64);
            t1[j] = std::uint64_t(s1);
            c1 = std::uint64_t(s1 >> 64);
        }
        uint128_t s0 = uint128_t(t0[N]) + c0;
        uint128_t s1 = uint128_t(t1[N]) + c1;
        t0[N] = std::uint64_t(s0);
        t0[N + 1] = std::uint64_t(s0 >> 64);
        t1[N] = std::uint64_t(s1);
        t1[N + 1] = std::uint64_t(s1 >> 64);

        std::uint64_t m0 = t0[0] * inv;
        std::uint64_t m1 = t1[0] * inv;
        s0 = uint128_t(t0[0]) + uint128_t(m0) * p[0];
        s1 = uint128_t(t1[0]) + uint128_t(m1) * p[0];
        c0 = std::uint64_t(s0 >> 64);
        c1 = std::uint64_t(s1 >> 64);
        for (std::size_t j = 1; j < N; ++j) {
            s0 = uint128_t(t0[j]) + uint128_t(m0) * p[j] + c0;
            s1 = uint128_t(t1[j]) + uint128_t(m1) * p[j] + c1;
            t0[j - 1] = std::uint64_t(s0);
            c0 = std::uint64_t(s0 >> 64);
            t1[j - 1] = std::uint64_t(s1);
            c1 = std::uint64_t(s1 >> 64);
        }
        s0 = uint128_t(t0[N]) + c0;
        s1 = uint128_t(t1[N]) + c1;
        t0[N - 1] = std::uint64_t(s0);
        t0[N] = t0[N + 1] + std::uint64_t(s0 >> 64);
        t0[N + 1] = 0;
        t1[N - 1] = std::uint64_t(s1);
        t1[N] = t1[N + 1] + std::uint64_t(s1 >> 64);
        t1[N + 1] = 0;
    }
    if (t0[N] != 0 || limbsGe<N>(t0, p))
        limbsSub<N>(out0, t0, p);
    else
        for (std::size_t i = 0; i < N; ++i)
            out0[i] = t0[i];
    if (t1[N] != 0 || limbsGe<N>(t1, p))
        limbsSub<N>(out1, t1, p);
    else
        for (std::size_t i = 0; i < N; ++i)
            out1[i] = t1[i];
}

} // namespace gzkp::ff::simd

#endif // GZKP_FF_SIMD_MONT_SCALAR_HH
