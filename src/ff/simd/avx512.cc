/**
 * @file
 * AVX-512 dispatch arm: 8 field elements per batch step.
 *
 * Two kernel families share this translation unit:
 *
 *  - cios32x8: the AVX2 algorithm widened to __m512i (8 x 32-bit-digit
 *    CIOS with _mm512_mul_epu32). Needs only AVX-512F. Same overflow
 *    analysis as avx2.cc.
 *
 *  - ifma52x8: radix-2^52 Montgomery using VPMADD52{LO,HI}UQ when the
 *    host has AVX-512 IFMA. A block of eight elements is loaded as
 *    four vectors and transposed to limb-major order by two rounds of
 *    permutex2var (stores run the same rounds back), then recoded
 *    into 5 x 52-bit digits (5*52 = 260 >= 256); madd52lo/hi give the
 *    exact low/high 52 bits of each 104-bit digit product. The digits
 *    accumulate those halves unnormalized (lazy carries, under 2^57
 *    after five rounds; see montCore52) and are normalized once.
 *    m = T[0] * inv mod 2^52 comes straight from one madd52lo against
 *    inv52 = inv mod 2^52 (valid because p * inv == -1 mod 2^64
 *    implies the same mod 2^52). A short last block runs through
 *    masked loads and stores, so no element takes a scalar path.
 *
 * avx512Kernels4() picks ifma52x8 iff the binary was compiled with
 * IFMA support *and* CPUID reports avx512ifma; otherwise cios32x8.
 * Both produce canonical fully-reduced outputs -> bit-identical to
 * every other arm.
 *
 * Compiled with -mavx512f (and -mavx512ifma when the compiler has it);
 * callers must check isaSupported(Isa::Avx512) first.
 */

#ifdef GZKP_FF_HAVE_AVX512

#include <immintrin.h>

#include "ff/simd/arms.hh"
#include "ff/simd/mont_scalar.hh"

namespace gzkp::ff::simd::detail {

namespace {

constexpr std::uint64_t kM32 = 0xffffffffull;

//===------------------------- cios32x8 -------------------------===//

struct Ctx32 {
    __m512i p[8];
    __m512i inv32;
    __m512i mask;
    __m512i zero;
};

inline Ctx32
makeCtx32(const Mont4 &m)
{
    Ctx32 c;
    for (int l = 0; l < 4; ++l) {
        c.p[2 * l] = _mm512_set1_epi64((long long)(m.p[l] & kM32));
        c.p[2 * l + 1] =
            _mm512_set1_epi64((long long)(m.p[l] >> 32));
    }
    c.inv32 = _mm512_set1_epi64((long long)(m.inv & kM32));
    c.mask = _mm512_set1_epi64((long long)kM32);
    c.zero = _mm512_setzero_si512();
    return c;
}

inline void
loadDigits32(__m512i D[8], const std::uint64_t *a, const Ctx32 &c)
{
    for (int l = 0; l < 4; ++l) {
        __m512i limb = _mm512_set_epi64(
            (long long)a[28 + l], (long long)a[24 + l],
            (long long)a[20 + l], (long long)a[16 + l],
            (long long)a[12 + l], (long long)a[8 + l],
            (long long)a[4 + l], (long long)a[l]);
        D[2 * l] = _mm512_and_si512(limb, c.mask);
        D[2 * l + 1] = _mm512_srli_epi64(limb, 32);
    }
}

inline void
broadcastDigits32(__m512i D[8], const std::uint64_t *a)
{
    for (int l = 0; l < 4; ++l) {
        D[2 * l] = _mm512_set1_epi64((long long)(a[l] & kM32));
        D[2 * l + 1] = _mm512_set1_epi64((long long)(a[l] >> 32));
    }
}

inline void
storeDigits32(std::uint64_t *out, const __m512i D[8])
{
    alignas(64) std::uint64_t tmp[8];
    for (int l = 0; l < 4; ++l) {
        __m512i limb = _mm512_or_si512(
            D[2 * l], _mm512_slli_epi64(D[2 * l + 1], 32));
        _mm512_store_si512(tmp, limb);
        for (int e = 0; e < 8; ++e)
            out[4 * e + l] = tmp[e];
    }
}

inline void
montCore32(__m512i D[8], const __m512i A[8], const __m512i B[8],
           const Ctx32 &c)
{
    __m512i T[9];
    for (int j = 0; j < 9; ++j)
        T[j] = c.zero;
    __m512i T9 = c.zero;

    for (int i = 0; i < 8; ++i) {
        __m512i C = c.zero;
        for (int j = 0; j < 8; ++j) {
            __m512i S = _mm512_add_epi64(
                _mm512_add_epi64(T[j], _mm512_mul_epu32(A[i], B[j])),
                C);
            T[j] = _mm512_and_si512(S, c.mask);
            C = _mm512_srli_epi64(S, 32);
        }
        __m512i S = _mm512_add_epi64(T[8], C);
        T[8] = _mm512_and_si512(S, c.mask);
        T9 = _mm512_srli_epi64(S, 32);

        __m512i m = _mm512_and_si512(
            _mm512_mul_epu32(T[0], c.inv32), c.mask);
        S = _mm512_add_epi64(T[0], _mm512_mul_epu32(m, c.p[0]));
        C = _mm512_srli_epi64(S, 32);
        for (int j = 1; j < 8; ++j) {
            S = _mm512_add_epi64(
                _mm512_add_epi64(T[j], _mm512_mul_epu32(m, c.p[j])),
                C);
            T[j - 1] = _mm512_and_si512(S, c.mask);
            C = _mm512_srli_epi64(S, 32);
        }
        S = _mm512_add_epi64(T[8], C);
        T[7] = _mm512_and_si512(S, c.mask);
        T[8] = _mm512_add_epi64(T9, _mm512_srli_epi64(S, 32));
    }

    __m512i R[8];
    __m512i borrow = c.zero;
    for (int j = 0; j < 8; ++j) {
        __m512i S = _mm512_sub_epi64(
            _mm512_sub_epi64(T[j], c.p[j]), borrow);
        R[j] = _mm512_and_si512(S, c.mask);
        borrow = _mm512_srli_epi64(S, 63);
    }
    __mmask8 needSub =
        _mm512_cmpneq_epi64_mask(T[8], c.zero) |
        _mm512_cmpeq_epi64_mask(borrow, c.zero);
    for (int j = 0; j < 8; ++j)
        D[j] = _mm512_mask_blend_epi64(needSub, T[j], R[j]);
}

void
mul32(std::uint64_t *out, const std::uint64_t *a,
      const std::uint64_t *b, std::size_t n, const Mont4 &m)
{
    const Ctx32 c = makeCtx32(m);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i A[8], B[8], D[8];
        loadDigits32(A, a + 4 * i, c);
        loadDigits32(B, b + 4 * i, c);
        montCore32(D, A, B, c);
        storeDigits32(out + 4 * i, D);
    }
    for (; i < n; ++i)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, b + 4 * i, m.p, m.inv);
}

void
sqr32(std::uint64_t *out, const std::uint64_t *a, std::size_t n,
      const Mont4 &m)
{
    const Ctx32 c = makeCtx32(m);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i A[8], D[8];
        loadDigits32(A, a + 4 * i, c);
        montCore32(D, A, A, c);
        storeDigits32(out + 4 * i, D);
    }
    for (; i < n; ++i)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, a + 4 * i, m.p, m.inv);
}

void
mulc32(std::uint64_t *out, const std::uint64_t *a,
       const std::uint64_t *cc, std::size_t n, const Mont4 &m)
{
    const Ctx32 c = makeCtx32(m);
    __m512i B[8];
    broadcastDigits32(B, cc);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i A[8], D[8];
        loadDigits32(A, a + 4 * i, c);
        montCore32(D, A, B, c);
        storeDigits32(out + 4 * i, D);
    }
    for (; i < n; ++i)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, cc, m.p, m.inv);
}

//===------------------------- ifma52x8 -------------------------===//

#ifdef __AVX512IFMA__

constexpr std::uint64_t kM52 = (1ull << 52) - 1;

struct Ctx52 {
    __m512i p[5];  // modulus in 5 x 52-bit digits, broadcast
    __m512i inv52; // -p^-1 mod 2^52, broadcast
    __m512i mask;  // kM52 per lane
    __m512i zero;
    // permutex2var indices of the 8 x 4 limb transpose (loadLimbs52):
    // limbs {0, 1} or {2, 3} of four elements, then the low or high
    // four lanes of two vectors
    __m512i limbs01, limbs23, lowHalf, highHalf;
};

inline Ctx52
makeCtx52(const Mont4 &m)
{
    Ctx52 c;
    const std::uint64_t d[5] = {
        m.p[0] & kM52,
        ((m.p[0] >> 52) | (m.p[1] << 12)) & kM52,
        ((m.p[1] >> 40) | (m.p[2] << 24)) & kM52,
        ((m.p[2] >> 28) | (m.p[3] << 36)) & kM52,
        m.p[3] >> 16,
    };
    for (int j = 0; j < 5; ++j)
        c.p[j] = _mm512_set1_epi64((long long)d[j]);
    c.inv52 = _mm512_set1_epi64((long long)(m.inv & kM52));
    c.mask = _mm512_set1_epi64((long long)kM52);
    c.zero = _mm512_setzero_si512();
    c.limbs01 = _mm512_set_epi64(13, 9, 5, 1, 12, 8, 4, 0);
    c.limbs23 = _mm512_set_epi64(15, 11, 7, 3, 14, 10, 6, 2);
    c.lowHalf = _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0);
    c.highHalf = _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4);
    return c;
}

/** Lanes of the k-th 8-word vector of a block that holds `words`
 *  words (32 for a full block of eight elements). */
[[gnu::always_inline]] inline __mmask8
blockLanes(std::size_t words, int k)
{
    const std::size_t have = words > 8u * k ? words - 8u * k : 0;
    return have >= 8 ? __mmask8(0xff) : __mmask8((1u << have) - 1);
}

/**
 * L[l] = limb l of the block's eight elements, lane e = element e.
 * Four vector loads and two rounds of permutex2var transpose the
 * block: the first gathers limbs {0, 1} and {2, 3} of four elements
 * per vector, the second joins the two halves. A short block (the
 * batch tail) loads only its `words` words; the missing elements are
 * zero.
 */
[[gnu::always_inline]] inline void
loadLimbs52(__m512i L[4], const std::uint64_t *a, std::size_t words,
            const Ctx52 &c)
{
    __m512i z[4];
#pragma GCC unroll 8
    for (int k = 0; k < 4; ++k) {
        const __mmask8 lanes = blockLanes(words, k);
        z[k] = lanes ? _mm512_maskz_loadu_epi64(lanes, a + 8 * k) : c.zero;
    }
    const __m512i x01 = _mm512_permutex2var_epi64(z[0], c.limbs01, z[1]);
    const __m512i x23 = _mm512_permutex2var_epi64(z[0], c.limbs23, z[1]);
    const __m512i y01 = _mm512_permutex2var_epi64(z[2], c.limbs01, z[3]);
    const __m512i y23 = _mm512_permutex2var_epi64(z[2], c.limbs23, z[3]);
    L[0] = _mm512_permutex2var_epi64(x01, c.lowHalf, y01);
    L[1] = _mm512_permutex2var_epi64(x01, c.highHalf, y01);
    L[2] = _mm512_permutex2var_epi64(x23, c.lowHalf, y23);
    L[3] = _mm512_permutex2var_epi64(x23, c.highHalf, y23);
}

/** Inverse of loadLimbs52: the same two permute rounds in reverse. */
[[gnu::always_inline]] inline void
storeLimbs52(std::uint64_t *out, const __m512i L[4], std::size_t words,
             const Ctx52 &c)
{
    const __m512i x01 = _mm512_permutex2var_epi64(L[0], c.lowHalf, L[1]);
    const __m512i y01 = _mm512_permutex2var_epi64(L[0], c.highHalf, L[1]);
    const __m512i x23 = _mm512_permutex2var_epi64(L[2], c.lowHalf, L[3]);
    const __m512i y23 = _mm512_permutex2var_epi64(L[2], c.highHalf, L[3]);
    const __m512i z[4] = {
        _mm512_permutex2var_epi64(x01, c.limbs01, x23),
        _mm512_permutex2var_epi64(x01, c.limbs23, x23),
        _mm512_permutex2var_epi64(y01, c.limbs01, y23),
        _mm512_permutex2var_epi64(y01, c.limbs23, y23),
    };
#pragma GCC unroll 8
    for (int k = 0; k < 4; ++k) {
        const __mmask8 lanes = blockLanes(words, k);
        if (lanes)
            _mm512_mask_storeu_epi64(out + 8 * k, lanes, z[k]);
    }
}

/**
 * 52-bit digits of (limbs << S). S = 4 supplies the 2^4 that five
 * 52-bit reduction folds need: they divide by 2^260, not the
 * canonical R = 2^256, so exactly one operand of every product
 * carries the compensating shift. Operands are < p < 2^254, so the
 * shifted value still fits five digits.
 */
template <int S>
[[gnu::always_inline]] inline void
digits52(__m512i D[5], const __m512i L[4], const Ctx52 &c)
{
    D[0] = _mm512_and_si512(_mm512_slli_epi64(L[0], S), c.mask);
    D[1] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(L[0], 52 - S),
                        _mm512_slli_epi64(L[1], 12 + S)),
        c.mask);
    D[2] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(L[1], 40 - S),
                        _mm512_slli_epi64(L[2], 24 + S)),
        c.mask);
    D[3] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(L[2], 28 - S),
                        _mm512_slli_epi64(L[3], 36 + S)),
        c.mask);
    D[4] = _mm512_srli_epi64(L[3], 16 - S);
}

/** Limbs of five normalized digits (inverse of digits52<0>). */
[[gnu::always_inline]] inline void
limbs52(__m512i L[4], const __m512i D[5])
{
    L[0] = _mm512_or_si512(D[0], _mm512_slli_epi64(D[1], 52));
    L[1] = _mm512_or_si512(_mm512_srli_epi64(D[1], 12),
                           _mm512_slli_epi64(D[2], 40));
    L[2] = _mm512_or_si512(_mm512_srli_epi64(D[2], 24),
                           _mm512_slli_epi64(D[3], 28));
    L[3] = _mm512_or_si512(_mm512_srli_epi64(D[3], 36),
                           _mm512_slli_epi64(D[4], 16));
}

/**
 * Montgomery product of digit vectors, limbs out: L = A * B / 2^260
 * mod p, canonical.
 *
 * Lazy carries: each round adds the lo and hi halves of a_i * b and
 * m * p into the digits without normalizing them. A digit gains at
 * most four 52-bit halves per round, under 2^54, so after five rounds
 * every digit is below 5 * 2^54 + 2^6 < 2^57 and no 64-bit lane
 * overflows. madd52 reads only the low 52 bits of a multiplicand,
 * which is all m = T[0] * inv mod 2^52 needs. Each round carries only
 * the digit that shifts out (T[0], a multiple of 2^52 once m * p is
 * in), and one carry pass normalizes the digits at the end. The value
 * is below (2^258 p + 2^260 p) / 2^260 < 2p, so one conditional
 * subtraction makes it canonical.
 */
[[gnu::always_inline]] inline void
montCore52(__m512i L[4], const __m512i A[5], const __m512i B[5],
           const Ctx52 &c)
{
    __m512i T[6];
#pragma GCC unroll 8
    for (int j = 0; j < 6; ++j)
        T[j] = c.zero;

#pragma GCC unroll 8
    for (int i = 0; i < 5; ++i) {
#pragma GCC unroll 8
        for (int j = 0; j < 5; ++j) {
            T[j] = _mm512_madd52lo_epu64(T[j], A[i], B[j]);
            T[j + 1] = _mm512_madd52hi_epu64(T[j + 1], A[i], B[j]);
        }
        const __m512i m = _mm512_madd52lo_epu64(c.zero, T[0], c.inv52);
#pragma GCC unroll 8
        for (int j = 0; j < 5; ++j) {
            T[j] = _mm512_madd52lo_epu64(T[j], m, c.p[j]);
            T[j + 1] = _mm512_madd52hi_epu64(T[j + 1], m, c.p[j]);
        }
        T[1] = _mm512_add_epi64(T[1], _mm512_srli_epi64(T[0], 52));
#pragma GCC unroll 8
        for (int j = 0; j < 5; ++j)
            T[j] = T[j + 1];
        T[5] = c.zero;
    }

#pragma GCC unroll 8
    for (int j = 0; j < 4; ++j) {
        T[j + 1] = _mm512_add_epi64(T[j + 1], _mm512_srli_epi64(T[j], 52));
        T[j] = _mm512_and_si512(T[j], c.mask);
    }

    __m512i R[5];
    __m512i borrow = c.zero;
#pragma GCC unroll 8
    for (int j = 0; j < 5; ++j) {
        __m512i S = _mm512_sub_epi64(
            _mm512_sub_epi64(T[j], c.p[j]), borrow);
        R[j] = _mm512_and_si512(S, c.mask);
        borrow = _mm512_srli_epi64(S, 63);
    }
    const __mmask8 geP = _mm512_cmpeq_epi64_mask(borrow, c.zero);
#pragma GCC unroll 8
    for (int j = 0; j < 5; ++j)
        T[j] = _mm512_mask_blend_epi64(geP, T[j], R[j]);
    limbs52(L, T);
}

/**
 * Calls block(i, words) for each block of eight elements starting at
 * element i, words = 32 limbs; the last block may be short (words <
 * 32), which the masked loads and stores handle, so no element takes
 * a scalar path.
 */
template <typename Block>
[[gnu::always_inline]] inline void
forBlocks52(std::size_t n, Block block)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        block(i, std::size_t(32));
    if (i < n)
        block(i, 4 * (n - i));
}

void
mul52(std::uint64_t *out, const std::uint64_t *a,
      const std::uint64_t *b, std::size_t n, const Mont4 &m)
{
    const Ctx52 c = makeCtx52(m);
    forBlocks52(n, [&](std::size_t i, std::size_t words)
                        __attribute__((always_inline)) {
        __m512i L[4], A4[5], B[5];
        loadLimbs52(L, a + 4 * i, words, c);
        digits52<4>(A4, L, c);
        loadLimbs52(L, b + 4 * i, words, c);
        digits52<0>(B, L, c);
        montCore52(L, A4, B, c);
        storeLimbs52(out + 4 * i, L, words, c);
    });
}

void
sqr52(std::uint64_t *out, const std::uint64_t *a, std::size_t n,
      const Mont4 &m)
{
    const Ctx52 c = makeCtx52(m);
    forBlocks52(n, [&](std::size_t i, std::size_t words)
                        __attribute__((always_inline)) {
        __m512i L[4], A4[5], A[5];
        loadLimbs52(L, a + 4 * i, words, c);
        digits52<4>(A4, L, c);
        digits52<0>(A, L, c);
        montCore52(L, A4, A, c);
        storeLimbs52(out + 4 * i, L, words, c);
    });
}

void
mulc52(std::uint64_t *out, const std::uint64_t *a,
       const std::uint64_t *cc, std::size_t n, const Mont4 &m)
{
    const Ctx52 c = makeCtx52(m);
    __m512i L[4], B4[5];
    for (int l = 0; l < 4; ++l)
        L[l] = _mm512_set1_epi64((long long)cc[l]);
    digits52<4>(B4, L, c);
    forBlocks52(n, [&](std::size_t i, std::size_t words)
                        __attribute__((always_inline)) {
        __m512i X[4], A[5];
        loadLimbs52(X, a + 4 * i, words, c);
        digits52<0>(A, X, c);
        montCore52(X, A, B4, c);
        storeLimbs52(out + 4 * i, X, words, c);
    });
}

#endif // __AVX512IFMA__

} // namespace

const Kernels4 &
avx512Kernels4()
{
    static const Kernels4 k32 = {mul32, sqr32, mulc32,
                                 "avx512-cios32x8"};
#ifdef __AVX512IFMA__
    static const Kernels4 k52 = {mul52, sqr52, mulc52,
                                 "avx512-ifma52x8"};
    if (__builtin_cpu_supports("avx512ifma"))
        return k52;
#endif
    return k32;
}

} // namespace gzkp::ff::simd::detail

#endif // GZKP_FF_HAVE_AVX512
