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
 *  - ifma52x8: radix-2^52 CIOS using VPMADD52{LO,HI}UQ when the host
 *    has AVX-512 IFMA. Elements are recoded into 5 x 52-bit digits
 *    (5*52 = 260 >= 256); madd52lo/hi give the exact low/high 52 bits
 *    of each 104-bit digit product. Per-step carry bound: the carry
 *    C = (S >> 52) + hi52(product) <= 2^52 + 2, comfortably inside a
 *    64-bit lane. m = T[0] * inv mod 2^52 comes straight from one
 *    madd52lo against inv52 = inv mod 2^52 (valid because
 *    p * inv == -1 mod 2^64 implies the same mod 2^52).
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
};

inline void
toDigits52(std::uint64_t d[5], const std::uint64_t a[4])
{
    d[0] = a[0] & kM52;
    d[1] = ((a[0] >> 52) | (a[1] << 12)) & kM52;
    d[2] = ((a[1] >> 40) | (a[2] << 24)) & kM52;
    d[3] = ((a[2] >> 28) | (a[3] << 36)) & kM52;
    d[4] = a[3] >> 16;
}

inline Ctx52
makeCtx52(const Mont4 &m)
{
    Ctx52 c;
    std::uint64_t d[5];
    toDigits52(d, m.p);
    for (int j = 0; j < 5; ++j)
        c.p[j] = _mm512_set1_epi64((long long)d[j]);
    c.inv52 = _mm512_set1_epi64((long long)(m.inv & kM52));
    c.mask = _mm512_set1_epi64((long long)kM52);
    c.zero = _mm512_setzero_si512();
    return c;
}

inline void
loadDigits52(__m512i D[5], const std::uint64_t *a, const Ctx52 &c)
{
    __m512i L[4];
    for (int l = 0; l < 4; ++l)
        L[l] = _mm512_set_epi64(
            (long long)a[28 + l], (long long)a[24 + l],
            (long long)a[20 + l], (long long)a[16 + l],
            (long long)a[12 + l], (long long)a[8 + l],
            (long long)a[4 + l], (long long)a[l]);
    D[0] = _mm512_and_si512(L[0], c.mask);
    D[1] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(L[0], 52),
                        _mm512_slli_epi64(L[1], 12)),
        c.mask);
    D[2] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(L[1], 40),
                        _mm512_slli_epi64(L[2], 24)),
        c.mask);
    D[3] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(L[2], 28),
                        _mm512_slli_epi64(L[3], 36)),
        c.mask);
    D[4] = _mm512_srli_epi64(L[3], 16);
}

inline void
broadcastDigits52(__m512i D[5], const std::uint64_t *a)
{
    std::uint64_t d[5];
    toDigits52(d, a);
    for (int j = 0; j < 5; ++j)
        D[j] = _mm512_set1_epi64((long long)d[j]);
}

/**
 * Digits of (value << 4). Five 52-bit reduction folds divide by
 * 2^260, not the canonical R = 2^256, so exactly one operand of every
 * product must carry the compensating 2^4. The top digit stays below
 * 2^52 (operands are < p < 2^254), so montCore52's carry bounds are
 * unchanged and its output remains < 2p before the final subtract.
 */
inline void
shiftDigits4(__m512i S4[5], const __m512i D[5], const Ctx52 &c)
{
    S4[0] = _mm512_and_si512(_mm512_slli_epi64(D[0], 4), c.mask);
    for (int j = 1; j < 5; ++j)
        S4[j] = _mm512_and_si512(
            _mm512_or_si512(_mm512_srli_epi64(D[j - 1], 48),
                            _mm512_slli_epi64(D[j], 4)),
            c.mask);
}

inline void
storeDigits52(std::uint64_t *out, const __m512i D[5])
{
    __m512i L[4];
    L[0] = _mm512_or_si512(D[0], _mm512_slli_epi64(D[1], 52));
    L[1] = _mm512_or_si512(_mm512_srli_epi64(D[1], 12),
                           _mm512_slli_epi64(D[2], 40));
    L[2] = _mm512_or_si512(_mm512_srli_epi64(D[2], 24),
                           _mm512_slli_epi64(D[3], 28));
    L[3] = _mm512_or_si512(_mm512_srli_epi64(D[3], 36),
                           _mm512_slli_epi64(D[4], 16));
    alignas(64) std::uint64_t tmp[8];
    for (int l = 0; l < 4; ++l) {
        _mm512_store_si512(tmp, L[l]);
        for (int e = 0; e < 8; ++e)
            out[4 * e + l] = tmp[e];
    }
}

inline void
montCore52(__m512i D[5], const __m512i A[5], const __m512i B[5],
           const Ctx52 &c)
{
    __m512i T[6];
    for (int j = 0; j < 6; ++j)
        T[j] = c.zero;
    __m512i T6 = c.zero;

    for (int i = 0; i < 5; ++i) {
        __m512i C = c.zero;
        for (int j = 0; j < 5; ++j) {
            __m512i S = _mm512_add_epi64(
                _mm512_madd52lo_epu64(T[j], A[i], B[j]), C);
            T[j] = _mm512_and_si512(S, c.mask);
            C = _mm512_add_epi64(
                _mm512_srli_epi64(S, 52),
                _mm512_madd52hi_epu64(c.zero, A[i], B[j]));
        }
        __m512i S = _mm512_add_epi64(T[5], C);
        T[5] = _mm512_and_si512(S, c.mask);
        T6 = _mm512_srli_epi64(S, 52);

        __m512i m = _mm512_madd52lo_epu64(c.zero, T[0], c.inv52);
        S = _mm512_madd52lo_epu64(T[0], m, c.p[0]);
        C = _mm512_add_epi64(
            _mm512_srli_epi64(S, 52),
            _mm512_madd52hi_epu64(c.zero, m, c.p[0]));
        for (int j = 1; j < 5; ++j) {
            S = _mm512_add_epi64(
                _mm512_madd52lo_epu64(T[j], m, c.p[j]), C);
            T[j - 1] = _mm512_and_si512(S, c.mask);
            C = _mm512_add_epi64(
                _mm512_srli_epi64(S, 52),
                _mm512_madd52hi_epu64(c.zero, m, c.p[j]));
        }
        S = _mm512_add_epi64(T[5], C);
        T[4] = _mm512_and_si512(S, c.mask);
        T[5] = _mm512_add_epi64(T6, _mm512_srli_epi64(S, 52));
    }

    __m512i R[5];
    __m512i borrow = c.zero;
    for (int j = 0; j < 5; ++j) {
        __m512i S = _mm512_sub_epi64(
            _mm512_sub_epi64(T[j], c.p[j]), borrow);
        R[j] = _mm512_and_si512(S, c.mask);
        borrow = _mm512_srli_epi64(S, 63);
    }
    __mmask8 needSub =
        _mm512_cmpneq_epi64_mask(T[5], c.zero) |
        _mm512_cmpeq_epi64_mask(borrow, c.zero);
    for (int j = 0; j < 5; ++j)
        D[j] = _mm512_mask_blend_epi64(needSub, T[j], R[j]);
}

void
mul52(std::uint64_t *out, const std::uint64_t *a,
      const std::uint64_t *b, std::size_t n, const Mont4 &m)
{
    const Ctx52 c = makeCtx52(m);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i A[5], A4[5], B[5], D[5];
        loadDigits52(A, a + 4 * i, c);
        shiftDigits4(A4, A, c);
        loadDigits52(B, b + 4 * i, c);
        montCore52(D, A4, B, c);
        storeDigits52(out + 4 * i, D);
    }
    for (; i < n; ++i)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, b + 4 * i, m.p, m.inv);
}

void
sqr52(std::uint64_t *out, const std::uint64_t *a, std::size_t n,
      const Mont4 &m)
{
    const Ctx52 c = makeCtx52(m);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i A[5], A4[5], D[5];
        loadDigits52(A, a + 4 * i, c);
        shiftDigits4(A4, A, c);
        montCore52(D, A4, A, c);
        storeDigits52(out + 4 * i, D);
    }
    for (; i < n; ++i)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, a + 4 * i, m.p, m.inv);
}

void
mulc52(std::uint64_t *out, const std::uint64_t *a,
       const std::uint64_t *cc, std::size_t n, const Mont4 &m)
{
    const Ctx52 c = makeCtx52(m);
    __m512i B[5], B4[5];
    broadcastDigits52(B, cc);
    shiftDigits4(B4, B, c);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i A[5], D[5];
        loadDigits52(A, a + 4 * i, c);
        montCore52(D, A, B4, c);
        storeDigits52(out + 4 * i, D);
    }
    for (; i < n; ++i)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, cc, m.p, m.inv);
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
