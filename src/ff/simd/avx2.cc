/**
 * @file
 * AVX2 dispatch arm: 4 field elements per batch step.
 *
 * AVX2 has no 64x64->128 vector multiply, so elements are transposed
 * into 8 x 32-bit digits and multiplied with _mm256_mul_epu32
 * (32x32->64 per lane). CIOS with digit width w=32, N=8 digits:
 *
 *   accumulate  S = T[j] + a_i*b_j + C
 *               a_i*b_j <= (2^32-1)^2 and T[j], C <= 2^32-1, so
 *               S <= 2^64-1: no lane overflow, ever.
 *   reduce      m = T[0] * inv32 mod 2^32, fold out digit 0.
 *
 * The running value stays < 2p after each outer iteration (the
 * standard CIOS invariant), so the overflow digit T[8] is always 0 or
 * 1 and one conditional subtract of p canonicalizes -- same final
 * reduction rule as the scalar kernel, hence bit-identical outputs.
 *
 * This file is compiled with -mavx2 only (see src/ff/CMakeLists.txt);
 * callers must check isaSupported(Isa::Avx2) first.
 */

#ifdef GZKP_FF_HAVE_AVX2

#include <immintrin.h>

#include "ff/simd/arms.hh"
#include "ff/simd/mont_scalar.hh"

namespace gzkp::ff::simd::detail {

namespace {

constexpr std::uint64_t kM32 = 0xffffffffull;

struct Ctx {
    __m256i p[8];   // modulus digits, broadcast
    __m256i inv32;  // -p^-1 mod 2^32, broadcast
    __m256i mask;   // 0xffffffff per lane
    __m256i zero;
};

inline Ctx
makeCtx(const Mont4 &m)
{
    Ctx c;
    for (int l = 0; l < 4; ++l) {
        c.p[2 * l] =
            _mm256_set1_epi64x((long long)(m.p[l] & kM32));
        c.p[2 * l + 1] =
            _mm256_set1_epi64x((long long)(m.p[l] >> 32));
    }
    c.inv32 = _mm256_set1_epi64x((long long)(m.inv & kM32));
    c.mask = _mm256_set1_epi64x((long long)kM32);
    c.zero = _mm256_setzero_si256();
    return c;
}

/** Transpose 4 contiguous elements (4 limbs each) into digit vectors:
 *  D[d] lane e = digit d of element e. */
inline void
loadDigits(__m256i D[8], const std::uint64_t *a, const Ctx &c)
{
    for (int l = 0; l < 4; ++l) {
        __m256i limb = _mm256_set_epi64x(
            (long long)a[12 + l], (long long)a[8 + l],
            (long long)a[4 + l], (long long)a[l]);
        D[2 * l] = _mm256_and_si256(limb, c.mask);
        D[2 * l + 1] = _mm256_srli_epi64(limb, 32);
    }
}

/** Broadcast one shared element's digits across all lanes. */
inline void
broadcastDigits(__m256i D[8], const std::uint64_t *a)
{
    for (int l = 0; l < 4; ++l) {
        D[2 * l] = _mm256_set1_epi64x((long long)(a[l] & kM32));
        D[2 * l + 1] = _mm256_set1_epi64x((long long)(a[l] >> 32));
    }
}

inline void
storeDigits(std::uint64_t *out, const __m256i D[8])
{
    alignas(32) std::uint64_t tmp[4];
    for (int l = 0; l < 4; ++l) {
        __m256i limb = _mm256_or_si256(
            D[2 * l], _mm256_slli_epi64(D[2 * l + 1], 32));
        _mm256_store_si256((__m256i *)tmp, limb);
        out[l] = tmp[0];
        out[4 + l] = tmp[1];
        out[8 + l] = tmp[2];
        out[12 + l] = tmp[3];
    }
}

/** 4-lane CIOS over digit vectors; D receives the canonical digits. */
inline void
montCore(__m256i D[8], const __m256i A[8], const __m256i B[8],
         const Ctx &c)
{
    __m256i T[9];
    for (int j = 0; j < 9; ++j)
        T[j] = c.zero;
    __m256i T9 = c.zero;

    for (int i = 0; i < 8; ++i) {
        __m256i C = c.zero;
        for (int j = 0; j < 8; ++j) {
            __m256i S = _mm256_add_epi64(
                _mm256_add_epi64(T[j], _mm256_mul_epu32(A[i], B[j])),
                C);
            T[j] = _mm256_and_si256(S, c.mask);
            C = _mm256_srli_epi64(S, 32);
        }
        __m256i S = _mm256_add_epi64(T[8], C);
        T[8] = _mm256_and_si256(S, c.mask);
        T9 = _mm256_srli_epi64(S, 32);

        __m256i m = _mm256_and_si256(
            _mm256_mul_epu32(T[0], c.inv32), c.mask);
        S = _mm256_add_epi64(T[0], _mm256_mul_epu32(m, c.p[0]));
        C = _mm256_srli_epi64(S, 32);
        for (int j = 1; j < 8; ++j) {
            S = _mm256_add_epi64(
                _mm256_add_epi64(T[j], _mm256_mul_epu32(m, c.p[j])),
                C);
            T[j - 1] = _mm256_and_si256(S, c.mask);
            C = _mm256_srli_epi64(S, 32);
        }
        S = _mm256_add_epi64(T[8], C);
        T[7] = _mm256_and_si256(S, c.mask);
        T[8] = _mm256_add_epi64(T9, _mm256_srli_epi64(S, 32));
    }

    // Conditional subtract. Digits are < 2^32, so after the trial
    // subtraction an underflowed lane has bit 63 set -- srli by 63 is
    // the borrow. t >= p iff the overflow digit is set or the trial
    // subtraction did not borrow.
    __m256i R[8];
    __m256i borrow = c.zero;
    for (int j = 0; j < 8; ++j) {
        __m256i S = _mm256_sub_epi64(_mm256_sub_epi64(T[j], c.p[j]),
                                     borrow);
        R[j] = _mm256_and_si256(S, c.mask);
        borrow = _mm256_srli_epi64(S, 63);
    }
    __m256i needSub = _mm256_or_si256(
        _mm256_cmpgt_epi64(T[8], c.zero),
        _mm256_cmpeq_epi64(borrow, c.zero));
    for (int j = 0; j < 8; ++j)
        D[j] = _mm256_blendv_epi8(T[j], R[j], needSub);
}

void
mulAvx2(std::uint64_t *out, const std::uint64_t *a,
        const std::uint64_t *b, std::size_t n, const Mont4 &m)
{
    const Ctx c = makeCtx(m);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i A[8], B[8], D[8];
        loadDigits(A, a + 4 * i, c);
        loadDigits(B, b + 4 * i, c);
        montCore(D, A, B, c);
        storeDigits(out + 4 * i, D);
    }
    for (; i < n; ++i)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, b + 4 * i, m.p, m.inv);
}

void
sqrAvx2(std::uint64_t *out, const std::uint64_t *a, std::size_t n,
        const Mont4 &m)
{
    const Ctx c = makeCtx(m);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i A[8], D[8];
        loadDigits(A, a + 4 * i, c);
        montCore(D, A, A, c);
        storeDigits(out + 4 * i, D);
    }
    for (; i < n; ++i)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, a + 4 * i, m.p, m.inv);
}

void
mulcAvx2(std::uint64_t *out, const std::uint64_t *a,
         const std::uint64_t *cc, std::size_t n, const Mont4 &m)
{
    const Ctx c = makeCtx(m);
    __m256i B[8];
    broadcastDigits(B, cc);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i A[8], D[8];
        loadDigits(A, a + 4 * i, c);
        montCore(D, A, B, c);
        storeDigits(out + 4 * i, D);
    }
    for (; i < n; ++i)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, cc, m.p, m.inv);
}

} // namespace

const Kernels4 &
avx2Kernels4()
{
    static const Kernels4 k = {mulAvx2, sqrAvx2, mulcAvx2,
                               "avx2-cios32x4"};
    return k;
}

} // namespace gzkp::ff::simd::detail

#endif // GZKP_FF_HAVE_AVX2
