/**
 * @file
 * Branch-free scalar kernels behind Fp<Tag>'s operators.
 *
 * Modular add, sub and negate are adc/sbb carry chains followed by a
 * flag or mask select. A flag select compiles to cmov in one inlined
 * op, but can become a data-dependent branch once inlined into a loop
 * over elements, so the batch rows (addModRow, subModRow) select with
 * and/xor masks instead. Multiplication
 * is the no-carry form of CIOS Montgomery multiplication (the one
 * gnark uses): one multiply-and-reduce pass per limb of b, without
 * CIOS's extra carry word, then one branch-free conditional
 * subtraction. N = 4 has a hand-unrolled kernel whose rounds add each
 * row of products as adc chains; wider fields (6 and 12 limbs) run
 * the same passes as a multiply-accumulate loop.
 *
 * Every kernel takes the modulus limbs and -p^-1 mod 2^64 as
 * arguments. Fp<Tag> passes its compile-time constants, so once the
 * kernel is inlined the modulus limbs are immediates. Inputs must be
 * fully reduced (< p); outputs are the canonical values < p, limb-
 * identical to the generic oracle (simd::montMulLimbs, modAdd and
 * modSub), since each result is a unique residue. Two preconditions
 * on p, which Fp static_asserts per field:
 *   - its top bit is free, so a + b < 2p never carries out of N limbs;
 *   - its top limb is below 2^63 - 1, the no-carry CIOS bound: the
 *     running value then stays below 2p without an extra carry word.
 *
 * On x86-64 the carry chains are _addcarry_u64 / _subborrow_u64,
 * which are baseline x86-64 (adc/sbb; no -madx). Other targets run
 * the same kernels with unsigned __int128 carries.
 *
 * `out` may alias any input: every kernel reads an input limb before
 * it writes the output limb at that index or computes into locals.
 */

#ifndef GZKP_FF_FP_KERNELS_HH
#define GZKP_FF_FP_KERNELS_HH

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
// The general-purpose-register intrinsics only: <immintrin.h> would
// add about 0.7 s of parsing to every file that includes fp.hh.
#if __has_include(<x86gprintrin.h>)
#include <x86gprintrin.h>
#else
#include <immintrin.h>
#endif
#define GZKP_FF_X86_CARRY 1
#endif

namespace gzkp::ff::kernels {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/** out = a + b + c (c is 0 or 1); returns the carry out. */
inline unsigned char
addc(unsigned char c, u64 a, u64 b, u64 &out)
{
#ifdef GZKP_FF_X86_CARRY
    unsigned long long r = 0;
    c = _addcarry_u64(c, a, b, &r);
    out = r;
    return c;
#else
    u128 t = u128(a) + b + c;
    out = u64(t);
    return static_cast<unsigned char>(t >> 64);
#endif
}

/** out = a - b - c (c is 0 or 1); returns the borrow out. */
inline unsigned char
subb(unsigned char c, u64 a, u64 b, u64 &out)
{
#ifdef GZKP_FF_X86_CARRY
    unsigned long long r = 0;
    c = _subborrow_u64(c, a, b, &r);
    out = r;
    return c;
#else
    u128 t = u128(a) - b - c;
    out = u64(t);
    return static_cast<unsigned char>((t >> 64) & 1);
#endif
}

/** Returns the high word of a * b + c + d and sets lo to the low
 *  word; the sum cannot overflow 128 bits. */
inline u64
mac(u64 a, u64 b, u64 c, u64 d, u64 &lo)
{
    u128 t = u128(a) * b + c + d;
    lo = u64(t);
    return u64(t >> 64);
}

/** out = t < p ? t : t - p, for t < 2p held in N limbs. */
template <std::size_t N>
inline void
reduceOnce(u64 *out, const u64 *t, const u64 *p)
{
    u64 d[N] = {};
    unsigned char borrow = 0;
#pragma GCC unroll 12
    for (std::size_t i = 0; i < N; ++i)
        borrow = subb(borrow, t[i], p[i], d[i]);
    // A select on the borrow flag. GCC emits cmov for one inlined op;
    // inlined into a loop over elements it may emit a data-dependent
    // branch instead, so the batch rows below use a mask select.
#pragma GCC unroll 12
    for (std::size_t i = 0; i < N; ++i)
        out[i] = borrow ? t[i] : d[i];
}

/** out = (a + b) mod p. */
template <std::size_t N>
inline void
addMod(u64 *out, const u64 *a, const u64 *b, const u64 *p)
{
    u64 s[N] = {};
    unsigned char carry = 0;
#pragma GCC unroll 12
    for (std::size_t i = 0; i < N; ++i)
        carry = addc(carry, a[i], b[i], s[i]);
    // No carry out: a + b < 2p < 2^(64N) because p's top bit is free.
    reduceOnce<N>(out, s, p);
}

/** out = (a - b) mod p. */
template <std::size_t N>
inline void
subMod(u64 *out, const u64 *a, const u64 *b, const u64 *p)
{
    u64 d[N] = {}, e[N] = {};
    unsigned char borrow = 0;
#pragma GCC unroll 12
    for (std::size_t i = 0; i < N; ++i)
        borrow = subb(borrow, a[i], b[i], d[i]);
    unsigned char carry = 0;
#pragma GCC unroll 12
    for (std::size_t i = 0; i < N; ++i)
        carry = addc(carry, d[i], p[i], e[i]);
    // a < b borrowed: take a - b + p.
#pragma GCC unroll 12
    for (std::size_t i = 0; i < N; ++i)
        out[i] = borrow ? e[i] : d[i];
}

/**
 * All-ones when `flag` is set, else zero. The empty asm hides the
 * mask's origin from the optimizer, which could otherwise turn the
 * and/xor select back into a branch on the flag.
 */
inline u64
maskOf(unsigned char flag)
{
    u64 mask = u64(0) - flag;
#if defined(__GNUC__)
    __asm__("" : "+r"(mask));
#endif
    return mask;
}

/**
 * out[k] = (a[k] + b[k]) mod p for n elements of N limbs each: the
 * batch row behind ff::addBatch. The same adc/sbb chains as addMod,
 * but the result is picked with an and/xor mask select, which stays
 * branch-free inside the element loop. `out` may alias a or b
 * wholesale.
 */
template <std::size_t N>
inline void
addModRow(u64 *out, const u64 *a, const u64 *b, const u64 *p,
          std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k, out += N, a += N, b += N) {
        u64 s[N] = {}, d[N] = {};
        unsigned char c = 0;
#pragma GCC unroll 12
        for (std::size_t i = 0; i < N; ++i)
            c = addc(c, a[i], b[i], s[i]);
        c = 0;
#pragma GCC unroll 12
        for (std::size_t i = 0; i < N; ++i)
            c = subb(c, s[i], p[i], d[i]);
        const u64 keep = maskOf(c); // s < p: keep the sum
#pragma GCC unroll 12
        for (std::size_t i = 0; i < N; ++i)
            out[i] = d[i] ^ ((s[i] ^ d[i]) & keep);
    }
}

/** out[k] = (a[k] - b[k]) mod p, the subMod chains with a mask select. */
template <std::size_t N>
inline void
subModRow(u64 *out, const u64 *a, const u64 *b, const u64 *p,
          std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k, out += N, a += N, b += N) {
        u64 d[N] = {}, e[N] = {};
        unsigned char c = 0;
#pragma GCC unroll 12
        for (std::size_t i = 0; i < N; ++i)
            c = subb(c, a[i], b[i], d[i]);
        const u64 wrap = maskOf(c); // a < b: take a - b + p
        c = 0;
#pragma GCC unroll 12
        for (std::size_t i = 0; i < N; ++i)
            c = addc(c, d[i], p[i], e[i]);
#pragma GCC unroll 12
        for (std::size_t i = 0; i < N; ++i)
            out[i] = d[i] ^ ((e[i] ^ d[i]) & wrap);
    }
}

/** out = -a mod p (zero stays zero). */
template <std::size_t N>
inline void
negMod(u64 *out, const u64 *a, const u64 *p)
{
    u64 d[N] = {};
    unsigned char borrow = 0;
#pragma GCC unroll 12
    for (std::size_t i = 0; i < N; ++i)
        borrow = subb(borrow, p[i], a[i], d[i]);
    u64 any = 0;
#pragma GCC unroll 12
    for (std::size_t i = 0; i < N; ++i)
        any |= a[i];
    const u64 mask = u64(0) - u64(any != 0);
#pragma GCC unroll 12
    for (std::size_t i = 0; i < N; ++i)
        out[i] = d[i] & mask;
}

/**
 * One no-carry CIOS round: t = (t + a * bi + m * p) / 2^64 with
 * m = (t[0] + a[0] * bi) * inv mod 2^64. A carries the product row
 * and C the reduction row; their sum is the new top limb. Always
 * inlined: a call would move t through memory.
 */
template <std::size_t N>
[[gnu::always_inline]] inline void
montRound(u64 *t, const u64 *a, u64 bi, const u64 *p, u64 inv)
{
    u64 lo = 0;
    u64 A = mac(a[0], bi, t[0], 0, lo);
    const u64 m = lo * inv;
    u64 C = mac(m, p[0], lo, 0, lo); // low word is zero by choice of m
#pragma GCC unroll 12
    for (std::size_t j = 1; j < N; ++j) {
        A = mac(a[j], bi, t[j], A, lo);
        C = mac(m, p[j], lo, C, t[j - 1]);
    }
    t[N - 1] = A + C;
}

/** out = a * b * 2^(-64N) mod p: the generic loop (N = 6, 12). */
template <std::size_t N>
inline void
montMul(u64 *out, const u64 *a, const u64 *b, const u64 *p, u64 inv)
{
    u64 t[N] = {};
    for (std::size_t i = 0; i < N; ++i)
        montRound<N>(t, a, b[i], p, inv);
    reduceOnce<N>(out, t, p);
}

/**
 * The N = 4 round on register limbs. Each row's four products are
 * formed first and then added in as two adc chains, the low words at
 * limb j and the high words at limb j + 1, so no multiply breaks a
 * carry chain. t stays below 2p, so the top limb t4 never overflows.
 */
[[gnu::always_inline]] inline void
montRound4(u64 &t0, u64 &t1, u64 &t2, u64 &t3, u64 a0, u64 a1, u64 a2,
           u64 a3, u64 bi, u64 p0, u64 p1, u64 p2, u64 p3, u64 inv)
{
    // t += a * bi, into five limbs t0..t4.
    const u128 x0 = u128(a0) * bi, x1 = u128(a1) * bi,
               x2 = u128(a2) * bi, x3 = u128(a3) * bi;
    u64 t4 = 0;
    unsigned char c = addc(0, t0, u64(x0), t0);
    c = addc(c, t1, u64(x1), t1);
    c = addc(c, t2, u64(x2), t2);
    c = addc(c, t3, u64(x3), t3);
    t4 = c;
    c = addc(0, t1, u64(x0 >> 64), t1);
    c = addc(c, t2, u64(x1 >> 64), t2);
    c = addc(c, t3, u64(x2 >> 64), t3);
    addc(c, t4, u64(x3 >> 64), t4);

    // t = (t + m * p) / 2^64; the low limb cancels by choice of m.
    const u64 m = t0 * inv;
    const u128 y0 = u128(m) * p0, y1 = u128(m) * p1, y2 = u128(m) * p2,
               y3 = u128(m) * p3;
    u64 zero = 0;
    c = addc(0, t0, u64(y0), zero);
    c = addc(c, t1, u64(y1), t1);
    c = addc(c, t2, u64(y2), t2);
    c = addc(c, t3, u64(y3), t3);
    addc(c, t4, 0, t4);
    c = addc(0, t1, u64(y0 >> 64), t0);
    c = addc(c, t2, u64(y1 >> 64), t1);
    c = addc(c, t3, u64(y2 >> 64), t2);
    addc(c, t4, u64(y3 >> 64), t3);
}

/** The N = 4 kernel: four rounds unrolled on register limbs. */
template <>
inline void
montMul<4>(u64 *out, const u64 *a, const u64 *b, const u64 *p, u64 inv)
{
    const u64 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
    const u64 p0 = p[0], p1 = p[1], p2 = p[2], p3 = p[3];
    u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0;
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i)
        montRound4(t0, t1, t2, t3, a0, a1, a2, a3, b[i], p0, p1, p2, p3,
                   inv);
    const u64 t[4] = {t0, t1, t2, t3};
    reduceOnce<4>(out, t, p);
}

} // namespace gzkp::ff::kernels

#endif // GZKP_FF_FP_KERNELS_HH
