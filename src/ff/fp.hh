/**
 * @file
 * Montgomery-form prime fields over BigInt limbs.
 *
 * This is the integer backend of the GZKP finite-field library
 * (paper Section 4.3): large integers are split into 64-bit limbs and
 * multiplied with the CIOS Montgomery algorithm. The alternative
 * floating-point (base-2^52 + Dekker) backend lives in
 * fpu_backend.hh; both produce identical field values and are
 * cross-checked in tests.
 *
 * Fp<Tag> is parameterised by a tag type supplying the limb count and
 * the modulus as a constexpr hex string. The modulus, -p^-1 mod 2^64,
 * R mod p and R^2 mod p are compile-time constants (kModulus, kInv,
 * kR1, kR2), parsed and derived by constexpr code, so the hot
 * operators read no runtime state. The cold derived values (the
 * exponents behind inverse, legendre and sqrt, the 2-adicity, the
 * generator and the root of unity) are built once at first use by
 * params().
 *
 * Single-element arithmetic runs the branch-free kernels of
 * ff/fp_kernels.hh (adc/sbb add/sub/neg, no-carry CIOS multiply)
 * regardless of the host ISA; the generic CIOS loop
 * simd::montMulLimbs, modAdd and modSub below are their oracle. The
 * *batch* entry points below (mulBatch, sqrBatch, mulcBatch,
 * batchInverse, ...) route 4-limb fields, and quadratic extensions
 * over them as base-field rows, through the runtime-dispatched vector
 * kernels in ff/simd/dispatch.hh; every path returns canonical
 * fully-reduced values, so batch results are bit-identical to the
 * scalar ones.
 */

#ifndef GZKP_FF_FP_HH
#define GZKP_FF_FP_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ff/bigint.hh"
#include "ff/fp_kernels.hh"
#include "ff/simd/dispatch.hh"
#include "ff/simd/mont_scalar.hh"

namespace gzkp::ff {

/**
 * Derived Montgomery parameters for a prime modulus with N limbs.
 * Built once per field by makeMontParams().
 */
template <std::size_t N>
struct MontParams {
    BigInt<N> modulus;
    std::size_t bits = 0;          //!< bit length of the modulus
    std::uint64_t inv = 0;         //!< -p^-1 mod 2^64
    BigInt<N> r1;                  //!< R mod p (Montgomery form of 1)
    BigInt<N> r2;                  //!< R^2 mod p (conversion constant)
    BigInt<N> pMinus2;             //!< exponent for Fermat inversion
    BigInt<N> pMinus1Half;         //!< (p-1)/2, Euler criterion
    BigInt<N> pPlus1Quarter;       //!< (p+1)/4 (valid when p = 3 mod 4)
    std::size_t twoAdicity = 0;    //!< s with p - 1 = odd * 2^s
    std::uint64_t generator = 0;   //!< small quadratic non-residue g
    BigInt<N> rootOfUnity;         //!< g^((p-1)/2^s), Montgomery form
};

/** Modular addition helper on raw BigInts: (a + b) mod p. */
template <std::size_t N>
constexpr BigInt<N>
modAdd(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &p)
{
    BigInt<N> s;
    std::uint64_t carry = BigInt<N>::add(a, b, s);
    if (carry || s >= p) {
        BigInt<N> t;
        BigInt<N>::sub(s, p, t);
        return t;
    }
    return s;
}

/** Modular subtraction helper on raw BigInts: (a - b) mod p. */
template <std::size_t N>
constexpr BigInt<N>
modSub(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &p)
{
    BigInt<N> s;
    std::uint64_t borrow = BigInt<N>::sub(a, b, s);
    if (borrow) {
        BigInt<N> t;
        BigInt<N>::add(s, p, t);
        return t;
    }
    return s;
}

/**
 * CIOS Montgomery multiplication: returns a * b * R^-1 mod p.
 * Inputs must be fully reduced (< p); the output is fully reduced.
 * Thin wrapper over the generic scalar loop in ff/simd, which Fp's
 * kernels are tested against.
 */
template <std::size_t N>
inline BigInt<N>
montMul(const BigInt<N> &a, const BigInt<N> &b, const MontParams<N> &pp)
{
    BigInt<N> r;
    simd::montMulLimbs<N>(r.limbs.data(), a.limbs.data(),
                          b.limbs.data(), pp.modulus.limbs.data(),
                          pp.inv);
    return r;
}

namespace detail {

/** -p^-1 mod 2^64 for odd p0, by Newton iteration (5 steps). */
constexpr std::uint64_t
negInverse64(std::uint64_t p0)
{
    std::uint64_t x = p0;
    for (int i = 0; i < 5; ++i)
        x *= 2 - p0 * x;
    return ~x + 1; // negate mod 2^64
}

/** x * 2^(64N) mod p, by 64N modular doublings (x < p). */
template <std::size_t N>
constexpr BigInt<N>
timesR(BigInt<N> x, const BigInt<N> &p)
{
    for (std::size_t i = 0; i < 64 * N; ++i)
        x = modAdd(x, x, p);
    return x;
}

} // namespace detail

/**
 * Build all derived Montgomery parameters from a modulus hex string.
 * The modulus must be an odd prime; primality itself is assumed (the
 * supplied constants are either standard curve parameters or were
 * generated offline with Miller-Rabin, see DESIGN.md).
 */
template <std::size_t N>
MontParams<N>
makeMontParams(const char *modulus_hex)
{
    MontParams<N> pp;
    pp.modulus = BigInt<N>::fromHex(modulus_hex);
    if (!pp.modulus.isOdd())
        throw std::invalid_argument("makeMontParams: modulus must be odd");
    pp.bits = pp.modulus.numBits();
    pp.inv = detail::negInverse64(pp.modulus.limbs[0]);
    pp.r1 = detail::timesR(BigInt<N>::one(), pp.modulus);
    pp.r2 = detail::timesR(pp.r1, pp.modulus);

    BigInt<N>::sub(pp.modulus, BigInt<N>::fromUint64(2), pp.pMinus2);
    BigInt<N> pm1;
    BigInt<N>::sub(pp.modulus, BigInt<N>::one(), pm1);
    pp.pMinus1Half = pm1.shr(1);
    BigInt<N> pp1;
    std::uint64_t carry = BigInt<N>::add(pp.modulus, BigInt<N>::one(), pp1);
    (void)carry; // moduli never fill all N*64 bits in our curves
    pp.pPlus1Quarter = pp1.shr(2);
    pp.twoAdicity = pm1.countTrailingZeros();

    // Montgomery-form exponentiation helper for the remaining params.
    auto mont_pow = [&pp](BigInt<N> base_m, const BigInt<N> &e) {
        BigInt<N> result = pp.r1;
        for (std::size_t i = e.numBits(); i-- > 0;) {
            result = montMul(result, result, pp);
            if (e.bit(i))
                result = montMul(result, base_m, pp);
        }
        return result;
    };

    // Smallest quadratic non-residue g (Euler criterion), then the
    // 2-adic root of unity omega = g^((p-1)/2^s).
    BigInt<N> minus_one_m = modSub(BigInt<N>::zero(), pp.r1, pp.modulus);
    for (std::uint64_t g = 2;; ++g) {
        BigInt<N> gm = montMul(BigInt<N>::fromUint64(g), pp.r2, pp);
        if (mont_pow(gm, pp.pMinus1Half) == minus_one_m) {
            pp.generator = g;
            BigInt<N> odd_part = pm1.shr(pp.twoAdicity);
            pp.rootOfUnity = mont_pow(gm, odd_part);
            break;
        }
        if (g > 1000)
            throw std::runtime_error("makeMontParams: no QNR found");
    }
    return pp;
}

/**
 * A prime-field element in Montgomery form.
 *
 * @tparam Tag a config type providing
 *   - static constexpr std::size_t kLimbs
 *   - static constexpr const char *modulusHex()
 *   - static const char *name()
 */
template <typename Tag>
class Fp
{
  public:
    static constexpr std::size_t kLimbs = Tag::kLimbs;
    using Repr = BigInt<kLimbs>;

    /** The modulus p and its Montgomery constants, fixed at compile
     *  time. makeMontParams derives the same values at run time. */
    static constexpr Repr kModulus = Repr::fromHex(Tag::modulusHex());
    static constexpr std::uint64_t kInv =
        detail::negInverse64(kModulus.limbs[0]); //!< -p^-1 mod 2^64
    static constexpr Repr kR1 =
        detail::timesR(Repr::one(), kModulus); //!< R mod p
    static constexpr Repr kR2 = detail::timesR(kR1, kModulus); //!< R^2

    static_assert(kModulus.isOdd(), "Fp: the modulus must be odd");
    static_assert(kModulus.limbs[kLimbs - 1] >> 63 == 0,
                  "Fp: the modulus must leave its top bit free, so "
                  "a + b never carries out of kLimbs limbs");
    static_assert(kModulus.limbs[kLimbs - 1] <
                      (std::uint64_t(1) << 63) - 1,
                  "Fp: no-carry CIOS needs a top limb below 2^63 - 1");

    /** Cold derived parameters, built at first use (thread-safe
     *  magic static). The hot operators never read them. */
    static const MontParams<kLimbs> &
    params()
    {
        static const MontParams<kLimbs> pp =
            makeMontParams<kLimbs>(Tag::modulusHex());
        return pp;
    }

    static constexpr const Repr &modulus() { return kModulus; }
    static constexpr std::size_t bits() { return kModulus.numBits(); }
    static std::size_t twoAdicity() { return params().twoAdicity; }

    constexpr Fp() = default;

    static constexpr Fp zero() { return Fp(); }
    static constexpr Fp one() { return fromRaw(kR1); }

    /**
     * Convert a standard-form integer into the field. Rejects
     * non-canonical input (>= p) with a typed exception rather than
     * an assert: callers feed this from deserialized bytes, and a
     * release-build silent acceptance would alias two encodings of
     * the same element.
     */
    static Fp
    fromBigInt(const Repr &standard)
    {
        if (!(standard < kModulus))
            throw std::invalid_argument(
                "Fp::fromBigInt: value >= modulus");
        return fromRaw(standard) * fromRaw(kR2);
    }

    static Fp
    fromUint64(std::uint64_t x)
    {
        return fromBigInt(Repr::fromUint64(x));
    }

    static Fp
    fromHex(const char *hex)
    {
        return fromBigInt(Repr::fromHex(hex));
    }

    /** Back to standard (non-Montgomery) form. */
    Repr
    toBigInt() const
    {
        return (*this * fromRaw(Repr::one())).v_;
    }

    /** Raw Montgomery representation (for serialization / hashing). */
    const Repr &raw() const { return v_; }

    static constexpr Fp
    fromRaw(const Repr &mont)
    {
        Fp r;
        r.v_ = mont;
        return r;
    }

    bool isZero() const { return v_.isZero(); }
    bool operator==(const Fp &o) const { return v_ == o.v_; }
    bool operator!=(const Fp &o) const { return v_ != o.v_; }

    Fp
    operator+(const Fp &o) const
    {
        Fp r;
        kernels::addMod<kLimbs>(r.limbs(), limbs(), o.limbs(), kP);
        return r;
    }

    Fp
    operator-(const Fp &o) const
    {
        Fp r;
        kernels::subMod<kLimbs>(r.limbs(), limbs(), o.limbs(), kP);
        return r;
    }

    Fp
    operator-() const
    {
        Fp r;
        kernels::negMod<kLimbs>(r.limbs(), limbs(), kP);
        return r;
    }

    Fp
    operator*(const Fp &o) const
    {
        Fp r;
        kernels::montMul<kLimbs>(r.limbs(), limbs(), o.limbs(), kP, kInv);
        return r;
    }

    Fp &operator+=(const Fp &o) { return *this = *this + o; }
    Fp &operator-=(const Fp &o) { return *this = *this - o; }
    Fp &operator*=(const Fp &o) { return *this = *this * o; }

    Fp squared() const { return *this * *this; }
    Fp dbl() const { return *this + *this; }

    /** Fixed-width exponentiation (exponent in standard form). */
    template <std::size_t M>
    Fp
    pow(const BigInt<M> &e) const
    {
        Fp result = one();
        for (std::size_t i = e.numBits(); i-- > 0;) {
            result = result.squared();
            if (e.bit(i))
                result *= *this;
        }
        return result;
    }

    Fp pow(std::uint64_t e) const { return pow(BigInt<1>::fromUint64(e)); }

    /** Multiplicative inverse by Fermat; zero maps to zero. */
    Fp
    inverse() const
    {
        return pow(params().pMinus2);
    }

    /**
     * Legendre symbol: +1 residue, -1 non-residue, 0 for zero.
     */
    int
    legendre() const
    {
        if (isZero())
            return 0;
        Fp e = pow(params().pMinus1Half);
        return e == one() ? 1 : -1;
    }

    /**
     * Square root for p = 3 mod 4 (all our Fq). Throws if no root
     * exists or the modulus shape is unsupported.
     */
    Fp
    sqrt() const
    {
        if (isZero())
            return zero();
        if (kModulus.limbs[0] % 4 != 3)
            throw std::logic_error("Fp::sqrt: need p = 3 mod 4");
        Fp r = pow(params().pPlus1Quarter);
        if (r.squared() != *this)
            throw std::domain_error("Fp::sqrt: not a quadratic residue");
        return r;
    }

    /** 2^k-th primitive root of unity (k <= twoAdicity). */
    static Fp
    rootOfUnity(std::size_t k)
    {
        const auto &pp = params();
        if (k > pp.twoAdicity)
            throw std::invalid_argument("Fp::rootOfUnity: k too large");
        Fp w = fromRaw(pp.rootOfUnity);
        for (std::size_t i = pp.twoAdicity; i > k; --i)
            w = w.squared();
        return w;
    }

    /** Uniform random field element. */
    template <typename Rng>
    static Fp
    random(Rng &rng)
    {
        // Rejection sampling on the top limbs keeps this uniform.
        for (;;) {
            Repr r = Repr::random(rng);
            // Mask down to the modulus bit length to speed acceptance.
            constexpr std::size_t top_bits = bits() % 64;
            if constexpr (top_bits != 0) {
                r.limbs[kLimbs - 1] &=
                    (std::uint64_t(-1) >> (64 - top_bits));
            }
            if (r < kModulus)
                return fromRaw(r); // uniform over [0,p) in Mont. domain
        }
    }

    std::string toHex() const { return toBigInt().toHex(); }

  private:
    static constexpr const std::uint64_t *kP = kModulus.limbs.data();

    std::uint64_t *limbs() { return v_.limbs.data(); }
    const std::uint64_t *limbs() const { return v_.limbs.data(); }

    Repr v_; // Montgomery form, always < p
};

//===--------------- dispatched batch entry points ---------------===//

namespace detail {

/**
 * True for prime fields stored as raw limbs (Fp<Tag>: a compile-time
 * kModulus and nothing but kLimbs 64-bit limbs), whose add/sub rows
 * run the branch-free kernels on the limbs directly. SFINAE-friendly
 * so tower types fall through without a compile error.
 */
template <typename T, typename = void>
struct IsPrimeField : std::false_type {
};

template <typename T>
struct IsPrimeField<T, std::void_t<decltype(T::kModulus)>>
    : std::bool_constant<sizeof(T) == T::kLimbs * sizeof(std::uint64_t)> {
};

/**
 * True for field types the vector kernel layer can process: prime
 * fields of exactly 4 x 64-bit limbs. Wide fields (6 and 12 limbs)
 * take the scalar multiply loops.
 */
template <typename T, typename = void>
struct IsSimd4 : std::false_type {
};

template <typename T>
struct IsSimd4<T, std::enable_if_t<IsPrimeField<T>::value &&
                                   T::kLimbs == 4>> : std::true_type {
};

/** A quadratic extension c0 + c1 u over `Fq` with its norm in Fq
 *  (tower.hh's Fp2T). */
template <typename T, typename = void>
struct IsQuadraticExt : std::false_type {
};

template <typename T>
struct IsQuadraticExt<
    T, std::void_t<typename T::Fq, decltype(std::declval<T &>().c1)>>
    : std::is_same<decltype(std::declval<const T &>().norm()),
                   typename T::Fq> {
};

template <typename FpT>
inline std::uint64_t *
limbPtr(FpT *p)
{
    static_assert(IsPrimeField<FpT>::value);
    return reinterpret_cast<std::uint64_t *>(p);
}

template <typename FpT>
inline const std::uint64_t *
limbPtr(const FpT *p)
{
    static_assert(IsPrimeField<FpT>::value);
    return reinterpret_cast<const std::uint64_t *>(p);
}

/** n extension elements viewed as one base-field row of 2n, c0 and c1
 *  interleaved (element-wise add and sub run on it directly). */
template <typename FpT>
inline typename FpT::Fq *
baseRow(FpT *p)
{
    static_assert(sizeof(FpT) == 2 * sizeof(typename FpT::Fq));
    return reinterpret_cast<typename FpT::Fq *>(p);
}

template <typename FpT>
inline const typename FpT::Fq *
baseRow(const FpT *p)
{
    static_assert(sizeof(FpT) == 2 * sizeof(typename FpT::Fq));
    return reinterpret_cast<const typename FpT::Fq *>(p);
}

template <typename FpT>
void mulBatchExt(FpT *out, const FpT *a, const FpT *b, std::size_t n);

template <typename FpT>
void sqrBatchExt(FpT *out, const FpT *a, std::size_t n);

} // namespace detail

/** Kernel-facing view of a 4-limb field's Montgomery parameters. */
template <typename FpT>
inline const simd::Mont4 &
mont4Params()
{
    static_assert(detail::IsSimd4<FpT>::value,
                  "mont4Params needs a 4-limb field");
    static constexpr simd::Mont4 m{
        {FpT::kModulus.limbs[0], FpT::kModulus.limbs[1],
         FpT::kModulus.limbs[2], FpT::kModulus.limbs[3]},
        FpT::kInv};
    return m;
}

/**
 * out[i] = a[i] * b[i] for i < n. For 4-limb fields this routes
 * through the active ISA arm (simd::activeIsa()); a quadratic
 * extension over one runs as base-field rows through the same arm;
 * other widths use the scalar path. out may alias a or b wholesale.
 * Bit-identical to the element-wise scalar product on every arm.
 */
template <typename FpT>
inline void
mulBatch(FpT *out, const FpT *a, const FpT *b, std::size_t n)
{
    if constexpr (detail::IsQuadraticExt<FpT>::value) {
        detail::mulBatchExt(out, a, b, n);
    } else if constexpr (detail::IsSimd4<FpT>::value) {
        simd::kernels4().mul(detail::limbPtr(out), detail::limbPtr(a),
                             detail::limbPtr(b), n,
                             mont4Params<FpT>());
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * b[i];
    }
}

/** out[i] = a[i]^2. */
template <typename FpT>
inline void
sqrBatch(FpT *out, const FpT *a, std::size_t n)
{
    if constexpr (detail::IsQuadraticExt<FpT>::value) {
        detail::sqrBatchExt(out, a, n);
    } else if constexpr (detail::IsSimd4<FpT>::value) {
        simd::kernels4().sqr(detail::limbPtr(out), detail::limbPtr(a),
                             n, mont4Params<FpT>());
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i].squared();
    }
}

/** out[i] = a[i] * c for one shared c (NTT nInv scaling, twiddles). */
template <typename FpT>
inline void
mulcBatch(FpT *out, const FpT *a, const FpT &c, std::size_t n)
{
    if constexpr (detail::IsSimd4<FpT>::value) {
        simd::kernels4().mulc(detail::limbPtr(out), detail::limbPtr(a),
                              detail::limbPtr(&c), n,
                              mont4Params<FpT>());
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * c;
    }
}

/**
 * out[i] = a[i] + b[i]; aliasing as in mulBatch. Prime fields run
 * kernels::addModRow, whose mask select stays branch-free in the
 * element loop (the operators' flag select may not); a quadratic
 * extension is one base-field row of 2n.
 */
template <typename FpT>
inline void
addBatch(FpT *out, const FpT *a, const FpT *b, std::size_t n)
{
    if constexpr (detail::IsQuadraticExt<FpT>::value) {
        addBatch(detail::baseRow(out), detail::baseRow(a),
                 detail::baseRow(b), 2 * n);
    } else if constexpr (detail::IsPrimeField<FpT>::value) {
        kernels::addModRow<FpT::kLimbs>(
            detail::limbPtr(out), detail::limbPtr(a), detail::limbPtr(b),
            FpT::kModulus.limbs.data(), n);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] + b[i];
    }
}

/** out[i] = a[i] - b[i]; as addBatch, on kernels::subModRow. */
template <typename FpT>
inline void
subBatch(FpT *out, const FpT *a, const FpT *b, std::size_t n)
{
    if constexpr (detail::IsQuadraticExt<FpT>::value) {
        subBatch(detail::baseRow(out), detail::baseRow(a),
                 detail::baseRow(b), 2 * n);
    } else if constexpr (detail::IsPrimeField<FpT>::value) {
        kernels::subModRow<FpT::kLimbs>(
            detail::limbPtr(out), detail::limbPtr(a), detail::limbPtr(b),
            FpT::kModulus.limbs.data(), n);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] - b[i];
    }
}

namespace detail {

/**
 * Karatsuba over base-field rows: for a = a0 + a1 u and b likewise,
 * c0 = a0 b0 + beta a1 b1 and c1 = (a0 + a1)(b0 + b1) - a0 b0 - a1 b1,
 * the scalar operator's formula as three row multiplies. The rows are
 * per-thread scratch that only grows, so repeated drain rounds reuse
 * it; inputs are copied in before out is written, so out may alias a
 * or b.
 */
template <typename FpT>
void
mulBatchExt(FpT *out, const FpT *a, const FpT *b, std::size_t n)
{
    using Fq = typename FpT::Fq;
    thread_local std::vector<Fq> rows;
    if (rows.size() < 5 * n)
        rows.resize(5 * n);
    Fq *a0 = rows.data(), *a1 = a0 + n, *b0 = a1 + n, *b1 = b0 + n,
       *t = b1 + n;
    for (std::size_t i = 0; i < n; ++i) {
        a0[i] = a[i].c0;
        a1[i] = a[i].c1;
        b0[i] = b[i].c0;
        b1[i] = b[i].c1;
    }
    mulBatch(t, a1, b1, n);  // a1 b1
    addBatch(a1, a0, a1, n); // a0 + a1
    addBatch(b1, b0, b1, n); // b0 + b1
    mulBatch(a0, a0, b0, n); // a0 b0
    mulBatch(b1, a1, b1, n);
    subBatch(b1, b1, a0, n);
    subBatch(b1, b1, t, n); // c1
    for (std::size_t i = 0; i < n; ++i)
        t[i] = FpT::mulByBeta(t[i]);
    addBatch(a0, a0, t, n); // c0
    for (std::size_t i = 0; i < n; ++i)
        out[i] = FpT(a0[i], b1[i]);
}

/**
 * Complex squaring over base-field rows: with ab = a0 a1,
 * c0 = (a0 + a1)(a0 + beta a1) - ab - beta ab and c1 = 2 ab, two row
 * multiplies, on per-thread rows as in mulBatchExt.
 */
template <typename FpT>
void
sqrBatchExt(FpT *out, const FpT *a, std::size_t n)
{
    using Fq = typename FpT::Fq;
    thread_local std::vector<Fq> rows;
    if (rows.size() < 4 * n)
        rows.resize(4 * n);
    Fq *a0 = rows.data(), *a1 = a0 + n, *s = a1 + n, *t = s + n;
    for (std::size_t i = 0; i < n; ++i) {
        a0[i] = a[i].c0;
        a1[i] = a[i].c1;
        t[i] = FpT::mulByBeta(a[i].c1);
    }
    addBatch(t, a0, t, n);  // a0 + beta a1
    addBatch(s, a0, a1, n); // a0 + a1
    mulBatch(s, s, t, n);
    mulBatch(a1, a0, a1, n); // ab
    subBatch(s, s, a1, n);
    for (std::size_t i = 0; i < n; ++i)
        t[i] = FpT::mulByBeta(a1[i]);
    subBatch(s, s, t, n);    // c0
    addBatch(a1, a1, a1, n); // c1
    for (std::size_t i = 0; i < n; ++i)
        out[i] = FpT(s[i], a1[i]);
}

} // namespace detail

/**
 * neg ? -x : x, picked by an and/xor mask over x's raw words rather
 * than a branch: for signs that are random data, such as the MSM
 * drain's signed digits, where a branch mispredicts half the time.
 * Any field stored as raw 64-bit words qualifies (Fp, and Fp2T over
 * it).
 */
template <typename F>
inline F
negateIf(const F &x, bool neg)
{
    static_assert(std::is_trivially_copyable_v<F> &&
                  sizeof(F) % sizeof(std::uint64_t) == 0);
    constexpr std::size_t W = sizeof(F) / sizeof(std::uint64_t);
    const F nx = -x;
    std::uint64_t a[W], b[W];
    std::memcpy(a, &x, sizeof(F));
    std::memcpy(b, &nx, sizeof(F));
    const std::uint64_t mask = kernels::maskOf(neg);
    for (std::size_t i = 0; i < W; ++i)
        a[i] ^= (a[i] ^ b[i]) & mask;
    F r;
    std::memcpy(&r, a, sizeof(F));
    return r;
}

/**
 * out[i] = a[i]^e for one shared standard-form exponent, by batched
 * square-and-multiply (the whole batch shares the exponent's bit
 * pattern, so every step is one sqrBatch and at most one mulBatch).
 * out must not partially overlap a; out == a is allowed.
 */
template <typename FpT, std::size_t M>
inline void
powBatch(FpT *out, const FpT *a, const BigInt<M> &e, std::size_t n)
{
    std::vector<FpT> base(a, a + n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = FpT::one();
    for (std::size_t i = e.numBits(); i-- > 0;) {
        sqrBatch(out, out, n);
        if (e.bit(i))
            mulBatch(out, out, base.data(), n);
    }
}

namespace detail {

/** The classic serial Montgomery chain; see batchInverse for the
 *  zero-handling contract. */
template <typename FpT>
void
batchInverseSerial(std::vector<FpT> &xs)
{
    std::vector<FpT> prefix(xs.size());
    FpT acc = FpT::one();
    for (std::size_t i = 0; i < xs.size(); ++i) {
        prefix[i] = acc;
        if (!xs[i].isZero())
            acc *= xs[i];
    }
    FpT inv = acc.inverse();
    for (std::size_t i = xs.size(); i-- > 0;) {
        if (xs[i].isZero())
            continue;
        FpT x_inv = inv * prefix[i];
        inv *= xs[i];
        xs[i] = x_inv;
    }
}

/**
 * Lane-blocked batch inversion: L independent Montgomery chains, one
 * per lane, advanced a row (L contiguous elements) at a time so every
 * multiplication is a dispatched mulBatch. The L lane products plus
 * the tail elements are then inverted together with one serial chain
 * (one actual field inversion for the whole call), and the backward
 * unwind replays the rows with two mulBatch per row.
 *
 * Zeros are substituted with one() in a cleaned copy (so chains stay
 * invertible) and skipped on write-back, preserving the
 * skip-and-preserve contract. Outputs are bit-identical to the serial
 * path: each nonzero x gets its unique canonical inverse, whatever
 * the grouping.
 */
template <typename FpT>
void
batchInverseBlocked(std::vector<FpT> &xs)
{
    constexpr std::size_t L = 16;
    const std::size_t n = xs.size();
    const std::size_t rows = n / L;
    const std::size_t head = rows * L;

    std::vector<FpT> xc(n);
    for (std::size_t i = 0; i < n; ++i)
        xc[i] = xs[i].isZero() ? FpT::one() : xs[i];

    std::vector<FpT> prefix(head);
    std::array<FpT, L> acc;
    acc.fill(FpT::one());
    for (std::size_t r = 0; r < rows; ++r) {
        std::copy(acc.begin(), acc.end(), prefix.begin() + r * L);
        mulBatch(acc.data(), acc.data(), xc.data() + r * L, L);
    }

    // One inversion covers the L lane products and the tail.
    std::vector<FpT> combo(acc.begin(), acc.end());
    combo.insert(combo.end(), xc.begin() + head, xc.end());
    batchInverseSerial(combo);

    for (std::size_t i = head; i < n; ++i)
        if (!xs[i].isZero())
            xs[i] = combo[L + (i - head)];

    std::array<FpT, L> inv;
    std::copy(combo.begin(), combo.begin() + L, inv.begin());
    std::array<FpT, L> row_inv;
    for (std::size_t r = rows; r-- > 0;) {
        mulBatch(row_inv.data(), inv.data(), prefix.data() + r * L, L);
        mulBatch(inv.data(), inv.data(), xc.data() + r * L, L);
        for (std::size_t l = 0; l < L; ++l)
            if (!xs[r * L + l].isZero())
                xs[r * L + l] = row_inv[l];
    }
}

} // namespace detail

template <typename FpT>
void batchInverse(std::vector<FpT> &xs);

namespace detail {

/**
 * Quadratic-extension batch inversion through the norm:
 * 1/(c0 + c1 u) = (c0 - c1 u) / N with N = c0^2 - beta c1^2 in Fq, so
 * the chain runs over the base field (the blocked 4-limb path for
 * BN254 Fq2) instead of over serial extension multiplies. The norms
 * are one sqrBatch over the c0 and c1 rows and one subBatch. N is
 * zero only for zero (beta is a non-residue), so a zero keeps its
 * zero norm through the base-field call and maps back to zero.
 */
template <typename FpT>
void
batchInverseByNorm(std::vector<FpT> &xs)
{
    using Fq = typename FpT::Fq;
    const std::size_t n = xs.size();
    // parts = [c0 row | c1 row]; norms starts as their squares.
    std::vector<Fq> parts(2 * n), norms(2 * n);
    Fq *re = parts.data(), *im = re + n;
    for (std::size_t i = 0; i < n; ++i) {
        re[i] = xs[i].c0;
        im[i] = xs[i].c1;
    }
    sqrBatch(norms.data(), parts.data(), 2 * n);
    Fq *imSq = norms.data() + n;
    for (std::size_t i = 0; i < n; ++i)
        imSq[i] = FpT::mulByBeta(imSq[i]);
    subBatch(norms.data(), norms.data(), imSq, n); // c0^2 - beta c1^2
    norms.resize(n);
    batchInverse(norms);
    mulBatch(re, re, norms.data(), n);
    mulBatch(im, im, norms.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = FpT(re[i], -im[i]);
}

} // namespace detail

/**
 * Batch inversion with Montgomery's trick: replaces n inversions by
 * one inversion plus ~3n multiplications.
 *
 * Zero handling is *skip-and-preserve*, and callers rely on it as a
 * contract (regression-tested in test_fp.cc): a zero entry stays
 * exactly zero and contributes nothing to the prefix products, so
 * every nonzero entry is still replaced by its true inverse. A naive
 * Montgomery chain would fold the zero into the running product and
 * return garbage for *every* element; here the forward pass records
 * the prefix before conditionally multiplying, and the backward pass
 * skips zeros when unwinding. The empty and all-zero vectors are
 * no-ops (inverse() maps the zero running product to zero).
 *
 * Large 4-limb batches take the lane-blocked path so the ~3n
 * multiplications run through the dispatched vector kernels; results
 * are bit-identical either way. The threshold stays well above the
 * crossover so small batches (batch-affine flush tails, tiny
 * denominator sets) never pay the blocking overhead. A quadratic
 * extension (G2's Fq2) inverts its norms in the base field instead.
 *
 * This is the shared inversion primitive of the batch-affine MSM
 * scheduler (msm/batch_affine.hh) and of ec::batchToAffine.
 */
template <typename FpT>
void
batchInverse(std::vector<FpT> &xs)
{
    if constexpr (detail::IsQuadraticExt<FpT>::value) {
        detail::batchInverseByNorm(xs);
        return;
    } else if constexpr (detail::IsSimd4<FpT>::value) {
        if (xs.size() >= 64) {
            detail::batchInverseBlocked(xs);
            return;
        }
    }
    detail::batchInverseSerial(xs);
}

} // namespace gzkp::ff

#endif // GZKP_FF_FP_HH
