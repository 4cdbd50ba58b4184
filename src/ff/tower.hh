/**
 * @file
 * Extension-field tower Fp2 / Fp6 / Fp12.
 *
 * Used for the BN254 G2 group (coordinates in Fp2) and the optimal
 * ate pairing (Miller loop values in Fp12) that realises the Groth16
 * verifier. Tower shape is the standard 2-3-2:
 *
 *   Fp2  = Fp [u] / (u^2 - beta)      (beta = -1 for BN254)
 *   Fp6  = Fp2[v] / (v^3 - xi)        (xi = 9 + u for BN254)
 *   Fp12 = Fp6[w] / (w^2 - v)
 *
 * The tower is parameterised by a config type. Each config supplies
 * its non-residue both as a value and as a multiply-by routine, so a
 * non-residue with a cheap shape (beta = -1, xi = 9 + u) costs
 * additions instead of a full multiply.
 */

#ifndef GZKP_FF_TOWER_HH
#define GZKP_FF_TOWER_HH

#include <cstdint>
#include <stdexcept>

#include "ff/bigint.hh"

namespace gzkp::ff {

/**
 * Quadratic extension Fp2 = Fp[u]/(u^2 - beta).
 *
 * @tparam Cfg provides `using Fq = ...;`, `static Fq beta()` (the
 *         quadratic non-residue) and `static Fq mulByBeta(const Fq &)`.
 */
template <typename Cfg>
class Fp2T
{
  public:
    using Fq = typename Cfg::Fq;

    /** Total 64-bit words per element (size/cost modeling). */
    static constexpr std::size_t kLimbs = 2 * Fq::kLimbs;

    Fq c0, c1;

    Fp2T() : c0(Fq::zero()), c1(Fq::zero()) {}
    Fp2T(const Fq &a, const Fq &b) : c0(a), c1(b) {}

    static Fp2T zero() { return Fp2T(); }
    static Fp2T one() { return Fp2T(Fq::one(), Fq::zero()); }

    bool isZero() const { return c0.isZero() && c1.isZero(); }
    bool operator==(const Fp2T &o) const
    {
        return c0 == o.c0 && c1 == o.c1;
    }
    bool operator!=(const Fp2T &o) const { return !(*this == o); }

    Fp2T operator+(const Fp2T &o) const
    {
        return Fp2T(c0 + o.c0, c1 + o.c1);
    }
    Fp2T operator-(const Fp2T &o) const
    {
        return Fp2T(c0 - o.c0, c1 - o.c1);
    }
    Fp2T operator-() const { return Fp2T(-c0, -c1); }

    /** Karatsuba multiplication: 3 base-field multiplies. */
    Fp2T
    operator*(const Fp2T &o) const
    {
        Fq a = c0 * o.c0;
        Fq b = c1 * o.c1;
        Fq sum = (c0 + c1) * (o.c0 + o.c1);
        return Fp2T(a + Cfg::mulByBeta(b), sum - a - b);
    }

    Fp2T &operator+=(const Fp2T &o) { return *this = *this + o; }
    Fp2T &operator-=(const Fp2T &o) { return *this = *this - o; }
    Fp2T &operator*=(const Fp2T &o) { return *this = *this * o; }

    Fp2T
    squared() const
    {
        // Complex squaring: 2 base multiplies.
        Fq ab = c0 * c1;
        Fq t = (c0 + c1) * (c0 + Cfg::mulByBeta(c1));
        return Fp2T(t - ab - Cfg::mulByBeta(ab), ab.dbl());
    }

    Fp2T dbl() const { return *this + *this; }

    /** Multiply by a base-field scalar. */
    Fp2T
    scale(const Fq &s) const
    {
        return Fp2T(c0 * s, c1 * s);
    }

    /** beta * a, by the config's routine (the batch rows use it). */
    static Fq mulByBeta(const Fq &a) { return Cfg::mulByBeta(a); }

    /** Conjugate: the Frobenius map of a quadratic extension. */
    Fp2T conjugate() const { return Fp2T(c0, -c1); }

    Fp2T
    inverse() const
    {
        // 1/(c0 + c1 u) = (c0 - c1 u) / (c0^2 - beta c1^2)
        Fq ninv = norm().inverse();
        return Fp2T(c0 * ninv, -(c1 * ninv));
    }

    template <std::size_t M>
    Fp2T
    pow(const BigInt<M> &e) const
    {
        Fp2T result = one();
        for (std::size_t i = e.numBits(); i-- > 0;) {
            result = result.squared();
            if (e.bit(i))
                result *= *this;
        }
        return result;
    }

    /** Field norm N(a) = a * a^p = c0^2 - beta * c1^2, in Fq. */
    Fq
    norm() const
    {
        return c0.squared() - Cfg::mulByBeta(c1.squared());
    }

    /**
     * Quadratic character: +1 residue, -1 non-residue, 0 for zero.
     * a is a square in Fp2 iff its norm is a square in Fp (the norm
     * map is surjective onto Fq* with kernel of even order).
     */
    int
    legendre() const
    {
        if (isZero())
            return 0;
        // norm() is zero only for zero (beta is a non-residue).
        return norm().legendre();
    }

    /**
     * Square root by the complex method (requires Fq's p = 3 mod 4,
     * true for all our base fields). With delta = sqrt(N(a)), one of
     * t = (c0 +- delta)/2 is a residue; then r = sqrt(t) + u *
     * c1/(2 sqrt(t)) satisfies r^2 = a. Throws std::domain_error for
     * non-residues.
     */
    Fp2T
    sqrt() const
    {
        if (isZero())
            return zero();
        if (c1.isZero()) {
            // Base-field element: sqrt in Fq if c0 is a residue,
            // else sqrt(c0/beta) * u (beta is a non-residue, so
            // exactly one of the two cases applies).
            if (c0.legendre() == 1)
                return Fp2T(c0.sqrt(), Fq::zero());
            return Fp2T(Fq::zero(),
                        (c0 * Cfg::beta().inverse()).sqrt());
        }
        Fq delta;
        try {
            delta = norm().sqrt();
        } catch (const std::domain_error &) {
            throw std::domain_error(
                "Fp2::sqrt: not a quadratic residue");
        }
        Fq half = (Fq::one() + Fq::one()).inverse();
        Fq t = (c0 + delta) * half;
        if (t.legendre() != 1)
            t = (c0 - delta) * half;
        Fq r0;
        try {
            r0 = t.sqrt();
        } catch (const std::domain_error &) {
            throw std::domain_error(
                "Fp2::sqrt: not a quadratic residue");
        }
        Fp2T r(r0, c1 * (r0 + r0).inverse());
        if (r.squared() != *this)
            throw std::domain_error(
                "Fp2::sqrt: not a quadratic residue");
        return r;
    }

    template <typename Rng>
    static Fp2T
    random(Rng &rng)
    {
        return Fp2T(Fq::random(rng), Fq::random(rng));
    }
};

/**
 * Cubic extension Fp6 = Fp2[v]/(v^3 - xi).
 *
 * @tparam Cfg provides `using Fp2 = ...;`, `static Fp2 xi()` and
 *         `static Fp2 mulByXi(const Fp2 &)`.
 */
template <typename Cfg>
class Fp6T
{
  public:
    using Fp2 = typename Cfg::Fp2;

    Fp2 c0, c1, c2;

    Fp6T() = default;
    Fp6T(const Fp2 &a, const Fp2 &b, const Fp2 &c) : c0(a), c1(b), c2(c) {}

    static Fp6T zero() { return Fp6T(); }
    static Fp6T one()
    {
        return Fp6T(Fp2::one(), Fp2::zero(), Fp2::zero());
    }

    bool isZero() const
    {
        return c0.isZero() && c1.isZero() && c2.isZero();
    }
    bool operator==(const Fp6T &o) const
    {
        return c0 == o.c0 && c1 == o.c1 && c2 == o.c2;
    }
    bool operator!=(const Fp6T &o) const { return !(*this == o); }

    Fp6T operator+(const Fp6T &o) const
    {
        return Fp6T(c0 + o.c0, c1 + o.c1, c2 + o.c2);
    }
    Fp6T operator-(const Fp6T &o) const
    {
        return Fp6T(c0 - o.c0, c1 - o.c1, c2 - o.c2);
    }
    Fp6T operator-() const { return Fp6T(-c0, -c1, -c2); }

    /** Toom-Cook-ish schoolbook with xi reductions (6 Fp2 muls). */
    Fp6T
    operator*(const Fp6T &o) const
    {
        Fp2 a0 = c0 * o.c0;
        Fp2 a1 = c1 * o.c1;
        Fp2 a2 = c2 * o.c2;
        Fp2 t0 = (c1 + c2) * (o.c1 + o.c2) - a1 - a2; // c1 o2 + c2 o1
        Fp2 t1 = (c0 + c1) * (o.c0 + o.c1) - a0 - a1; // c0 o1 + c1 o0
        Fp2 t2 = (c0 + c2) * (o.c0 + o.c2) - a0 - a2; // c0 o2 + c2 o0
        return Fp6T(a0 + Cfg::mulByXi(t0), t1 + Cfg::mulByXi(a2), t2 + a1);
    }

    Fp6T &operator+=(const Fp6T &o) { return *this = *this + o; }
    Fp6T &operator-=(const Fp6T &o) { return *this = *this - o; }
    Fp6T &operator*=(const Fp6T &o) { return *this = *this * o; }

    Fp6T squared() const { return *this * *this; }

    /** Multiply by v: (c0, c1, c2) -> (xi c2, c0, c1). */
    Fp6T
    mulByV() const
    {
        return Fp6T(Cfg::mulByXi(c2), c0, c1);
    }

    Fp6T
    scale(const Fp2 &s) const
    {
        return Fp6T(c0 * s, c1 * s, c2 * s);
    }

    /** Multiply by the sparse element b0 + b1 v: 5 Fp2 multiplies. */
    Fp6T
    mulBy01(const Fp2 &b0, const Fp2 &b1) const
    {
        Fp2 a0 = c0 * b0;
        Fp2 a1 = c1 * b1;
        return Fp6T(Cfg::mulByXi((c1 + c2) * b1 - a1) + a0,
                    (c0 + c1) * (b0 + b1) - a0 - a1,
                    (c0 + c2) * b0 - a0 + a1);
    }

    /** Multiply an Fp2 element by the cubic non-residue xi. */
    static Fp2 mulByXi(const Fp2 &a) { return Cfg::mulByXi(a); }

    Fp6T
    inverse() const
    {
        // Standard cubic-extension inversion (see Devegili et al.).
        Fp2 t0 = c0.squared() - Cfg::mulByXi(c1 * c2);
        Fp2 t1 = Cfg::mulByXi(c2.squared()) - c0 * c1;
        Fp2 t2 = c1.squared() - c0 * c2;
        Fp2 denom = c0 * t0 + Cfg::mulByXi(c2 * t1 + c1 * t2);
        Fp2 dinv = denom.inverse();
        return Fp6T(t0 * dinv, t1 * dinv, t2 * dinv);
    }

    template <typename Rng>
    static Fp6T
    random(Rng &rng)
    {
        return Fp6T(Fp2::random(rng), Fp2::random(rng), Fp2::random(rng));
    }
};

/**
 * Quadratic extension Fp12 = Fp6[w]/(w^2 - v).
 *
 * @tparam Cfg provides `using Fp6 = ...;`.
 */
template <typename Cfg>
class Fp12T
{
  public:
    using Fp6 = typename Cfg::Fp6;
    using Fp2 = typename Fp6::Fp2;

    Fp6 c0, c1;

    Fp12T() = default;
    Fp12T(const Fp6 &a, const Fp6 &b) : c0(a), c1(b) {}

    static Fp12T zero() { return Fp12T(); }
    static Fp12T one() { return Fp12T(Fp6::one(), Fp6::zero()); }

    bool isZero() const { return c0.isZero() && c1.isZero(); }
    bool operator==(const Fp12T &o) const
    {
        return c0 == o.c0 && c1 == o.c1;
    }
    bool operator!=(const Fp12T &o) const { return !(*this == o); }

    Fp12T operator+(const Fp12T &o) const
    {
        return Fp12T(c0 + o.c0, c1 + o.c1);
    }
    Fp12T operator-(const Fp12T &o) const
    {
        return Fp12T(c0 - o.c0, c1 - o.c1);
    }

    Fp12T
    operator*(const Fp12T &o) const
    {
        Fp6 a = c0 * o.c0;
        Fp6 b = c1 * o.c1;
        Fp6 sum = (c0 + c1) * (o.c0 + o.c1);
        return Fp12T(a + b.mulByV(), sum - a - b);
    }

    Fp12T &operator*=(const Fp12T &o) { return *this = *this * o; }

    Fp12T
    squared() const
    {
        Fp6 ab = c0 * c1;
        Fp6 t = (c0 + c1) * (c0 + c1.mulByV());
        return Fp12T(t - ab - ab.mulByV(), ab + ab);
    }

    /**
     * Multiply by the sparse element d0 + (d3 + d4 v) w, the shape of
     * a Miller line on a D-type sextic twist: 13 Fp2 multiplies
     * instead of 18.
     */
    Fp12T
    mulBy034(const Fp2 &d0, const Fp2 &d3, const Fp2 &d4) const
    {
        Fp6 a = c0.scale(d0);
        Fp6 b = c1.mulBy01(d3, d4);
        Fp6 e = (c0 + c1).mulBy01(d0 + d3, d4);
        return Fp12T(a + b.mulByV(), e - a - b);
    }

    /**
     * Square an element of the cyclotomic subgroup, the order
     * p^4 - p^2 + 1 subgroup every final-exponentiation easy part
     * lands in (Granger-Scott 2010): 6 Fp2 multiplies instead of 12.
     * Wrong for any other element.
     */
    Fp12T
    cyclotomicSquared() const
    {
        // Read Fp12 as Fp4^3 with Fp4 = Fp2[y] / (y^2 - xi), y = w^3;
        // the Fp4 elements are (c0.c0, c1.c1), (c1.c0, c0.c2) and
        // (c0.c1, c1.c2). Each squaring is (a + b y)^2 =
        // (a^2 + xi b^2) + 2ab y.
        auto sq = [](const Fp2 &a, const Fp2 &b, Fp2 &s0, Fp2 &s1) {
            Fp2 ab = a * b;
            s0 = (a + b) * (a + Fp6::mulByXi(b)) - ab - Fp6::mulByXi(ab);
            s1 = ab.dbl();
        };
        Fp2 t0, t1, t2, t3, t4, t5;
        sq(c0.c0, c1.c1, t0, t1);
        sq(c1.c0, c0.c2, t2, t3);
        sq(c0.c1, c1.c2, t4, t5);
        // z -> 3t - 2z or 3t + 2z per coordinate.
        auto minus = [](const Fp2 &t, const Fp2 &z) {
            return (t - z).dbl() + t;
        };
        auto plus = [](const Fp2 &t, const Fp2 &z) {
            return (t + z).dbl() + t;
        };
        Fp2 xt5 = Fp6::mulByXi(t5);
        return Fp12T(Fp6(minus(t0, c0.c0), minus(t2, c0.c1),
                         minus(t4, c0.c2)),
                     Fp6(plus(xt5, c1.c0), plus(t1, c1.c1),
                         plus(t3, c1.c2)));
    }

    /** Conjugate over Fp6 (the "easy" unitary inverse). */
    Fp12T conjugate() const { return Fp12T(c0, -c1); }

    Fp12T
    inverse() const
    {
        Fp6 denom = c0.squared() - c1.squared().mulByV();
        Fp6 dinv = denom.inverse();
        return Fp12T(c0 * dinv, -(c1 * dinv));
    }

    template <std::size_t M>
    Fp12T
    pow(const BigInt<M> &e) const
    {
        Fp12T result = one();
        for (std::size_t i = e.numBits(); i-- > 0;) {
            result = result.squared();
            if (e.bit(i))
                result *= *this;
        }
        return result;
    }

    template <typename Rng>
    static Fp12T
    random(Rng &rng)
    {
        return Fp12T(Fp6::random(rng), Fp6::random(rng));
    }
};

} // namespace gzkp::ff

#endif // GZKP_FF_TOWER_HH
