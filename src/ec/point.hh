/**
 * @file
 * Elliptic-curve points and the PADD / PMUL primitives.
 *
 * The paper (Section 2.1, Figure 1) treats point addition (PADD,
 * including doubling) and scalar point multiplication (PMUL) as the
 * basic MSM building blocks. This header implements them over any
 * coordinate field produced by the ff library (Fp or Fp2), using
 * Jacobian projective coordinates so the hot path is inversion-free.
 *
 * A curve is described by a config type:
 *
 *   struct SomeCurveCfg {
 *       using Field  = ...;  // coordinate field
 *       using Scalar = ...;  // scalar field Fr
 *       static constexpr bool kAZero = ...; // a() == 0
 *       static Field a();    // short Weierstrass a4
 *       static Field b();    // short Weierstrass a6
 *       static Field genX(); // affine generator
 *       static Field genY();
 *       static const char *name();
 *   };
 *
 * Doubling picks its formula at compile time from kAZero: dbl-2009-l
 * (2M + 5S) on a = 0 curves (BN254 G1 and G2, BLS12-381 G1), and
 * dbl-2007-bl (1M + 8S plus the multiply by a) otherwise
 * (MNT4753-sim). On an a = 0 curve both return the same Jacobian
 * coordinates.
 */

#ifndef GZKP_EC_POINT_HH
#define GZKP_EC_POINT_HH

#include <cstddef>
#include <vector>

#include "ff/bigint.hh"
#include "ff/fp.hh"

namespace gzkp::ec {

/** An affine point; `infinity` marks the group identity. */
template <typename Cfg>
struct AffinePoint {
    using Field = typename Cfg::Field;

    Field x, y;
    bool infinity = true;

    AffinePoint() = default;
    AffinePoint(const Field &x_, const Field &y_)
        : x(x_), y(y_), infinity(false)
    {}

    static AffinePoint
    identity()
    {
        return AffinePoint();
    }

    bool
    operator==(const AffinePoint &o) const
    {
        if (infinity || o.infinity)
            return infinity == o.infinity;
        return x == o.x && y == o.y;
    }
    bool operator!=(const AffinePoint &o) const { return !(*this == o); }

    AffinePoint
    negate() const
    {
        if (infinity)
            return *this;
        return AffinePoint(x, -y);
    }

    /** Check y^2 == x^3 + a x + b (identity passes trivially). */
    bool
    onCurve() const
    {
        if (infinity)
            return true;
        Field lhs = y.squared();
        Field rhs = x.squared() * x + Cfg::a() * x + Cfg::b();
        return lhs == rhs;
    }
};

/**
 * A point in Jacobian coordinates (X, Y, Z) with x = X/Z^2,
 * y = Y/Z^3; Z = 0 encodes the identity.
 */
template <typename Cfg>
class ECPoint
{
  public:
    using Field = typename Cfg::Field;
    using Scalar = typename Cfg::Scalar;
    using Affine = AffinePoint<Cfg>;

    Field X, Y, Z;

    /** Default-constructed point is the identity. */
    ECPoint() : X(Field::zero()), Y(Field::one()), Z(Field::zero()) {}

    ECPoint(const Field &x, const Field &y, const Field &z)
        : X(x), Y(y), Z(z)
    {}

    static ECPoint identity() { return ECPoint(); }

    static ECPoint
    fromAffine(const Affine &p)
    {
        if (p.infinity)
            return identity();
        return ECPoint(p.x, p.y, Field::one());
    }

    static Affine
    generatorAffine()
    {
        return Affine(Cfg::genX(), Cfg::genY());
    }

    static ECPoint generator() { return fromAffine(generatorAffine()); }

    bool isZero() const { return Z.isZero(); }

    /** Convert to affine; costs one field inversion. */
    Affine
    toAffine() const
    {
        if (isZero())
            return Affine::identity();
        Field zinv = Z.inverse();
        Field zinv2 = zinv.squared();
        return Affine(X * zinv2, Y * zinv2 * zinv);
    }

    /** Projective equality without normalisation. */
    bool
    operator==(const ECPoint &o) const
    {
        if (isZero() || o.isZero())
            return isZero() == o.isZero();
        Field z1z1 = Z.squared();
        Field z2z2 = o.Z.squared();
        if (X * z2z2 != o.X * z1z1)
            return false;
        return Y * z2z2 * o.Z == o.Y * z1z1 * Z;
    }
    bool operator!=(const ECPoint &o) const { return !(*this == o); }

    ECPoint
    negate() const
    {
        if (isZero())
            return *this;
        return ECPoint(X, -Y, Z);
    }

    /** Point doubling (one PADD in the paper's accounting). */
    ECPoint
    dbl() const
    {
        if (isZero() || Y.isZero())
            return identity();
        Field xx = X.squared();
        Field yy = Y.squared();
        Field yyyy = yy.squared();
        Field s = ((X + yy).squared() - xx - yyyy).dbl();
        Field m = xx + xx + xx;
        Field z3;
        if constexpr (Cfg::kAZero) {
            // dbl-2009-l: Z3 = 2YZ, and the a*Z^4 term vanishes.
            z3 = (Y * Z).dbl();
        } else {
            // dbl-2007-bl, general a4.
            Field zz = Z.squared();
            m += Cfg::a() * zz.squared();
            z3 = (Y + Z).squared() - yy - zz;
        }
        Field x3 = m.squared() - s - s;
        Field y3 = m * (s - x3) - yyyy.dbl().dbl().dbl();
        return ECPoint(x3, y3, z3);
    }

    /** Full Jacobian addition (PADD). */
    ECPoint
    add(const ECPoint &o) const
    {
        if (isZero())
            return o;
        if (o.isZero())
            return *this;
        Field z1z1 = Z.squared();
        Field z2z2 = o.Z.squared();
        Field u1 = X * z2z2;
        Field u2 = o.X * z1z1;
        Field s1 = Y * o.Z * z2z2;
        Field s2 = o.Y * Z * z1z1;
        if (u1 == u2) {
            if (s1 == s2)
                return dbl();
            return identity();
        }
        Field h = u2 - u1;
        Field hh = h.squared();
        Field hhh = h * hh;
        Field v = u1 * hh;
        Field r = s2 - s1;
        Field x3 = r.squared() - hhh - v.dbl();
        Field y3 = r * (v - x3) - s1 * hhh;
        Field z3 = Z * o.Z * h;
        return ECPoint(x3, y3, z3);
    }

    /** Mixed addition with an affine operand (cheaper PADD). */
    ECPoint
    addMixed(const Affine &o) const
    {
        if (o.infinity)
            return *this;
        if (isZero())
            return fromAffine(o);
        Field z1z1 = Z.squared();
        Field u2 = o.x * z1z1;
        Field s2 = o.y * Z * z1z1;
        if (X == u2) {
            if (Y == s2)
                return dbl();
            return identity();
        }
        Field h = u2 - X;
        Field hh = h.squared();
        Field hhh = h * hh;
        Field v = X * hh;
        Field r = s2 - Y;
        Field x3 = r.squared() - hhh - v.dbl();
        Field y3 = r * (v - x3) - Y * hhh;
        Field z3 = Z * h;
        return ECPoint(x3, y3, z3);
    }

    ECPoint operator+(const ECPoint &o) const { return add(o); }
    ECPoint &operator+=(const ECPoint &o) { return *this = add(o); }
    ECPoint operator-(const ECPoint &o) const { return add(o.negate()); }

    /**
     * PMUL: double-and-add scalar multiplication by a raw integer.
     * MSM algorithms avoid this (that is the whole point of the
     * paper); it remains the reference and setup-time primitive.
     */
    template <std::size_t M>
    ECPoint
    mul(const gzkp::ff::BigInt<M> &k) const
    {
        ECPoint result;
        for (std::size_t i = k.numBits(); i-- > 0;) {
            result = result.dbl();
            if (k.bit(i))
                result += *this;
        }
        return result;
    }

    ECPoint
    mul(const Scalar &k) const
    {
        return mul(k.toBigInt());
    }

    ECPoint mul(std::uint64_t k) const
    {
        return mul(gzkp::ff::BigInt<1>::fromUint64(k));
    }
};

template <typename Cfg, std::size_t M>
inline ECPoint<Cfg>
operator*(const gzkp::ff::BigInt<M> &k, const ECPoint<Cfg> &p)
{
    return p.mul(k);
}

/**
 * True when p lies on the curve AND in the order-r subgroup (r =
 * Cfg::Scalar's modulus), checked as r * P == identity. For curves
 * with cofactor 1 (BN254 G1) the subgroup check is implied by
 * on-curve, but G2 groups have large cofactors and an on-curve
 * point outside the r-subgroup enables small-subgroup confinement
 * attacks on the pairing argument -- every externally supplied point
 * must pass this before it is used in verification.
 */
template <typename Cfg>
bool
inPrimeSubgroup(const AffinePoint<Cfg> &p)
{
    if (!p.onCurve())
        return false;
    return ECPoint<Cfg>::fromAffine(p)
        .mul(Cfg::Scalar::modulus())
        .isZero();
}

/**
 * Batch-normalise n Jacobian points to affine with a single inversion,
 * writing out[0..n). Identity points (Z == 0) map to affine identity
 * -- exactly the skip-and-preserve zero semantics ff::batchInverse
 * guarantees.
 */
template <typename Cfg>
void
batchToAffine(const ECPoint<Cfg> *pts, std::size_t n,
              AffinePoint<Cfg> *out)
{
    using Field = typename Cfg::Field;
    std::vector<Field> zs(n);
    for (std::size_t i = 0; i < n; ++i)
        zs[i] = pts[i].Z;
    gzkp::ff::batchInverse(zs);

    for (std::size_t i = 0; i < n; ++i) {
        if (pts[i].isZero()) {
            out[i] = AffinePoint<Cfg>::identity();
            continue;
        }
        Field zinv2 = zs[i].squared();
        out[i] = AffinePoint<Cfg>(pts[i].X * zinv2,
                                  pts[i].Y * zinv2 * zs[i]);
    }
}

template <typename Cfg>
std::vector<AffinePoint<Cfg>>
batchToAffine(const std::vector<ECPoint<Cfg>> &pts)
{
    std::vector<AffinePoint<Cfg>> out(pts.size());
    batchToAffine<Cfg>(pts.data(), pts.size(), out.data());
    return out;
}

} // namespace gzkp::ec

#endif // GZKP_EC_POINT_HH
