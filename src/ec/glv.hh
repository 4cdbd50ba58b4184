/**
 * @file
 * GLV endomorphism scalar decomposition (BN254 G1 and G2).
 *
 * Both BN254 groups lie on a = 0 curves, so phi(x, y) = (beta*x, y),
 * with beta a primitive cube root of unity in Fq, maps each curve to
 * itself: the G1 curve over Fq and the G2 twist over Fp2 (there x is
 * in Fp2 and beta scales both of its coordinates). Each group is the
 * cyclic order-r subgroup of its curve, so phi acts on it as
 * multiplication by lambda, a cube root of unity in Fr. Which of the
 * two cube roots in Fq pairs with a given lambda differs per group;
 * findBeta() tests both against phi(G) == lambda * G. Splitting a
 * 254-bit scalar k into k1 + lambda * k2 with |k1|, |k2| ~ sqrt(r)
 * lets every windowed MSM digitize half-length scalars over the
 * doubled point set {P, phi(P)} -- the window count halves while the
 * insertion count stays put, so the Horner/doubling and
 * bucket-reduction phases shrink roughly 2x.
 *
 * Both groups have order r, so the scalar side -- lambda, the lattice
 * basis, the reciprocals and decompose() -- is one Bn254GlvLattice
 * that Glv<Bn254G1Cfg> and Glv<Bn254G2Cfg> share; they differ only in
 * beta and the coordinate field endo() scales.
 *
 * The lattice L = {(a, b) : a + lambda*b = 0 mod r} has the short
 * basis (derived from the BN parameter u, verified at startup):
 *
 *     v1 = (6u^2 + 2u,      6u^2 + 4u + 1)
 *     v2 = (6u^2 + 4u + 1,  2u + 1)          det(v1, v2) = -r
 *
 * Babai round-off against that basis gives the decomposition: the
 * lattice coordinates of (k, 0) are c1 = -k*b2/r and c2 = k*b1/r
 * (det = -r), so with n1 ~ floor(k*b2/r) and n2 ~ floor(k*b1/r) the
 * residual is k1 = k + n1*a1 - n2*a2, k2 = n1*b1 - n2*b2. The
 * per-scalar work is division-free: the precomputed reciprocals
 * g_i = floor(2^384 * b_i / r) fit five limbs, so each quotient is one
 * 4x5-limb product and a shift, off by at most 2 from the true floor
 * (absorbed by the size margin). The residuals are exact integers
 * below 2^kScalarBits in magnitude, so they are computed in wrapping
 * 256-bit two's complement, and the top bit is the sign.
 *
 * Curves without a specialization (BLS12-381, MNT4753-sim) keep
 * Glv<Cfg>::kEnabled == false and are untouched by every GLV-aware
 * code path.
 */

#ifndef GZKP_EC_GLV_HH
#define GZKP_EC_GLV_HH

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "ec/curves.hh"
#include "ec/point.hh"
#include "ff/bigint.hh"

namespace gzkp::ec {

namespace glv_detail {

/** Binary long division: floor(num / den), den != 0. One-time use. */
template <std::size_t N>
inline ff::BigInt<N>
divFloor(const ff::BigInt<N> &num, const ff::BigInt<N> &den)
{
    if (den.isZero())
        throw std::logic_error("glv::divFloor: division by zero");
    ff::BigInt<N> q, rem;
    for (std::size_t i = N * 64; i-- > 0;) {
        rem = rem.shl(1);
        if (num.bit(i))
            rem.limbs[0] |= 1;
        if (!(rem < den)) {
            ff::BigInt<N>::sub(rem, den, rem);
            q.setBit(i);
        }
    }
    return q;
}

/** floor(x / d) for a small divisor d (d != 0). */
template <std::size_t N>
inline ff::BigInt<N>
divSmall(const ff::BigInt<N> &x, std::uint64_t d)
{
    ff::BigInt<N> q;
    ff::uint128 rem = 0;
    for (std::size_t i = N; i-- > 0;) {
        ff::uint128 cur = (rem << 64) | x.limbs[i];
        q.limbs[i] = std::uint64_t(cur / d);
        rem = cur % d;
    }
    return q;
}

} // namespace glv_detail

/**
 * GLV trait: the primary template marks a curve as not GLV-capable.
 * MSM code gates every GLV path behind `if constexpr
 * (Glv<Cfg>::kEnabled)`, so nothing below is instantiated for plain
 * curves.
 */
template <typename Cfg>
struct Glv {
    static constexpr bool kEnabled = false;
    // Referenced (never selected) from runtime branches that the
    // optimizer cannot fold away; 0 keeps such code well-formed.
    static constexpr std::size_t kScalarBits = 0;
};

/** The scalar side of BN254 GLV, shared by G1 and G2. */
struct Bn254GlvLattice {
    using Scalar = ff::Bn254Fr;
    using Repr = Scalar::Repr; // BigInt<4>
    using Recip = ff::BigInt<5>;

    /**
     * Bit bound on |k1| and |k2|: floor rounding plus the reciprocal
     * slack keeps both below 3*(a1 + a2) < 2^130; 132 leaves margin
     * and is what every GLV window digitization loops over.
     */
    static constexpr std::size_t kScalarBits = 132;

    /** The BN254 curve parameter u (x in the BN polynomial family). */
    static constexpr std::uint64_t kBnU = 4965661367192848881ull;

    struct Params {
        Scalar lambda;       //!< cube root of unity in Fr
        Repr lambdaRepr;
        Repr a1, b1, a2, b2; //!< short lattice basis (all positive)
        Recip g1, g2;        //!< floor(2^384 * b_i / r)
    };

    /** One signed half-scalar of a decomposition. */
    struct Decomposed {
        Repr k1, k2;
        bool neg1 = false, neg2 = false;
    };

    static const Params &
    params()
    {
        static const Params p = build();
        return p;
    }

    /** Split k = k1 + lambda * k2 (mod r) with short signed halves. */
    static Decomposed
    decompose(const Scalar &k)
    {
        const Params &p = params();
        Repr kr = k.toBigInt();
        // Babai coefficients via the shifted reciprocals: v1's
        // multiplier comes from b2 and v2's from b1 (the inverse of
        // the basis matrix swaps the b column).
        Repr n1 = mulShr384(kr, p.g2);
        Repr n2 = mulShr384(kr, p.g1);

        // Residuals mod 2^256; their true values are short.
        Repr k1, k2;
        Repr::add(kr, mulLow(n1, p.a1), k1);
        Repr::sub(k1, mulLow(n2, p.a2), k1);
        Repr::sub(mulLow(n1, p.b1), mulLow(n2, p.b2), k2);

        Decomposed d;
        toSigned(k1, d.k1, d.neg1);
        toSigned(k2, d.k2, d.neg2);
        return d;
    }

  private:
    /** floor(k * g / 2^384): 20 limb products, top three limbs kept. */
    static Repr
    mulShr384(const Repr &k, const Recip &g)
    {
        std::uint64_t prod[9] = {};
        for (std::size_t i = 0; i < 4; ++i) {
            std::uint64_t carry = 0;
            for (std::size_t j = 0; j < 5; ++j) {
                ff::uint128 t = ff::uint128(k.limbs[i]) * g.limbs[j] +
                    prod[i + j] + carry;
                prod[i + j] = std::uint64_t(t);
                carry = std::uint64_t(t >> 64);
            }
            prod[i + 5] = carry;
        }
        Repr q;
        for (std::size_t i = 0; i < 3; ++i)
            q.limbs[i] = prod[6 + i];
        return q;
    }

    /** a * b mod 2^256. */
    static Repr
    mulLow(const Repr &a, const Repr &b)
    {
        Repr out;
        for (std::size_t i = 0; i < 4; ++i) {
            std::uint64_t carry = 0;
            for (std::size_t j = 0; i + j < 4; ++j) {
                ff::uint128 t = ff::uint128(a.limbs[i]) * b.limbs[j] +
                    out.limbs[i + j] + carry;
                out.limbs[i + j] = std::uint64_t(t);
                carry = std::uint64_t(t >> 64);
            }
        }
        return out;
    }

    /** Map a two's complement residual to (magnitude, sign). */
    static void
    toSigned(const Repr &v, Repr &mag, bool &neg)
    {
        neg = v.limbs[3] >> 63;
        if (neg)
            Repr::sub(Repr::zero(), v, mag);
        else
            mag = v;
        if (mag.numBits() > kScalarBits)
            throw std::logic_error(
                "Glv::decompose: component exceeds kScalarBits");
    }

    static Repr
    mulSmall(const Repr &x, std::uint64_t c)
    {
        return Repr::mulWide(x, Repr::fromUint64(c)).resize<4>();
    }

    static Params
    build()
    {
        Params p;
        Repr u = Repr::fromUint64(kBnU);
        Repr u2 = Repr::mulWide(u, u).resize<4>();
        Repr u3 = Repr::mulWide(u2, u).resize<4>();

        auto sum = [](std::initializer_list<Repr> parts) {
            Repr acc;
            for (const auto &x : parts)
                Repr::add(acc, x, acc);
            return acc;
        };
        // lambda = 36u^3 + 18u^2 + 6u + 1.
        p.lambdaRepr = sum({mulSmall(u3, 36), mulSmall(u2, 18),
                            mulSmall(u, 6), Repr::one()});
        p.lambda = Scalar::fromBigInt(p.lambdaRepr);
        // Short basis: v1 = (6u^2+2u, 6u^2+4u+1), v2 = (6u^2+4u+1,
        // 2u+1); both entries positive, det = -r.
        p.a1 = sum({mulSmall(u2, 6), mulSmall(u, 2)});
        p.b1 = sum({mulSmall(u2, 6), mulSmall(u, 4), Repr::one()});
        p.a2 = p.b1;
        p.b2 = sum({mulSmall(u, 2), Repr::one()});

        // Reciprocals g_i = floor(2^384 * b_i / r).
        using Wide = ff::BigInt<8>;
        Wide r = Scalar::modulus().resize<8>();
        Wide g1 = glv_detail::divFloor(p.b1.resize<8>().shl(384), r);
        Wide g2 = glv_detail::divFloor(p.b2.resize<8>().shl(384), r);
        p.g1 = g1.resize<5>();
        p.g2 = g2.resize<5>();

        verify(p, g1, g2);
        return p;
    }

    /**
     * Startup self-check: every derived constant is re-validated
     * against its defining identity so a bad basis can never silently
     * corrupt an MSM.
     */
    static void
    verify(const Params &p, const ff::BigInt<8> &g1,
           const ff::BigInt<8> &g2)
    {
        auto fail = [](const char *what) {
            throw std::logic_error(std::string("Glv<Bn254>: ") + what);
        };
        Scalar l = p.lambda;
        if (!((l.squared() + l + Scalar::one()).isZero()))
            fail("lambda^2 + lambda + 1 != 0 in Fr");
        auto f = [](const Repr &x) { return Scalar::fromBigInt(x); };
        if (!((f(p.a1) + l * f(p.b1)).isZero()) ||
            !((f(p.a2) + l * f(p.b2)).isZero()))
            fail("lattice basis not in ker(a + lambda*b)");
        if (g1.resize<5>().resize<8>() != g1 ||
            g2.resize<5>().resize<8>() != g2)
            fail("reciprocal wider than five limbs");
    }
};

/**
 * Glv<Cfg> for a BN254 group (G1 over Fq, G2 over Fp2): the shared
 * lattice plus this group's beta.
 */
template <typename GroupCfg>
struct Bn254Glv : Bn254GlvLattice {
    static constexpr bool kEnabled = true;

    using Cfg = GroupCfg;
    using Field = typename Cfg::Field; // Fq on G1, Fp2 on G2
    using Fq = ff::Bn254Fq;
    using Affine = AffinePoint<Cfg>;

    /** The cube root of unity in Fq for which phi acts as lambda. */
    static const Fq &
    beta()
    {
        static const Fq b = findBeta();
        return b;
    }

    /** phi(x, y) = (beta * x, y): one Fq multiply per x coordinate. */
    static Affine
    endo(const Affine &p)
    {
        if (p.infinity)
            return p;
        return Affine(scale(p.x, beta()), p.y);
    }

  private:
    static Field
    scale(const Field &x, const Fq &b)
    {
        if constexpr (std::is_same_v<Field, Fq>)
            return b * x;
        else
            return x.scale(b);
    }

    /**
     * beta = zeta or zeta^2 for a primitive cube root zeta in Fq,
     * picked so phi(G) == lambda * G on this group's generator.
     */
    static Fq
    findBeta()
    {
        auto fail = [](const char *what) {
            throw std::logic_error(std::string("Glv<") + Cfg::name() +
                                   ">: " + what);
        };
        Repr qm1;
        Repr::sub(Fq::modulus().resize<4>(), Repr::one(), qm1);
        auto exp = glv_detail::divSmall(qm1, 3);
        Fq zeta = Fq::zero();
        for (std::uint64_t h = 2; h < 100; ++h) {
            Fq c = Fq::fromUint64(h).pow(exp);
            if (!(c == Fq::one())) {
                zeta = c;
                break;
            }
        }
        if (zeta.isZero() || !(zeta.squared() * zeta == Fq::one()))
            fail("no cube root of unity found in Fq");

        ECPoint<Cfg> lg =
            ECPoint<Cfg>::generator().mul(params().lambdaRepr);
        Affine gen = ECPoint<Cfg>::generatorAffine();
        for (const Fq &cand : {zeta, zeta.squared()}) {
            Affine mapped(scale(gen.x, cand), gen.y);
            if (lg == ECPoint<Cfg>::fromAffine(mapped))
                return cand;
        }
        fail("neither cube root satisfies phi(G) == lambda * G");
        return zeta; // unreachable
    }
};

template <>
struct Glv<Bn254G1Cfg> : Bn254Glv<Bn254G1Cfg> {};

template <>
struct Glv<Bn254G2Cfg> : Bn254Glv<Bn254G2Cfg> {};

} // namespace gzkp::ec

#endif // GZKP_EC_GLV_HH
