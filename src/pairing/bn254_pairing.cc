#include "pairing/bn254_pairing.hh"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ec/wnaf.hh"
#include "ff/natnum.hh"

namespace gzkp::pairing {

using ec::Bn254G1Affine;
using ec::Bn254G2Affine;
using ff::BigInt;
using ff::Bn254Fp2;
using ff::Bn254Fp6;
using ff::Bn254Fq;
using ff::Bn254Fr;
using ff::NatNum;

namespace {

/** BN parameter x; the Miller loop runs over 6x + 2. */
constexpr std::uint64_t kBnX = 4965661367192848881ull;

/**
 * gamma[i] = xi^(i (q - 1) / 6), so (c w^i)^q = conj(c) gamma[i] w^i
 * for c in Fp2 (w^6 = xi). Derived once from the literal power.
 */
const std::array<Bn254Fp2, 6> &
frobeniusCoeffs()
{
    static const std::array<Bn254Fp2, 6> gamma = [] {
        NatNum rem;
        NatNum e = (NatNum::fromBigInt(Bn254Fq::modulus()) - NatNum(1))
                       .divmod(NatNum(6), rem);
        if (!rem.isZero())
            throw std::logic_error("bn254: 6 does not divide q - 1");
        Bn254Fp2 step = ff::Bn254Fp6Cfg::xi().pow(e.toBigInt<4>());
        std::array<Bn254Fp2, 6> g;
        g[0] = Bn254Fp2::one();
        for (std::size_t i = 1; i < g.size(); ++i)
            g[i] = g[i - 1] * step;
        return g;
    }();
    return gamma;
}

/**
 * psi = twist o Frobenius o untwist: the q-power Frobenius of E(Fp12)
 * seen on E'(Fp2), (x, y) -> (conj(x) gamma[2], conj(y) gamma[3]).
 */
Bn254G2Affine
psi(const Bn254G2Affine &q)
{
    const auto &g = frobeniusCoeffs();
    return Bn254G2Affine(q.x.conjugate() * g[2], q.y.conjugate() * g[3]);
}

/** A point of E'(Fp2) in homogeneous projective coordinates. */
struct TwistPoint {
    Bn254Fp2 x, y, z;
};

/**
 * A line through points of E'(Fp2), untwisted and evaluated at
 * P = (xp, yp) in E(Fq): c0 yp + c3 xp w + c4 v w, up to an Fp2
 * factor the final exponentiation removes.
 */
struct Line {
    Bn254Fp2 c0, c3, c4;
};

/** T <- 2T, returning the tangent at T. */
Line
doublingStep(TwistPoint &t)
{
    static const Bn254Fq twoInv = Bn254Fq::fromUint64(2).inverse();
    const Bn254Fp2 b = ec::Bn254G2Cfg::b();
    Bn254Fp2 a = (t.x * t.y).scale(twoInv);
    Bn254Fp2 yy = t.y.squared();
    Bn254Fp2 zz = t.z.squared();
    Bn254Fp2 e = b * (zz.dbl() + zz); // 3 b Z^2
    Bn254Fp2 f = e.dbl() + e;
    Bn254Fp2 g = (yy + f).scale(twoInv);
    Bn254Fp2 h = (t.y + t.z).squared() - (yy + zz); // 2 Y Z
    Bn254Fp2 xx = t.x.squared();
    Bn254Fp2 ee = e.squared();
    t.x = a * (yy - f);
    t.y = g.squared() - (ee.dbl() + ee);
    t.z = yy * h;
    return {-h, xx.dbl() + xx, e - yy};
}

/** T <- T + Q for affine Q != +-T, returning the line through both. */
Line
additionStep(TwistPoint &t, const Bn254G2Affine &q)
{
    Bn254Fp2 theta = t.y - q.y * t.z;
    Bn254Fp2 lambda = t.x - q.x * t.z;
    Bn254Fp2 c = theta.squared();
    Bn254Fp2 d = lambda.squared();
    Bn254Fp2 e = lambda * d;
    Bn254Fp2 f = t.z * c;
    Bn254Fp2 g = t.x * d;
    Bn254Fp2 h = e + f - g.dbl();
    t.x = lambda * h;
    t.y = theta * (g - h) - e * t.y;
    t.z *= e;
    return {lambda, -theta, theta * q.x - lambda * q.y};
}

/** One non-identity pair of the product, with its running multiple T. */
struct MillerPair {
    Bn254Fq xp, yp;
    Bn254G2Affine q, negQ;
    TwistPoint t;
};

/** f * l(P) for a line l evaluated at the pair's G1 point. */
GT
mulByLine(const GT &f, const Line &l, const MillerPair &m)
{
    return f.mulBy034(l.c0.scale(m.yp), l.c3.scale(m.xp), l.c4);
}

/** f^x for f in the cyclotomic subgroup, over the NAF of x. */
GT
cyclotomicPowX(const GT &f)
{
    static const std::vector<int> naf =
        ec::wnafRecode(BigInt<1>::fromUint64(kBnX), 1);
    const GT fInv = f.conjugate();
    GT r = f; // the leading digit is 1
    for (std::size_t i = naf.size() - 1; i-- > 0;) {
        r = r.cyclotomicSquared();
        if (naf[i] > 0)
            r *= f;
        else if (naf[i] < 0)
            r *= fInv;
    }
    return r;
}

} // namespace

GT
millerLoop(std::span<const PairingInput> pairs)
{
    std::vector<MillerPair> live;
    for (const PairingInput &in : pairs) {
        if (in.p.infinity || in.q.infinity)
            continue; // e(P, Q) is one
        live.push_back({in.p.x, in.p.y, in.q, in.q.negate(),
                        {in.q.x, in.q.y, Bn254Fp2::one()}});
    }
    if (live.empty())
        return GT::one();

    static const std::vector<int> naf = ec::wnafRecode(
        (NatNum(kBnX) * NatNum(6) + NatNum(2)).toBigInt<2>(), 1);

    GT f = GT::one();
    for (std::size_t i = naf.size() - 1; i-- > 0;) {
        f = f.squared();
        for (MillerPair &m : live) {
            f = mulByLine(f, doublingStep(m.t), m);
            if (naf[i] > 0)
                f = mulByLine(f, additionStep(m.t, m.q), m);
            else if (naf[i] < 0)
                f = mulByLine(f, additionStep(m.t, m.negQ), m);
        }
    }

    // Optimal ate correction: f *= l_{T, pi(Q)} * l_{T + pi(Q), -pi^2(Q)}.
    for (MillerPair &m : live) {
        Bn254G2Affine q1 = psi(m.q);
        Bn254G2Affine q2 = psi(q1).negate();
        f = mulByLine(f, additionStep(m.t, q1), m);
        f = mulByLine(f, additionStep(m.t, q2), m);
    }
    return f;
}

GT
frobenius(const GT &a)
{
    const auto &g = frobeniusCoeffs();
    return GT(Bn254Fp6(a.c0.c0.conjugate(), a.c0.c1.conjugate() * g[2],
                       a.c0.c2.conjugate() * g[4]),
              Bn254Fp6(a.c1.c0.conjugate() * g[1],
                       a.c1.c1.conjugate() * g[3],
                       a.c1.c2.conjugate() * g[5]));
}

GT
finalExponentiation(const GT &f)
{
    // Easy part: f^((q^6 - 1)(q^2 + 1)) lies in the cyclotomic
    // subgroup, where the inverse is the conjugate.
    GT g = f.conjugate() * f.inverse();
    g = frobenius(frobenius(g)) * g;

    // Hard part: the exact exponent (q^4 - q^2 + 1) / r. As an
    // identity of integers (Scott et al. 2009), it equals
    // l0 + l1 q + l2 q^2 + l3 q^3 with
    //   l0 = -36x^3 - 30x^2 - 18x - 2,  l1 = -36x^3 - 18x^2 - 12x + 1,
    //   l2 = 6x^2 + 1,                  l3 = 1,
    // evaluated as y0 y1^2 y2^6 y3^12 y4^18 y5^30 y6^36 over
    // g^x, g^(x^2), g^(x^3) and Frobenius images.
    GT gx = cyclotomicPowX(g);
    GT gx2 = cyclotomicPowX(gx);
    GT gx3 = cyclotomicPowX(gx2);
    GT gq = frobenius(g);
    GT gq2 = frobenius(gq);
    GT y0 = gq * gq2 * frobenius(gq2);
    GT y1 = g.conjugate();
    GT y2 = frobenius(frobenius(gx2));
    GT y3 = frobenius(gx).conjugate();
    GT y4 = (gx * frobenius(gx2)).conjugate();
    GT y5 = gx2.conjugate();
    GT y6 = (gx3 * frobenius(gx3)).conjugate();

    GT t0 = y6.cyclotomicSquared() * y4 * y5;
    GT t1 = y3 * y5 * t0;
    t0 *= y2;
    t1 = (t1.cyclotomicSquared() * t0).cyclotomicSquared();
    t0 = t1 * y1;
    t1 *= y0;
    return t0.cyclotomicSquared() * t1;
}

GT
multiPairing(std::span<const PairingInput> pairs)
{
    return finalExponentiation(millerLoop(pairs));
}

GT
pairing(const Bn254G1Affine &p, const Bn254G2Affine &q)
{
    const PairingInput in{p, q};
    return multiPairing({&in, 1});
}

GT
gtPow(const GT &base, const Bn254Fr &e)
{
    return base.pow(e.toBigInt());
}

} // namespace gzkp::pairing
