/**
 * @file
 * Textbook optimal ate pairing on BN254 and the four-pairing Groth16
 * verifier built on it: the reference the fast pairing in
 * src/pairing and verifyBn254 are tested against.
 *
 * Everything is literal and slow (tens of milliseconds per pairing):
 *
 *  - G2 points are mapped from the sextic D-twist E'(Fp2) into
 *    E(Fp12) via (x, y) -> (w^2 x, w^3 y), and the Miller loop runs
 *    over the plain binary form of 6x + 2 with affine line functions
 *    over Fp12 (one Fp12 inversion per step);
 *  - the Frobenius endomorphism is computed as the power x -> x^q;
 *  - the final exponentiation's hard part raises to the
 *    arbitrary-precision exponent (q^4 - q^2 + 1) / r by plain
 *    square-and-multiply.
 */

#ifndef GZKP_TESTS_PAIRING_ORACLE_HH
#define GZKP_TESTS_PAIRING_ORACLE_HH

#include <stdexcept>
#include <vector>

#include "ec/curves.hh"
#include "ff/bn254_tower.hh"
#include "ff/natnum.hh"
#include "zkp/groth16.hh"

namespace gzkp::pairing::oracle {

using GT = ff::Bn254Fp12;

namespace detail {

/** BN parameter x = 4965661367192848881; Miller loop runs 6x+2. */
constexpr std::uint64_t kBnX = 4965661367192848881ull;

/** An affine point of E(Fp12): y^2 = x^3 + 3. Infinity unused. */
struct Pt12 {
    GT x, y;
};

/** Embed a base-field element into Fp12 (constant polynomial). */
inline GT
embedFq(const ff::Bn254Fq &a)
{
    ff::Bn254Fp2 a2(a, ff::Bn254Fq::zero());
    ff::Bn254Fp6 a6(a2, ff::Bn254Fp2::zero(), ff::Bn254Fp2::zero());
    return GT(a6, ff::Bn254Fp6::zero());
}

/** Embed an Fp2 element into Fp12. */
inline GT
embedFp2(const ff::Bn254Fp2 &a)
{
    ff::Bn254Fp6 a6(a, ff::Bn254Fp2::zero(), ff::Bn254Fp2::zero());
    return GT(a6, ff::Bn254Fp6::zero());
}

/** Untwist a G2 point into E(Fp12): (x, y) -> (w^2 x, w^3 y). */
inline Pt12
untwist(const ec::Bn254G2Affine &q)
{
    ff::Bn254Fp6 v(ff::Bn254Fp2::zero(), ff::Bn254Fp2::one(),
                   ff::Bn254Fp2::zero());
    GT w2(v, ff::Bn254Fp6::zero()); // w^2 = v
    GT w3(ff::Bn254Fp6::zero(), v); // w^3 = v w
    return {w2 * embedFp2(q.x), w3 * embedFp2(q.y)};
}

/**
 * Evaluate the Miller line through `a` and `b` (tangent when a == b)
 * at the G1 point embedded as (px, py), and advance a to a + b.
 */
inline GT
lineAndAdd(Pt12 &a, const Pt12 &b, const GT &px, const GT &py)
{
    GT lambda;
    if (a.x == b.x && a.y == b.y) {
        // Tangent: lambda = 3 x^2 / 2 y.
        GT three = embedFq(ff::Bn254Fq::fromUint64(3));
        GT two = embedFq(ff::Bn254Fq::fromUint64(2));
        lambda = three * a.x.squared() * (two * a.y).inverse();
    } else {
        if (a.x == b.x)
            throw std::logic_error("bn254 pairing: vertical line hit");
        lambda = (b.y - a.y) * (b.x - a.x).inverse();
    }
    GT line = py - a.y - lambda * (px - a.x);
    GT x3 = lambda.squared() - a.x - b.x;
    GT y3 = lambda * (a.x - x3) - a.y;
    a.x = x3;
    a.y = y3;
    return line;
}

} // namespace detail

/** Frobenius x -> x^q on Fp12, computed literally. */
inline GT
frobenius(const GT &a)
{
    return a.pow(ff::Bn254Fq::modulus());
}

/** Miller loop f_{6x+2, Q}(P) with the optimal ate correction lines. */
inline GT
millerLoop(const ec::Bn254G1Affine &p, const ec::Bn254G2Affine &q)
{
    using detail::Pt12;
    if (p.infinity || q.infinity)
        return GT::one();

    GT px = detail::embedFq(p.x);
    GT py = detail::embedFq(p.y);
    Pt12 qq = detail::untwist(q);

    ff::NatNum loop =
        ff::NatNum(detail::kBnX) * ff::NatNum(6) + ff::NatNum(2);
    ff::BigInt<2> e = loop.toBigInt<2>();

    Pt12 t = qq;
    GT f = GT::one();
    for (std::size_t i = e.numBits() - 1; i-- > 0;) {
        f = f.squared();
        f *= detail::lineAndAdd(t, t, px, py); // doubling step
        if (e.bit(i))
            f *= detail::lineAndAdd(t, qq, px, py); // addition step
    }

    // f *= l_{T, pi(Q)};  T += pi(Q);  f *= l_{T, -pi^2(Q)}.
    Pt12 q1{frobenius(qq.x), frobenius(qq.y)};
    Pt12 q2{frobenius(q1.x), frobenius(q1.y)};
    q2.y = GT::zero() - q2.y; // -pi^2(Q)

    f *= detail::lineAndAdd(t, q1, px, py);
    f *= detail::lineAndAdd(t, q2, px, py);
    return f;
}

/** Final exponentiation f^((q^12 - 1) / r), literally. */
inline GT
finalExponentiation(const GT &f)
{
    // Easy part: f^((q^6 - 1)(q^2 + 1)).
    GT g = f.conjugate() * f.inverse();
    g = frobenius(frobenius(g)) * g;

    static const ff::NatNum hard = [] {
        ff::NatNum qn = ff::NatNum::fromBigInt(ff::Bn254Fq::modulus());
        ff::NatNum rn = ff::NatNum::fromBigInt(ff::Bn254Fr::modulus());
        ff::NatNum q2 = qn * qn;
        ff::NatNum num = q2 * q2 - q2 + ff::NatNum(1);
        ff::NatNum rem;
        ff::NatNum e = num.divmod(rn, rem);
        if (!rem.isZero())
            throw std::logic_error("bn254: r does not divide phi12(q)");
        return e;
    }();

    GT result = GT::one();
    for (std::size_t i = hard.numBits(); i-- > 0;) {
        result = result.squared();
        if (hard.bit(i))
            result *= g;
    }
    return result;
}

inline GT
pairing(const ec::Bn254G1Affine &p, const ec::Bn254G2Affine &q)
{
    return finalExponentiation(millerLoop(p, q));
}

/**
 * Groth16 verification as four independent pairings,
 * e(A, B) == e(alpha, beta) e(IC(x), gamma) e(C, delta), behind the
 * same input-count and subgroup checks as zkp::verifyBn254.
 */
inline bool
verifyGroth16(const zkp::Groth16<zkp::Bn254Family>::VerifyingKey &vk,
              const zkp::Groth16<zkp::Bn254Family>::Proof &proof,
              const std::vector<ff::Bn254Fr> &public_inputs)
{
    using G1 = zkp::Groth16<zkp::Bn254Family>::G1;
    if (public_inputs.size() + 1 != vk.ic.size())
        return false;
    if (!ec::inPrimeSubgroup(proof.a) || !ec::inPrimeSubgroup(proof.b) ||
        !ec::inPrimeSubgroup(proof.c))
        return false;
    G1 acc = G1::fromAffine(vk.ic[0]);
    for (std::size_t i = 0; i < public_inputs.size(); ++i)
        acc += G1::fromAffine(vk.ic[i + 1])
                   .mul(public_inputs[i].toBigInt());
    return pairing(proof.a, proof.b) ==
        pairing(vk.alphaG1, vk.betaG2) *
            pairing(acc.toAffine(), vk.gammaG2) *
            pairing(proof.c, vk.deltaG2);
}

} // namespace gzkp::pairing::oracle

#endif // GZKP_TESTS_PAIRING_ORACLE_HH
