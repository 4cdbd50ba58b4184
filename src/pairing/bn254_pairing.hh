/**
 * @file
 * Optimal ate pairing on ALT-BN128 (BN254).
 *
 * This powers the real Groth16 verifier on BN254, which the proving
 * service runs on every proof before releasing it, so the pairing sits
 * on the served path:
 *
 *  - the Miller loop runs on the sextic D-twist E'(Fp2) in
 *    homogeneous projective coordinates (Costello-Lange-Naehrig
 *    2010) over the NAF of 6x + 2, and multiplies each line into the
 *    accumulator as a sparse Fp12 element; it has no inversions;
 *  - a product of pairings shares one Miller loop (one squaring of
 *    the accumulator per step for all pairs) and one final
 *    exponentiation;
 *  - the Frobenius endomorphism and the twist map psi use
 *    coefficients xi^(i (q - 1) / 6) derived once from the literal
 *    power of xi;
 *  - the final exponentiation raises to the exact exponent
 *    (q^12 - 1) / r: an easy part by Frobenius, then the hard part
 *    (q^4 - q^2 + 1) / r written exactly in base q with coefficients
 *    polynomial in x, so it costs three powers by x with
 *    Granger-Scott cyclotomic squaring. Values therefore equal those
 *    of the textbook pairing bit for bit.
 *
 * Inputs are G1 points and G2 points of the order-r subgroup (the
 * verifier checks membership first); on other G2 points the value is
 * unspecified. A pairing with an identity input is GT one.
 */

#ifndef GZKP_PAIRING_BN254_PAIRING_HH
#define GZKP_PAIRING_BN254_PAIRING_HH

#include <span>

#include "ec/curves.hh"
#include "ff/bn254_tower.hh"

namespace gzkp::pairing {

using GT = ff::Bn254Fp12;

/** One factor e(p, q) of a pairing product. */
struct PairingInput {
    ec::Bn254G1Affine p;
    ec::Bn254G2Affine q;
};

/** The optimal ate pairing e : G1 x G2 -> GT. */
GT pairing(const ec::Bn254G1Affine &p, const ec::Bn254G2Affine &q);

/** prod_i e(p_i, q_i), with one Miller loop and one final exponentiation. */
GT multiPairing(std::span<const PairingInput> pairs);

/**
 * The shared Miller loop of a pairing product, without the final
 * exponentiation. Its value is defined only up to factors the final
 * exponentiation removes.
 */
GT millerLoop(std::span<const PairingInput> pairs);

/** Final exponentiation f^((q^12 - 1) / r). */
GT finalExponentiation(const GT &f);

/** The Frobenius endomorphism a -> a^q of Fp12. */
GT frobenius(const GT &a);

/** GT exponentiation by a scalar field element. */
GT gtPow(const GT &base, const ff::Bn254Fr &e);

} // namespace gzkp::pairing

#endif // GZKP_PAIRING_BN254_PAIRING_HH
