#include "zkp/groth16_bn254.hh"

#include "pairing/bn254_pairing.hh"

namespace gzkp::zkp {

bool
verifyBn254(const Groth16<Bn254Family>::VerifyingKey &vk,
            const Groth16<Bn254Family>::Proof &proof,
            const std::vector<ff::Bn254Fr> &public_inputs)
{
    using G1 = Groth16<Bn254Family>::G1;

    if (public_inputs.size() + 1 != vk.ic.size())
        return false;

    // Validate the proof's group encodings before any pairing: a
    // point off the curve breaks the curve arithmetic's assumptions,
    // and an on-curve G2 point outside the order-r subgroup admits
    // small-subgroup confinement of e(A, B). G1 has cofactor 1, so
    // its subgroup check is the on-curve check alone (kCofactorOne).
    if (!ec::inPrimeSubgroup(proof.a) || !ec::inPrimeSubgroup(proof.b) ||
        !ec::inPrimeSubgroup(proof.c))
        return false;

    // IC(x) = ic_0 + sum x_i * ic_i.
    G1 acc = G1::fromAffine(vk.ic[0]);
    for (std::size_t i = 0; i < public_inputs.size(); ++i) {
        acc += G1::fromAffine(vk.ic[i + 1])
                   .mul(public_inputs[i].toBigInt());
    }

    // e(A, B) == e(alpha, beta) e(IC, gamma) e(C, delta), as one
    // product of pairings that must be one.
    const pairing::PairingInput terms[] = {
        {proof.a, proof.b},
        {vk.alphaG1.negate(), vk.betaG2},
        {acc.toAffine().negate(), vk.gammaG2},
        {proof.c.negate(), vk.deltaG2},
    };
    return pairing::multiPairing(terms) == pairing::GT::one();
}

} // namespace gzkp::zkp
