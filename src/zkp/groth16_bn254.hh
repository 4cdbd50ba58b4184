/**
 * @file
 * Real (pairing-based) Groth16 verification on ALT-BN128.
 *
 * Checks e(A, B) == e(alpha, beta) * e(IC(x), gamma) * e(C, delta),
 * with IC(x) = sum_i x_i * ic_i over the public inputs (x_0 = 1), as
 * the single pairing product e(A, B) e(-alpha, beta) e(-IC(x), gamma)
 * e(-C, delta) == 1.
 * This is the verifier a downstream user runs; it needs neither the
 * witness nor the trapdoor.
 */

#ifndef GZKP_ZKP_GROTH16_BN254_HH
#define GZKP_ZKP_GROTH16_BN254_HH

#include <vector>

#include "zkp/groth16.hh"

namespace gzkp::zkp {

/**
 * @param vk the verifying key from setup
 * @param proof the proof to check
 * @param public_inputs the x vector, *without* the leading constant 1
 */
bool verifyBn254(const Groth16<Bn254Family>::VerifyingKey &vk,
                 const Groth16<Bn254Family>::Proof &proof,
                 const std::vector<ff::Bn254Fr> &public_inputs);

} // namespace gzkp::zkp

#endif // GZKP_ZKP_GROTH16_BN254_HH
