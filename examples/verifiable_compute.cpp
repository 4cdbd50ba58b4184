/**
 * @file
 * Verifiable outsourced computation (the paper's Section 1
 * motivation): a weak client asks a powerful worker to evaluate a
 * polynomial / iterated-hash pipeline over its private data; the
 * worker returns the result *plus a proof*, and the client checks
 * the proof in milliseconds instead of redoing the work.
 *
 * Demonstrates the serialization layer: the worker ships proof and
 * verification key as text, the client reconstructs and verifies.
 */

#include <chrono>
#include <cstdio>
#include <random>

#include "workload/builder.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/serialize.hh"

using namespace gzkp;
using namespace gzkp::zkp;
using Fr = ff::Bn254Fr;
using G16 = Groth16<Bn254Family>;

int
main()
{
    std::mt19937_64 rng(std::random_device{}());

    // The outsourced function: y = MiMC-chain over the worker's
    // private input x with the client's public key k -- say, a
    // keyed PRF evaluation the client cannot compute itself.
    std::printf("== worker side ==\n");
    workload::Builder<Fr> b(2); // public: key k, result y
    Fr key = Fr::fromUint64(0xc11e47);
    b.setPublic(1, key);
    auto x = b.alloc(Fr::random(rng)); // worker's private input
    auto k = b.alloc(key);
    b.assertEqual(LinComb<Fr>(1, Fr::one()), k);
    auto cur = x;
    for (int round = 0; round < 4; ++round)
        cur = b.mimcPermute(cur, k);
    b.setPublic(2, b.value(cur));
    b.assertEqual(LinComb<Fr>(cur, Fr::one()), 2);

    std::printf("computation compiled to %zu constraints\n",
                b.cs().numConstraints());
    auto keys = G16::setup(b.cs(), rng);

    auto t0 = std::chrono::steady_clock::now();
    auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), rng);
    auto t1 = std::chrono::steady_clock::now();
    std::printf("worker proved the evaluation in %.0f ms\n",
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count());

    // Ship result + proof + vk as text.
    auto proof_text = serializeProof<Bn254Family>(proof);
    auto vk_text = serializeVerifyingKey<Bn254Family>(keys.vk);
    std::printf("wire: proof %zu bytes (succinct!), vk %zu bytes\n",
                proof_text.size(), vk_text.size());

    std::printf("\n== client side ==\n");
    auto vk = deserializeVerifyingKey<Bn254Family>(vk_text);
    auto received = deserializeProof<Bn254Family>(proof_text);
    std::vector<Fr> pub = {b.assignment()[1], b.assignment()[2]};

    auto t2 = std::chrono::steady_clock::now();
    bool ok = verifyBn254(vk, received, pub);
    auto t3 = std::chrono::steady_clock::now();
    std::printf("client verified in %.1f ms -> %s\n",
                std::chrono::duration<double, std::milli>(t3 - t2)
                    .count(),
                ok ? "result ACCEPTED" : "result REJECTED");

    // A lying worker (wrong result) is caught.
    std::vector<Fr> lied = {pub[0], pub[1] + Fr::one()};
    bool forged = verifyBn254(vk, received, lied);
    std::printf("forged result: %s\n", forged ? "ACCEPTED?!" : "rejected");
    return ok && !forged ? 0 : 1;
}
