/**
 * @file
 * End-to-end proofs over the realistic workload suite.
 *
 * The Poseidon hash-chain and N-ary Poseidon Merkle circuits are
 * proved through every layer of the stack:
 *
 *  - byte-identical Groth16 proofs across the full engine registry:
 *    MSM policy (serial / bellperson / gzkp) x accumulator strategy
 *    (Jacobian / batch-affine) x GLV (off / on) x thread count;
 *  - the SelfCheckingProver pipeline (pairing self-check, gzkp
 *    backend) and the trapdoor harness verifier;
 *  - the ProofService front end (register / submit / drain).
 *
 * Plus the regime regression: both GLV bucket-accumulation arms
 * (Jacobian and batch-affine) must stay correct on the clustered and
 * adversarial-collision scalar regimes -- the regimes where the
 * 2^14/1-thread batch-affine slowdown documented in EXPERIMENTS.md
 * lives. Perf may differ; results may not.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ec/curves.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "service/proof_service.hh"
#include "testkit/generators.hh"
#include "workload/workloads.hh"
#include "zkp/families.hh"
#include "zkp/groth16.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/prover_pipeline.hh"
#include "zkp/serialize.hh"

#include "strategy_policies.hh"

using namespace gzkp;
using namespace gzkp::msm;

using Family = zkp::Bn254Family;
using G16 = zkp::Groth16<Family>;
using Fr = Family::Fr;
using G1Cfg = ec::Bn254G1Cfg;

namespace {

std::vector<Fr>
publicInputs(const workload::Builder<Fr> &b)
{
    const auto &z = b.assignment();
    return std::vector<Fr>(z.begin() + 1,
                           z.begin() + 1 + b.cs().numPublic());
}

/**
 * Prove `b` under every MSM policy x accumulator x GLV x thread
 * count with identically-seeded prover randomness and assert every
 * serialized proof equals the first.
 */
void
expectBytesIdenticalAcrossRegistry(const workload::Builder<Fr> &b,
                                   std::uint64_t seed)
{
    testkit::Rng rng(testkit::deriveSeed(seed, 1));
    auto keys = G16::setup(b.cs(), rng);

    std::string base;
    auto check = [&](const char *policy, auto tag, Accumulator acc,
                     GlvMode glv, std::size_t threads) {
        using Policy = decltype(tag);
        testkit::Rng prng(testkit::deriveSeed(seed, 2));
        auto proof = G16::prove<Policy>(keys.pk, b.cs(),
                                        b.assignment(), prng, nullptr,
                                        zkp::CpuNttEngine<Fr>(),
                                        threads);
        auto text = zkp::serializeProof<Family>(proof);
        if (base.empty()) {
            base = text;
            // The anchor proof must actually verify.
            EXPECT_TRUE(zkp::verifyBn254(keys.vk, proof,
                                         publicInputs(b)));
        } else {
            EXPECT_EQ(text, base)
                << policy << " acc=" << int(acc) << " glv="
                << int(glv) << " threads=" << threads;
        }
    };

    zkp::strategy::forEachStrategy([&](auto strategy) {
        using S = decltype(strategy);
        for (std::size_t t : {1, 4}) {
            check("serial", typename S::Serial{}, S::accumulator,
                  S::glv, t);
            check("bellperson", typename S::Bellperson{},
                  S::accumulator, S::glv, t);
            check("gzkp", typename S::Gzkp{}, S::accumulator, S::glv,
                  t);
        }
    });
}

} // namespace

// ----------------------------------------- byte-identical registry

TEST(WorkloadProofs, PoseidonChainBytesIdenticalAcrossRegistry)
{
    testkit::Rng rng(71);
    auto b = workload::makePoseidonChainCircuit<Fr>(1, rng);
    ASSERT_TRUE(b.cs().isSatisfied(b.assignment()));
    expectBytesIdenticalAcrossRegistry(b, 71);
}

TEST(WorkloadProofs, PoseidonMerkleBytesIdenticalAcrossRegistry)
{
    testkit::Rng rng(73);
    auto b = workload::makePoseidonMerkleCircuit<Fr>(1, 3, 2, rng);
    ASSERT_TRUE(b.cs().isSatisfied(b.assignment()));
    expectBytesIdenticalAcrossRegistry(b, 73);
}

// ------------------------------------------------ prover pipeline

TEST(WorkloadProofs, SelfCheckingProverProvesPoseidonWorkloads)
{
    testkit::Rng crng(79);
    auto chain = workload::makePoseidonChainCircuit<Fr>(2, crng);
    auto merkle = workload::makePoseidonMerkleCircuit<Fr>(2, 2, 3,
                                                          crng);
    auto prover = zkp::makeBn254SelfCheckingProver();
    for (const auto *b : {&chain, &merkle}) {
        testkit::Rng rng(testkit::deriveSeed(79, 1));
        auto keys = G16::setup(b->cs(), rng);
        typename zkp::SelfCheckingProver<Family>::Report rep;
        testkit::Rng prng(testkit::deriveSeed(79, 2));
        auto r = prover.prove(keys.pk, keys.vk, b->cs(),
                              b->assignment(), prng, &rep);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        EXPECT_TRUE(rep.succeeded);
        EXPECT_EQ(rep.backendUsed, zkp::ProverBackend::Gzkp);
        EXPECT_TRUE(zkp::verifyBn254(keys.vk, *r, publicInputs(*b)));
    }
}

TEST(WorkloadProofs, TrapdoorVerifiesPoseidonMerkle)
{
    testkit::Rng crng(83);
    auto b = workload::makePoseidonMerkleCircuit<Fr>(2, 2, 1, crng);
    testkit::Rng rng(testkit::deriveSeed(83, 1));
    auto keys = G16::setup(b.cs(), rng);
    typename G16::ProofAux aux;
    testkit::Rng prng(testkit::deriveSeed(83, 2));
    auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), prng,
                            &aux);
    EXPECT_TRUE(G16::verifyWithTrapdoor(keys, b.cs(), b.assignment(),
                                        proof, aux));
    // A claim about a different root must fail both verifiers.
    auto pub = publicInputs(b);
    pub[0] += Fr::one();
    EXPECT_FALSE(zkp::verifyBn254(keys.vk, proof, pub));
}

// ---------------------------------------------------- proof service

TEST(WorkloadProofs, ProofServiceProvesPoseidonMerkle)
{
    using Service = service::ProofService<Family>;
    testkit::Rng crng(89);
    auto b = workload::makePoseidonMerkleCircuit<Fr>(2, 3, 4, crng);
    testkit::Rng rng(testkit::deriveSeed(89, 1));
    auto keys = G16::setup(b.cs(), rng);

    Service::Options opt;
    opt.threads = 2;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(keys.pk, keys.vk, b.cs());

    Service::Request req;
    req.circuit = id;
    req.witness = b.assignment();
    req.seed = testkit::deriveSeed(89, 2);
    auto admitted = svc->submit(std::move(req));
    ASSERT_TRUE(admitted.isOk()) << admitted.status().toString();
    EXPECT_EQ(svc->drainOnce(), 1u);
    Service::Result res = admitted->get();
    ASSERT_TRUE(res.status.isOk()) << res.status.toString();
    ASSERT_TRUE(res.proof.has_value());
    EXPECT_TRUE(zkp::verifyBn254(keys.vk, *res.proof,
                                 publicInputs(b)));
}

// ------------------------------------------------ regime regression

// Both GLV arms of the gzkp engine -- Jacobian and batch-affine
// bucket accumulation -- must agree with the naive oracle on the
// clustered and adversarial-collision regimes at one thread. This is
// the correctness side of the 2^14/1t perf wrinkle recorded in
// EXPERIMENTS.md: batch-affine+GLV loses to jacobian+GLV there
// (collision-queue pressure), but neither arm may diverge.
TEST(WorkloadRegression, GlvArmsCorrectOnClusteredAndCollision)
{
    for (auto mix :
         {testkit::ScalarMix::Clustered, testkit::ScalarMix::Collision}) {
        auto in = testkit::msmInstance<G1Cfg>(1 << 10, mix, 97);
        auto expect = msmNaive<G1Cfg>(in.points, in.scalars);
        for (Accumulator acc :
             {Accumulator::Jacobian, Accumulator::BatchAffine}) {
            typename GzkpMsm<G1Cfg>::Options o;
            o.k = 10;
            o.threads = 1;
            o.accumulator = acc;
            o.glv = GlvMode::On;
            EXPECT_EQ(GzkpMsm<G1Cfg>(o).run(in.points, in.scalars),
                      expect)
                << "mix=" << testkit::name(mix) << " acc="
                << int(acc);
            // The serial Pippenger arm with the same strategy pair
            // must agree too.
            EXPECT_EQ(PippengerSerial<G1Cfg>(0, 1, acc, GlvMode::On)
                          .run(in.points, in.scalars),
                      expect)
                << "serial mix=" << testkit::name(mix) << " acc="
                << int(acc);
        }
    }
}
