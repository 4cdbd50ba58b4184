/**
 * @file
 * Groth16 protocol tests: setup/prove/verify roundtrips on BN254
 * (real pairing verifier, checked against the four-pairing oracle
 * verifier) and BLS12-381 (trapdoor self-check), MSM engine
 * interchangeability, and soundness (tamper rejection).
 */

#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "pairing_oracle.hh"
#include "workload/workloads.hh"
#include "zkp/groth16.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/prover_pipeline.hh"

using namespace gzkp;
using namespace gzkp::zkp;

namespace {

template <typename Fr>
workload::Builder<Fr>
factorCircuit(std::uint64_t p, std::uint64_t q, int chain = 30)
{
    // Prove knowledge of factors p*q = public product, with some
    // extra structure (`chain` multiplications) so the domain is
    // nontrivial.
    workload::Builder<Fr> b(1);
    auto pv = b.alloc(Fr::fromUint64(p));
    auto qv = b.alloc(Fr::fromUint64(q));
    b.setPublic(1, Fr::fromUint64(p) * Fr::fromUint64(q));
    b.constrain(LinComb<Fr>(pv, Fr::one()), LinComb<Fr>(qv, Fr::one()),
                LinComb<Fr>(1, Fr::one()));
    auto cur = pv;
    for (int i = 0; i < chain; ++i)
        cur = b.mul(cur, qv);
    b.decompose(pv, 32);
    return b;
}

} // namespace

template <typename Family>
class Groth16Test : public ::testing::Test
{
  protected:
    std::mt19937_64 rng{4242};
};

using Families = ::testing::Types<Bn254Family, Bls381Family>;
TYPED_TEST_SUITE(Groth16Test, Families);

TYPED_TEST(Groth16Test, ProveVerifyRoundTrip)
{
    using Fr = typename TypeParam::Fr;
    using G16 = Groth16<TypeParam>;
    auto b = factorCircuit<Fr>(641, 6700417);
    ASSERT_TRUE(b.cs().isSatisfied(b.assignment()));

    auto keys = G16::setup(b.cs(), this->rng);
    typename G16::ProofAux aux;
    auto proof = G16::prove(keys.pk, b.cs(), b.assignment(),
                            this->rng, &aux);
    EXPECT_TRUE(G16::verifyWithTrapdoor(keys, b.cs(), b.assignment(),
                                        proof, aux));
}

TYPED_TEST(Groth16Test, SerialAndGzkpProversAgree)
{
    using Fr = typename TypeParam::Fr;
    using G16 = Groth16<TypeParam>;
    auto b = factorCircuit<Fr>(17, 19);
    auto keys = G16::setup(b.cs(), this->rng);

    // Same seed => same (r, s) => byte-identical proofs across MSM
    // engines: a strong cross-engine equivalence check.
    std::mt19937_64 r1(7), r2(7);
    typename G16::ProofAux a1, a2;
    auto p1 = G16::template prove<SerialMsmPolicy>(
        keys.pk, b.cs(), b.assignment(), r1, &a1);
    auto p2 = G16::template prove<GzkpMsmPolicy>(
        keys.pk, b.cs(), b.assignment(), r2, &a2);
    EXPECT_EQ(p1.a, p2.a);
    EXPECT_EQ(p1.b, p2.b);
    EXPECT_EQ(p1.c, p2.c);
}

TYPED_TEST(Groth16Test, TamperedWitnessFailsSelfCheck)
{
    using Fr = typename TypeParam::Fr;
    using G16 = Groth16<TypeParam>;
    auto b = factorCircuit<Fr>(3, 5);
    auto keys = G16::setup(b.cs(), this->rng);
    typename G16::ProofAux aux;
    auto proof = G16::prove(keys.pk, b.cs(), b.assignment(),
                            this->rng, &aux);
    // A proof for witness z must not check out against witness z'.
    auto z2 = b.assignment();
    z2.back() += Fr::one();
    EXPECT_FALSE(G16::verifyWithTrapdoor(keys, b.cs(), z2, proof, aux));
}

TYPED_TEST(Groth16Test, TamperedProofFailsSelfCheck)
{
    using Fr = typename TypeParam::Fr;
    using G16 = Groth16<TypeParam>;
    auto b = factorCircuit<Fr>(11, 13);
    auto keys = G16::setup(b.cs(), this->rng);
    typename G16::ProofAux aux;
    auto proof = G16::prove(keys.pk, b.cs(), b.assignment(),
                            this->rng, &aux);
    auto bad = proof;
    bad.a = Groth16<TypeParam>::G1::generator().toAffine();
    EXPECT_FALSE(G16::verifyWithTrapdoor(keys, b.cs(), b.assignment(),
                                         bad, aux));
}

TYPED_TEST(Groth16Test, RejectsWrongWitnessSize)
{
    using Fr = typename TypeParam::Fr;
    using G16 = Groth16<TypeParam>;
    auto b = factorCircuit<Fr>(3, 7);
    auto keys = G16::setup(b.cs(), this->rng);
    std::vector<Fr> short_z(b.assignment().begin(),
                            b.assignment().end() - 1);
    EXPECT_THROW(G16::prove(keys.pk, b.cs(), short_z, this->rng),
                 std::invalid_argument);
}

// --- Real pairing verification on BN254 ---

class Groth16Bn254 : public ::testing::Test
{
  protected:
    using G16 = Groth16<Bn254Family>;
    using Fr = ff::Bn254Fr;
    std::mt19937_64 rng{99};

    /** A circuit size with its keys, one valid proof and its input. */
    struct Instance {
        G16::Keys keys;
        G16::Proof proof;
        std::vector<Fr> pub;
    };

    /** Three circuit sizes, set up and proved once for the suite. */
    static const std::vector<Instance> &
    instances()
    {
        static const std::vector<Instance> v = [] {
            std::mt19937_64 r(2024);
            std::vector<Instance> out;
            for (int chain : {2, 30, 250}) {
                auto b = factorCircuit<Fr>(101, 103, chain);
                auto keys = G16::setup(b.cs(), r);
                auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), r);
                out.push_back({keys, proof, {b.assignment()[1]}});
            }
            return out;
        }();
        return v;
    }

    /**
     * verifyBn254 and the four-pairing oracle verifier must both
     * return `expected`.
     */
    static void
    expectVerdict(const G16::VerifyingKey &vk, const G16::Proof &proof,
                  const std::vector<Fr> &pub, bool expected)
    {
        EXPECT_EQ(verifyBn254(vk, proof, pub), expected);
        EXPECT_EQ(pairing::oracle::verifyGroth16(vk, proof, pub), expected);
    }
};

TEST_F(Groth16Bn254, PairingVerifierAcceptsValidProof)
{
    for (const Instance &in : instances())
        expectVerdict(in.keys.vk, in.proof, in.pub, true);
}

TEST_F(Groth16Bn254, PairingVerifierRejectsWrongPublicInput)
{
    for (const Instance &in : instances())
        expectVerdict(in.keys.vk, in.proof, {in.pub[0] + Fr::one()}, false);
}

TEST_F(Groth16Bn254, PairingVerifierRejectsTamperedProof)
{
    auto g1 = G16::G1::generator();
    auto g2 = G16::G2::generator();
    for (const Instance &in : instances()) {
        const G16::VerifyingKey &vk = in.keys.vk;
        auto bad = in.proof;
        bad.c = g1.mul(std::uint64_t(3)).toAffine();
        expectVerdict(vk, bad, in.pub, false);

        bad = in.proof;
        std::swap(bad.a, bad.c);
        expectVerdict(vk, bad, in.pub, false);

        bad = in.proof;
        bad.a = bad.a.negate();
        expectVerdict(vk, bad, in.pub, false);

        bad = in.proof;
        bad.b = g2.toAffine(); // in the subgroup, but not B
        expectVerdict(vk, bad, in.pub, false);

        // Identity points pass the subgroup check and reach the pairing.
        bad = in.proof;
        bad.a = G16::G1Affine::identity();
        expectVerdict(vk, bad, in.pub, false);
        bad = in.proof;
        bad.b = G16::G2Affine::identity();
        expectVerdict(vk, bad, in.pub, false);
        bad = in.proof;
        bad.c = G16::G1Affine::identity();
        expectVerdict(vk, bad, in.pub, false);
    }
}

TEST_F(Groth16Bn254, PairingVerifierRejectsProofUnderAnotherKey)
{
    const auto &all = instances();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Instance &other = all[(i + 1) % all.size()];
        expectVerdict(other.keys.vk, all[i].proof, all[i].pub, false);
    }
}

TEST_F(Groth16Bn254, PairingVerifierRejectsWrongInputCount)
{
    const Instance &in = instances().front();
    expectVerdict(in.keys.vk, in.proof, {}, false);
    expectVerdict(in.keys.vk, in.proof, {in.pub[0], in.pub[0]}, false);
}

TEST_F(Groth16Bn254, ProofsAreRerandomized)
{
    // Two proofs of the same statement differ (zero-knowledge), yet
    // both verify.
    auto b = factorCircuit<Fr>(7, 13);
    auto keys = G16::setup(b.cs(), rng);
    auto p1 = G16::prove(keys.pk, b.cs(), b.assignment(), rng);
    auto p2 = G16::prove(keys.pk, b.cs(), b.assignment(), rng);
    EXPECT_NE(p1.a, p2.a);
    std::vector<Fr> pub = {b.assignment()[1]};
    EXPECT_TRUE(verifyBn254(keys.vk, p1, pub));
    EXPECT_TRUE(verifyBn254(keys.vk, p2, pub));
}

TEST_F(Groth16Bn254, TrapdoorAndPairingVerifiersAgree)
{
    auto b = factorCircuit<Fr>(29, 31);
    auto keys = G16::setup(b.cs(), rng);
    G16::ProofAux aux;
    auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), rng, &aux);
    std::vector<Fr> pub = {b.assignment()[1]};
    bool td = G16::verifyWithTrapdoor(keys, b.cs(), b.assignment(),
                                      proof, aux);
    bool pr = verifyBn254(keys.vk, proof, pub);
    EXPECT_TRUE(td);
    EXPECT_TRUE(pr);
}

// --- Proof-point validation (subgroup/on-curve checks) ---

namespace {

/**
 * An on-curve G2 point outside the prime-order subgroup. BN254's G2
 * curve E'(Fp2) has a large cofactor, so a random curve point is
 * outside the r-subgroup with overwhelming probability: walk x
 * values, solve y^2 = x^3 + b' with the Fp2 square root, and keep
 * the first point that fails r*P == 0.
 */
ec::AffinePoint<Bn254Family::G2Cfg>
outOfSubgroupG2()
{
    using Cfg = Bn254Family::G2Cfg;
    using F = Cfg::Field;
    using Fq = F::Fq;
    for (std::uint64_t k = 1; k < 1000; ++k) {
        F x(Fq::fromUint64(k), Fq::fromUint64(3 * k + 1));
        F rhs = x.squared() * x + Cfg::a() * x + Cfg::b();
        F y;
        try {
            y = rhs.sqrt();
        } catch (const std::domain_error &) {
            continue; // non-residue: x is not on the curve
        }
        ec::AffinePoint<Cfg> p(x, y);
        if (p.onCurve() && !ec::inPrimeSubgroup(p))
            return p;
    }
    throw std::logic_error("no out-of-subgroup G2 point found");
}

} // namespace

TEST_F(Groth16Bn254, VerifierRejectsOffCurveProofPoints)
{
    auto b = factorCircuit<Fr>(5, 11);
    auto keys = G16::setup(b.cs(), rng);
    auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), rng);
    std::vector<Fr> pub = {b.assignment()[1]};
    ASSERT_TRUE(verifyBn254(keys.vk, proof, pub));

    using FqG1 = Bn254Family::G1Cfg::Field;
    auto bad = proof;
    bad.a = ec::AffinePoint<Bn254Family::G1Cfg>(FqG1::one(),
                                                FqG1::one());
    ASSERT_FALSE(bad.a.onCurve());
    expectVerdict(keys.vk, bad, pub, false);

    using FqG2 = Bn254Family::G2Cfg::Field;
    bad = proof;
    bad.b = ec::AffinePoint<Bn254Family::G2Cfg>(FqG2::one(),
                                                FqG2::one());
    ASSERT_FALSE(bad.b.onCurve());
    expectVerdict(keys.vk, bad, pub, false);
}

TEST_F(Groth16Bn254, VerifierRejectsOutOfSubgroupG2)
{
    auto rogue = outOfSubgroupG2();
    ASSERT_TRUE(rogue.onCurve());
    ASSERT_FALSE(ec::inPrimeSubgroup(rogue));

    auto b = factorCircuit<Fr>(5, 11);
    auto keys = G16::setup(b.cs(), rng);
    auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), rng);
    std::vector<Fr> pub = {b.assignment()[1]};

    // Small-subgroup confinement attempt: an on-curve B outside the
    // r-subgroup must be rejected *before* any pairing is computed.
    auto bad = proof;
    bad.b = rogue;
    expectVerdict(keys.vk, bad, pub, false);
}

/**
 * Given a verifier, the prover's self-check makes no point checks of
 * its own: verifyBn254 must reject an out-of-subgroup B and an
 * off-curve A, and the self-check reports both as kDataLoss, as the
 * structural check does without a verifier.
 */
TEST_F(Groth16Bn254, SelfCheckRejectsBadPointsThroughVerifier)
{
    using Prover = SelfCheckingProver<Bn254Family>;
    auto b = factorCircuit<Fr>(5, 11);
    auto keys = G16::setup(b.cs(), rng);
    auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), rng);
    std::vector<Fr> pub = {b.assignment()[1]};
    Prover::Verifier verifier = verifyBn254;
    ASSERT_TRUE(
        Prover::selfCheck("test", verifier, &keys.vk, proof, pub).isOk());

    auto rogueB = proof;
    rogueB.b = outOfSubgroupG2();
    using FqG1 = Bn254Family::G1Cfg::Field;
    auto offCurveA = proof;
    offCurveA.a =
        ec::AffinePoint<Bn254Family::G1Cfg>(FqG1::one(), FqG1::one());
    ASSERT_FALSE(offCurveA.a.onCurve());

    for (const G16::Proof *bad : {&rogueB, &offCurveA}) {
        EXPECT_EQ(
            Prover::selfCheck("test", verifier, &keys.vk, *bad, pub).code(),
            StatusCode::kDataLoss);
        EXPECT_EQ(Prover::selfCheck("test", {}, nullptr, *bad, pub).code(),
                  StatusCode::kDataLoss);
    }
}

TEST_F(Groth16Bn254, RandomOnCurveG1PointsPassTheProductCheck)
{
    // inPrimeSubgroup skips r * P on BN254 G1 (kCofactorOne). Back
    // that up: points found by solving the curve equation at random
    // x, with no reference to the generator, all satisfy r * P == 0.
    using Cfg = Bn254Family::G1Cfg;
    using Fq = Cfg::Field;
    static_assert(Cfg::kCofactorOne);
    static_assert(!Bn254Family::G2Cfg::kCofactorOne);
    static_assert(!ec::Bls381G1Cfg::kCofactorOne);
    static_assert(!ec::Mnt4753G1Cfg::kCofactorOne);
    std::size_t found = 0;
    while (found < 64) {
        Fq x = Fq::random(rng);
        Fq rhs = x.squared() * x + Cfg::b();
        if (rhs.legendre() != 1)
            continue;
        ec::AffinePoint<Cfg> p(x, rhs.sqrt());
        ASSERT_TRUE(p.onCurve());
        EXPECT_TRUE(G16::G1::fromAffine(p)
                        .mul(Cfg::Scalar::modulus())
                        .isZero());
        EXPECT_TRUE(ec::inPrimeSubgroup(p));
        ++found;
    }
}

TEST_F(Groth16Bn254, G1SubgroupCheckMatchesOnCurve)
{
    // BN254 G1 has cofactor 1: every on-curve point is in the
    // subgroup, and every off-curve point is rejected.
    using Cfg = Bn254Family::G1Cfg;
    auto g = G16::G1::generator();
    EXPECT_TRUE(ec::inPrimeSubgroup(g.toAffine()));
    EXPECT_TRUE(ec::inPrimeSubgroup(
        g.mul(std::uint64_t(123456789)).toAffine()));
    EXPECT_TRUE(
        ec::inPrimeSubgroup(ec::AffinePoint<Cfg>::identity()));
    using FqG1 = Cfg::Field;
    EXPECT_FALSE(ec::inPrimeSubgroup(
        ec::AffinePoint<Cfg>(FqG1::one(), FqG1::one())));
}
