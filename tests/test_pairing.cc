/**
 * @file
 * BN254 optimal ate pairing tests: non-degeneracy, order,
 * bilinearity, behaviour on identity inputs, and differential checks
 * of the fast pairing against the textbook oracle in pairing_oracle.hh.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "pairing/bn254_pairing.hh"
#include "pairing_oracle.hh"

using namespace gzkp;
using namespace gzkp::ff;
using namespace gzkp::ec;
using pairing::GT;

class PairingTest : public ::testing::Test
{
  protected:
    static const GT &
    e0()
    {
        static const GT v = pairing::pairing(
            Bn254G1::generator().toAffine(),
            Bn254G2::generator().toAffine());
        return v;
    }

    std::mt19937_64 rng{55};
};

TEST_F(PairingTest, NonDegenerate)
{
    EXPECT_NE(e0(), GT::one());
    EXPECT_FALSE(e0().isZero());
}

TEST_F(PairingTest, HasOrderR)
{
    EXPECT_EQ(e0().pow(Bn254Fr::modulus()), GT::one());
}

TEST_F(PairingTest, IdentityInputs)
{
    auto g1 = Bn254G1::generator().toAffine();
    auto g2 = Bn254G2::generator().toAffine();
    EXPECT_EQ(pairing::pairing(Bn254G1Affine::identity(), g2), GT::one());
    EXPECT_EQ(pairing::pairing(g1, Bn254G2Affine::identity()), GT::one());
}

TEST_F(PairingTest, BilinearInFirstArgument)
{
    auto a = Bn254Fr::random(rng);
    auto pa = Bn254G1::generator().mul(a).toAffine();
    auto q = Bn254G2::generator().toAffine();
    EXPECT_EQ(pairing::pairing(pa, q), pairing::gtPow(e0(), a));
}

TEST_F(PairingTest, BilinearInSecondArgument)
{
    auto b = Bn254Fr::random(rng);
    auto p = Bn254G1::generator().toAffine();
    auto qb = Bn254G2::generator().mul(b).toAffine();
    EXPECT_EQ(pairing::pairing(p, qb), pairing::gtPow(e0(), b));
}

TEST_F(PairingTest, FullBilinearity)
{
    auto a = Bn254Fr::random(rng);
    auto b = Bn254Fr::random(rng);
    auto pa = Bn254G1::generator().mul(a).toAffine();
    auto qb = Bn254G2::generator().mul(b).toAffine();
    EXPECT_EQ(pairing::pairing(pa, qb), pairing::gtPow(e0(), a * b));
}

TEST_F(PairingTest, AdditiveInFirstArgument)
{
    // e(P1 + P2, Q) == e(P1, Q) * e(P2, Q).
    auto p1 = Bn254G1::generator().mul(std::uint64_t(111));
    auto p2 = Bn254G1::generator().mul(std::uint64_t(222));
    auto q = Bn254G2::generator().toAffine();
    auto lhs = pairing::pairing((p1 + p2).toAffine(), q);
    auto rhs = pairing::pairing(p1.toAffine(), q) *
        pairing::pairing(p2.toAffine(), q);
    EXPECT_EQ(lhs, rhs);
}

TEST_F(PairingTest, NegationInverts)
{
    auto p = Bn254G1::generator().mul(std::uint64_t(9)).toAffine();
    auto q = Bn254G2::generator().toAffine();
    auto e = pairing::pairing(p, q);
    auto en = pairing::pairing(p.negate(), q);
    EXPECT_EQ(e * en, GT::one());
}

TEST_F(PairingTest, FinalExponentiationKillsRthPowers)
{
    // Any element raised to (q^12-1)/r lands in the order-r subgroup.
    auto f = GT::random(rng);
    auto g = pairing::finalExponentiation(f);
    EXPECT_EQ(g.pow(Bn254Fr::modulus()), GT::one());
}

TEST_F(PairingTest, MillerLoopNonTrivial)
{
    const pairing::PairingInput in{Bn254G1::generator().toAffine(),
                                   Bn254G2::generator().toAffine()};
    EXPECT_NE(pairing::millerLoop({&in, 1}), GT::one());
}

// --- Differential checks against the textbook oracle ---

TEST_F(PairingTest, MatchesOracleOnSeededPairs)
{
    auto g1 = Bn254G1::generator();
    auto g2 = Bn254G2::generator();
    std::vector<pairing::PairingInput> cases = {
        {g1.toAffine(), g2.toAffine()},
        {Bn254G1Affine::identity(), g2.toAffine()},
        {g1.toAffine(), Bn254G2Affine::identity()},
        {Bn254G1Affine::identity(), Bn254G2Affine::identity()},
        {g1.toAffine().negate(), g2.toAffine()},
        {g1.toAffine(), g2.toAffine().negate()},
        {g1.toAffine().negate(), g2.toAffine().negate()},
    };
    while (cases.size() < 26) {
        auto a = Bn254Fr::random(rng);
        auto b = Bn254Fr::random(rng);
        auto pa = g1.mul(a).toAffine();
        auto qb = g2.mul(b).toAffine();
        cases.push_back({pa, qb});
        if (cases.size() % 4 == 0)
            cases.push_back({pa.negate(), qb});
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        EXPECT_EQ(pairing::pairing(c.p, c.q),
                  pairing::oracle::pairing(c.p, c.q))
            << "case " << i;
    }
}

TEST_F(PairingTest, MultiPairingMatchesOracleProduct)
{
    auto g1 = Bn254G1::generator();
    auto g2 = Bn254G2::generator();
    auto a = Bn254Fr::random(rng);
    auto b = Bn254Fr::random(rng);
    auto c = Bn254Fr::random(rng);

    // e(aP, bQ) e(-(ab)P, Q) e(cP, Q) e(P, -cQ) == 1.
    std::vector<pairing::PairingInput> one = {
        {g1.mul(a).toAffine(), g2.mul(b).toAffine()},
        {g1.mul(a * b).toAffine().negate(), g2.toAffine()},
        {g1.mul(c).toAffine(), g2.toAffine()},
        {g1.toAffine(), g2.mul(c).toAffine().negate()},
    };
    // Three random pairs plus an identity pair: not one.
    std::vector<pairing::PairingInput> other = {
        {g1.mul(a).toAffine(), g2.mul(c).toAffine()},
        {Bn254G1Affine::identity(), g2.mul(b).toAffine()},
        {g1.mul(b).toAffine(), g2.toAffine()},
        {g1.toAffine().negate(), g2.mul(a).toAffine()},
    };
    for (const auto *pairs : {&one, &other}) {
        GT expect = GT::one();
        for (const auto &in : *pairs)
            expect *= pairing::oracle::pairing(in.p, in.q);
        EXPECT_EQ(pairing::multiPairing(*pairs), expect);
    }
    EXPECT_EQ(pairing::multiPairing(one), GT::one());
    EXPECT_NE(pairing::multiPairing(other), GT::one());
    EXPECT_EQ(pairing::multiPairing({}), GT::one());
}

TEST_F(PairingTest, FrobeniusIsTheQPower)
{
    for (int i = 0; i < 4; ++i) {
        auto a = GT::random(rng);
        EXPECT_EQ(pairing::frobenius(a), a.pow(Bn254Fq::modulus()));
        GT x = a;
        for (int k = 0; k < 12; ++k)
            x = pairing::frobenius(x);
        EXPECT_EQ(x, a);
    }
}

TEST_F(PairingTest, FinalExponentiationMatchesOracle)
{
    for (int i = 0; i < 4; ++i) {
        auto f = GT::random(rng);
        ASSERT_NE(f.conjugate() * f, GT::one()); // not unitary
        EXPECT_EQ(pairing::finalExponentiation(f),
                  pairing::oracle::finalExponentiation(f));
    }
}
