/**
 * @file
 * Extension-tower (Fp2/Fp6/Fp12) algebra tests on the BN254
 * instantiation.
 */

#include <gtest/gtest.h>

#include <random>

#include "ff/bn254_tower.hh"
#include "ff/natnum.hh"

using namespace gzkp::ff;

class TowerTest : public ::testing::Test
{
  protected:
    std::mt19937_64 rng{31337};
};

TEST_F(TowerTest, Fp2FieldAxioms)
{
    for (int i = 0; i < 20; ++i) {
        auto a = Bn254Fp2::random(rng);
        auto b = Bn254Fp2::random(rng);
        auto c = Bn254Fp2::random(rng);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
        if (!a.isZero())
            EXPECT_EQ(a * a.inverse(), Bn254Fp2::one());
        EXPECT_EQ(a.squared(), a * a);
    }
}

TEST_F(TowerTest, Fp2BasisMultiplication)
{
    // u * u = -1.
    Bn254Fp2 u(Bn254Fq::zero(), Bn254Fq::one());
    EXPECT_EQ(u * u, -Bn254Fp2::one());
}

TEST_F(TowerTest, Fp2Conjugate)
{
    auto a = Bn254Fp2::random(rng);
    // a * conj(a) is in the base field (c1 == 0) and equals the norm.
    auto n = a * a.conjugate();
    EXPECT_TRUE(n.c1.isZero());
    EXPECT_EQ(a.conjugate().conjugate(), a);
}

TEST_F(TowerTest, Fp6FieldAxioms)
{
    for (int i = 0; i < 10; ++i) {
        auto a = Bn254Fp6::random(rng);
        auto b = Bn254Fp6::random(rng);
        auto c = Bn254Fp6::random(rng);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
        if (!a.isZero())
            EXPECT_EQ(a * a.inverse(), Bn254Fp6::one());
    }
}

TEST_F(TowerTest, Fp6VCubeIsXi)
{
    Bn254Fp6 v(Bn254Fp2::zero(), Bn254Fp2::one(), Bn254Fp2::zero());
    Bn254Fp6 xi(Bn254Fp6Cfg::xi(), Bn254Fp2::zero(), Bn254Fp2::zero());
    EXPECT_EQ(v * v * v, xi);
    // mulByV is multiplication by v.
    auto a = Bn254Fp6::random(rng);
    EXPECT_EQ(a.mulByV(), a * v);
}

TEST_F(TowerTest, Fp12FieldAxioms)
{
    for (int i = 0; i < 5; ++i) {
        auto a = Bn254Fp12::random(rng);
        auto b = Bn254Fp12::random(rng);
        auto c = Bn254Fp12::random(rng);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        if (!a.isZero())
            EXPECT_EQ(a * a.inverse(), Bn254Fp12::one());
        EXPECT_EQ(a.squared(), a * a);
    }
}

TEST_F(TowerTest, Fp12WSquareIsV)
{
    Bn254Fp6 v(Bn254Fp2::zero(), Bn254Fp2::one(), Bn254Fp2::zero());
    Bn254Fp12 w(Bn254Fp6::zero(), Bn254Fp6::one());
    EXPECT_EQ(w * w, Bn254Fp12(v, Bn254Fp6::zero()));
}

TEST_F(TowerTest, Fp12PowLaws)
{
    auto a = Bn254Fp12::random(rng);
    auto e5 = a.pow(BigInt<1>::fromUint64(5));
    EXPECT_EQ(e5, a * a * a * a * a);
    EXPECT_EQ(a.pow(BigInt<1>::fromUint64(0)), Bn254Fp12::one());
}

TEST_F(TowerTest, Fp12ConjugateOnUnitCircle)
{
    // For f in the "cyclotomic" subgroup (after f^(p^6-1)), the
    // conjugate is the inverse.
    auto a = Bn254Fp12::random(rng);
    auto g = a.conjugate() * a.inverse(); // g = f^(p^6 - 1) shape
    EXPECT_EQ(g.conjugate(), g.inverse());
}

TEST_F(TowerTest, NonResidueMultipliesMatchFullMultiplies)
{
    for (int i = 0; i < 16; ++i) {
        auto a = Bn254Fq::random(rng);
        EXPECT_EQ(Bn254Fp2Cfg::mulByBeta(a), Bn254Fp2Cfg::beta() * a);
        auto b = Bn254Fp2::random(rng);
        EXPECT_EQ(Bn254Fp6Cfg::mulByXi(b), Bn254Fp6Cfg::xi() * b);
    }
}

TEST_F(TowerTest, SparseMultipliesMatchFullMultiplies)
{
    auto z = Bn254Fp2::zero();
    for (int i = 0; i < 8; ++i) {
        auto a6 = Bn254Fp6::random(rng);
        auto b0 = Bn254Fp2::random(rng);
        auto b1 = Bn254Fp2::random(rng);
        EXPECT_EQ(a6.mulBy01(b0, b1), a6 * Bn254Fp6(b0, b1, z));

        auto f = Bn254Fp12::random(rng);
        auto d0 = Bn254Fp2::random(rng);
        auto d3 = Bn254Fp2::random(rng);
        auto d4 = Bn254Fp2::random(rng);
        Bn254Fp12 line(Bn254Fp6(d0, z, z), Bn254Fp6(d3, d4, z));
        EXPECT_EQ(f.mulBy034(d0, d3, d4), f * line);
    }
}

TEST_F(TowerTest, CyclotomicSquaringMatchesSquaring)
{
    // g^((p^6 - 1)(p^2 + 1)) lies in the cyclotomic subgroup.
    NatNum p = NatNum::fromBigInt(Bn254Fq::modulus());
    BigInt<8> p2 = (p * p).toBigInt<8>();
    for (int i = 0; i < 3; ++i) {
        auto a = Bn254Fp12::random(rng);
        auto g = a.conjugate() * a.inverse();
        g = g.pow(p2) * g;
        EXPECT_EQ(g.cyclotomicSquared(), g.squared());
        EXPECT_EQ(g.cyclotomicSquared().cyclotomicSquared(),
                  g.squared().squared());
    }
}

TEST_F(TowerTest, TowerLimbAccounting)
{
    EXPECT_EQ(Bn254Fp2::kLimbs, 8u); // 2 x 4 limbs
}

// --- Fp2 quadratic-residue machinery (norm/legendre/sqrt) ---

TEST_F(TowerTest, Fp2NormIsMultiplicative)
{
    for (int i = 0; i < 32; ++i) {
        auto a = Bn254Fp2::random(rng);
        auto b = Bn254Fp2::random(rng);
        EXPECT_EQ((a * b).norm(), a.norm() * b.norm());
    }
}

TEST_F(TowerTest, Fp2LegendreOfSquaresIsOne)
{
    EXPECT_EQ(Bn254Fp2::zero().legendre(), 0);
    for (int i = 0; i < 32; ++i) {
        auto a = Bn254Fp2::random(rng);
        if (a.isZero())
            continue;
        EXPECT_EQ(a.squared().legendre(), 1);
        // chi is multiplicative: chi(a^2 * b) == chi(b).
        auto b = Bn254Fp2::random(rng);
        if (!b.isZero())
            EXPECT_EQ((a.squared() * b).legendre(), b.legendre());
    }
}

TEST_F(TowerTest, Fp2SqrtRoundTrip)
{
    for (int i = 0; i < 48; ++i) {
        auto a = Bn254Fp2::random(rng);
        auto s = a.squared();
        auto r = s.sqrt();
        // sqrt returns one of the two roots.
        EXPECT_TRUE(r == a || r == -a) << "iteration " << i;
        EXPECT_EQ(r.squared(), s);
    }
    // Subfield embeddings (c1 == 0) round-trip too.
    for (int i = 0; i < 16; ++i) {
        Bn254Fp2 a(Bn254Fq::random(rng), Bn254Fq::zero());
        auto r = a.squared().sqrt();
        EXPECT_EQ(r.squared(), a.squared());
    }
}

TEST_F(TowerTest, Fp2SqrtRejectsNonResidue)
{
    // A non-residue has legendre -1; sqrt must throw rather than
    // return a wrong root.
    std::size_t tested = 0;
    for (int i = 0; i < 64 && tested < 8; ++i) {
        auto a = Bn254Fp2::random(rng);
        if (a.isZero() || a.legendre() != -1)
            continue;
        ++tested;
        EXPECT_THROW(a.sqrt(), std::domain_error);
    }
    EXPECT_GT(tested, 0u);
}

TEST_F(TowerTest, Fp2SqrtZero)
{
    EXPECT_EQ(Bn254Fp2::zero().sqrt(), Bn254Fp2::zero());
    EXPECT_EQ(Bn254Fp2::one().sqrt().squared(), Bn254Fp2::one());
}

TEST_F(TowerTest, Fp2BatchInverseMatchesSerialChain)
{
    // ff::batchInverse on Fp2 inverts the norms in Fq (the blocked
    // path from 64 elements up); every result must equal the serial
    // Fp2 chain's, zeros staying zero.
    using Fq = Bn254Fp2::Fq;
    for (std::size_t n : {0, 1, 15, 16, 17, 63, 64, 65, 1000}) {
        std::vector<Bn254Fp2> xs(n);
        for (std::size_t i = 0; i < n; ++i) {
            switch (i % 7) {
            case 3: xs[i] = Bn254Fp2(); break;
            case 5: xs[i] = Bn254Fp2(Fq::zero(), Fq::random(rng)); break;
            case 6: xs[i] = Bn254Fp2(Fq::random(rng), Fq::zero()); break;
            default: xs[i] = Bn254Fp2::random(rng);
            }
        }
        auto viaNorm = xs, serial = xs;
        batchInverse(viaNorm);
        detail::batchInverseSerial(serial);
        ASSERT_EQ(viaNorm.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(viaNorm[i], serial[i]) << "n=" << n << " i=" << i;
    }
    std::vector<Bn254Fp2> zeros(65);
    auto inv = zeros;
    batchInverse(inv);
    for (const auto &z : inv)
        EXPECT_TRUE(z.isZero());
}
