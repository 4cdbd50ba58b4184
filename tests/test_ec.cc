/**
 * @file
 * Elliptic-curve group law tests, typed over all four curve configs
 * (PADD/PMUL semantics of paper Section 2.1).
 */

#include <gtest/gtest.h>

#include <random>

#include "ec/curves.hh"
#include "ec/fixed_base.hh"

using namespace gzkp::ec;
using namespace gzkp::ff;

template <typename Cfg>
class EcTest : public ::testing::Test
{
  protected:
    using Pt = ECPoint<Cfg>;
    using Sc = typename Cfg::Scalar;
    std::mt19937_64 rng{2024};

    Pt
    randomPoint()
    {
        return Pt::generator().mul(Sc::random(rng));
    }
};

using AllCurves = ::testing::Types<Bn254G1Cfg, Bn254G2Cfg, Bls381G1Cfg,
                                   Mnt4753G1Cfg>;
TYPED_TEST_SUITE(EcTest, AllCurves);

namespace {

/**
 * dbl-2007-bl for general a, as ECPoint::dbl() ran it on every curve
 * before the a = 0 formula: on an a = 0 curve dbl() must return the
 * same Jacobian coordinates.
 */
template <typename Cfg>
ECPoint<Cfg>
dblGeneralA(const ECPoint<Cfg> &p)
{
    using F = typename Cfg::Field;
    if (p.isZero() || p.Y.isZero())
        return ECPoint<Cfg>();
    F xx = p.X.squared();
    F yy = p.Y.squared();
    F yyyy = yy.squared();
    F zz = p.Z.squared();
    F s = ((p.X + yy).squared() - xx - yyyy).dbl();
    F m = xx + xx + xx + Cfg::a() * zz.squared();
    F x3 = m.squared() - s - s;
    F y3 = m * (s - x3) - yyyy.dbl().dbl().dbl();
    F z3 = (p.Y + p.Z).squared() - yy - zz;
    return ECPoint<Cfg>(x3, y3, z3);
}

/** Affine tangent doubling: slope (3x^2 + a) / 2y. */
template <typename Cfg>
AffinePoint<Cfg>
dblAffine(const AffinePoint<Cfg> &p)
{
    using F = typename Cfg::Field;
    F slope = (p.x.squared() + p.x.squared() + p.x.squared() + Cfg::a()) *
        p.y.dbl().inverse();
    F x3 = slope.squared() - p.x.dbl();
    return AffinePoint<Cfg>(x3, slope * (p.x - x3) - p.y);
}

} // namespace

TYPED_TEST(EcTest, DoublingMatchesAdditionAndReferences)
{
    using Pt = ECPoint<TypeParam>;
    EXPECT_EQ(TypeParam::kAZero, TypeParam::a().isZero());
    Pt id;
    EXPECT_TRUE(id.dbl().isZero());
    EXPECT_EQ(id.dbl(), id.add(id));
    for (int i = 0; i < 8; ++i) {
        Pt p = this->randomPoint();
        Pt d = p.dbl();
        EXPECT_EQ(d, p.add(p));
        EXPECT_EQ(d.toAffine(), dblAffine<TypeParam>(p.toAffine()));
        Pt ref = dblGeneralA(p);
        EXPECT_TRUE(d.X == ref.X && d.Y == ref.Y && d.Z == ref.Z)
            << TypeParam::name() << ": Jacobian coordinates moved";
    }
}

TYPED_TEST(EcTest, GeneratorOnCurve)
{
    using Pt = ECPoint<TypeParam>;
    EXPECT_TRUE(Pt::generatorAffine().onCurve());
    EXPECT_FALSE(Pt::generatorAffine().infinity);
}

TYPED_TEST(EcTest, IdentityLaws)
{
    using Pt = ECPoint<TypeParam>;
    Pt id;
    EXPECT_TRUE(id.isZero());
    auto p = this->randomPoint();
    EXPECT_EQ(p + id, p);
    EXPECT_EQ(id + p, p);
    EXPECT_EQ(id.dbl(), id);
    EXPECT_TRUE(id.toAffine().infinity);
    EXPECT_TRUE(id.toAffine().onCurve());
}

TYPED_TEST(EcTest, GroupLaws)
{
    auto p = this->randomPoint();
    auto q = this->randomPoint();
    auto r = this->randomPoint();
    EXPECT_EQ(p + q, q + p);
    EXPECT_EQ((p + q) + r, p + (q + r));
    EXPECT_EQ(p + p.negate(), ECPoint<TypeParam>());
    EXPECT_EQ(p.dbl(), p + p);
    EXPECT_EQ(p - q, p + q.negate());
}

TYPED_TEST(EcTest, ClosureOnCurve)
{
    auto p = this->randomPoint();
    auto q = this->randomPoint();
    EXPECT_TRUE((p + q).toAffine().onCurve());
    EXPECT_TRUE(p.dbl().toAffine().onCurve());
}

TYPED_TEST(EcTest, MixedAddMatchesFullAdd)
{
    auto p = this->randomPoint();
    auto q = this->randomPoint();
    EXPECT_EQ(p.addMixed(q.toAffine()), p + q);
    // Mixed add with identity operands.
    EXPECT_EQ(p.addMixed(AffinePoint<TypeParam>::identity()), p);
    ECPoint<TypeParam> id;
    EXPECT_EQ(id.addMixed(q.toAffine()), q);
    // Mixed doubling path (same point).
    EXPECT_EQ(p.addMixed(p.toAffine()), p.dbl());
    // Mixed add of inverse gives identity.
    EXPECT_TRUE(p.addMixed(p.negate().toAffine()).isZero());
}

TYPED_TEST(EcTest, ScalarMulBasics)
{
    using Pt = ECPoint<TypeParam>;
    auto p = this->randomPoint();
    EXPECT_TRUE(p.mul(std::uint64_t(0)).isZero());
    EXPECT_EQ(p.mul(std::uint64_t(1)), p);
    EXPECT_EQ(p.mul(std::uint64_t(2)), p.dbl());
    EXPECT_EQ(p.mul(std::uint64_t(5)), p + p + p + p + p);
    Pt id;
    EXPECT_TRUE(id.mul(std::uint64_t(12345)).isZero());
}

/** True when the curve's generator has order exactly Fr's modulus.
 * MNT4753-sim has an unknown group order (DESIGN.md), so scalar
 * wrap-around identities only hold on the production curves. */
template <typename Cfg>
constexpr bool kOrderR = !std::is_same_v<Cfg, Mnt4753G1Cfg>;

TYPED_TEST(EcTest, ScalarMulDistributes)
{
    using Sc = typename TypeParam::Scalar;
    auto p = this->randomPoint();
    auto a = Sc::random(this->rng);
    auto b = Sc::random(this->rng);
    if constexpr (kOrderR<TypeParam>) {
        // (a + b) P == aP + bP -- scalar arithmetic wraps mod r.
        EXPECT_EQ(p.mul(a + b), p.mul(a) + p.mul(b));
        EXPECT_EQ(p.mul(a * b), p.mul(a).mul(b));
    } else {
        // Without order-r, only raw integer identities hold.
        auto ar = a.toBigInt();
        EXPECT_EQ(p.mul(ar) + p, p + p.mul(ar));
    }
}

TYPED_TEST(EcTest, ProjectiveEqualityIsScaleInvariant)
{
    auto p = this->randomPoint();
    // Rescale coordinates by lambda: same point.
    auto lam = TypeParam::Field::random(this->rng);
    if (lam.isZero())
        lam = TypeParam::Field::one();
    ECPoint<TypeParam> q(p.X * lam.squared(), p.Y * lam.squared() * lam,
                         p.Z * lam);
    EXPECT_EQ(p, q);
    EXPECT_EQ(p.toAffine(), q.toAffine());
}

TYPED_TEST(EcTest, BatchToAffineMatchesSingle)
{
    std::vector<ECPoint<TypeParam>> pts;
    for (int i = 0; i < 9; ++i)
        pts.push_back(this->randomPoint());
    pts.push_back(ECPoint<TypeParam>()); // identity in the middle
    pts.push_back(this->randomPoint());
    auto aff = batchToAffine<TypeParam>(pts);
    ASSERT_EQ(aff.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(aff[i], pts[i].toAffine());
}

TYPED_TEST(EcTest, FixedBaseMatchesDoubleAndAdd)
{
    using Sc = typename TypeParam::Scalar;
    auto base = this->randomPoint();
    FixedBaseMul<TypeParam> fb(base);
    for (int i = 0; i < 5; ++i) {
        auto s = Sc::random(this->rng);
        EXPECT_EQ(fb.mul(s), base.mul(s));
    }
    EXPECT_TRUE(fb.mul(Sc::zero()).isZero());
    EXPECT_EQ(fb.mul(Sc::one()), base);
    if constexpr (kOrderR<TypeParam>)
        EXPECT_EQ(fb.mul(-Sc::one()), base.negate());
}

// --- order checks on the production curves ---

TEST(EcOrder, SubgroupOrders)
{
    EXPECT_TRUE(Bn254G1::generator().mul(Bn254Fr::modulus()).isZero());
    EXPECT_TRUE(Bn254G2::generator().mul(Bn254Fr::modulus()).isZero());
    EXPECT_TRUE(Bls381G1::generator().mul(Bls381Fr::modulus()).isZero());
}

TEST(EcOrder, ScalarWrapAround)
{
    // (r - 1) P + P == identity on order-r subgroups.
    auto p = Bn254G1::generator().mul(std::uint64_t(7));
    auto m = p.mul(-Bn254Fr::one());
    EXPECT_TRUE((m + p).isZero());
}
