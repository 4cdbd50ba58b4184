/**
 * @file
 * Prime-field tests, typed over every field GZKP-CPP supports
 * (BN254, BLS12-381, MNT4753-sim; scalar and base fields each),
 * including the differential check of Fp's branch-free kernels
 * against the generic oracle.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "ff/field_tags.hh"
#include "ff/simd/mont_scalar.hh"
#include "field_pool.hh"

using namespace gzkp::ff;

template <typename F>
class FpTest : public ::testing::Test
{
  protected:
    std::mt19937_64 rng{12345};
};

using AllFields = ::testing::Types<Bn254Fr, Bn254Fq, Bls381Fr, Bls381Fq,
                                   Mnt4753Fr, Mnt4753Fq>;
TYPED_TEST_SUITE(FpTest, AllFields);

TYPED_TEST(FpTest, AdditiveGroup)
{
    using F = TypeParam;
    for (int i = 0; i < 20; ++i) {
        F a = F::random(this->rng), b = F::random(this->rng);
        F c = F::random(this->rng);
        EXPECT_EQ(a + b, b + a);
        EXPECT_EQ((a + b) + c, a + (b + c));
        EXPECT_EQ(a + F::zero(), a);
        EXPECT_EQ(a + (-a), F::zero());
        EXPECT_EQ(a - b, a + (-b));
    }
}

TYPED_TEST(FpTest, MultiplicativeGroup)
{
    using F = TypeParam;
    for (int i = 0; i < 20; ++i) {
        F a = F::random(this->rng), b = F::random(this->rng);
        F c = F::random(this->rng);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * F::one(), a);
        if (!a.isZero())
            EXPECT_EQ(a * a.inverse(), F::one());
        EXPECT_EQ(a * (b + c), a * b + a * c);
    }
}

TYPED_TEST(FpTest, MontgomeryRoundTrip)
{
    using F = TypeParam;
    for (int i = 0; i < 20; ++i) {
        F a = F::random(this->rng);
        EXPECT_EQ(F::fromBigInt(a.toBigInt()), a);
    }
    EXPECT_TRUE(F::zero().toBigInt().isZero());
    EXPECT_EQ(F::one().toBigInt(), F::Repr::one());
    EXPECT_EQ(F::fromUint64(7) + F::fromUint64(8), F::fromUint64(15));
}

TYPED_TEST(FpTest, SquareAndDouble)
{
    using F = TypeParam;
    F a = F::random(this->rng);
    EXPECT_EQ(a.squared(), a * a);
    EXPECT_EQ(a.dbl(), a + a);
}

TYPED_TEST(FpTest, PowLaws)
{
    using F = TypeParam;
    F a = F::random(this->rng);
    EXPECT_EQ(a.pow(std::uint64_t(0)), F::one());
    EXPECT_EQ(a.pow(std::uint64_t(1)), a);
    EXPECT_EQ(a.pow(std::uint64_t(5)), a * a * a * a * a);
    // Fermat: a^(p-1) = 1.
    typename F::Repr pm1;
    F::Repr::sub(F::modulus(), F::Repr::one(), pm1);
    if (!a.isZero())
        EXPECT_EQ(a.pow(pm1), F::one());
}

TYPED_TEST(FpTest, ZeroEdgeCases)
{
    using F = TypeParam;
    EXPECT_EQ(F::zero() * F::random(this->rng), F::zero());
    EXPECT_EQ(-F::zero(), F::zero());
    EXPECT_EQ(F::zero().inverse(), F::zero()); // 0^(p-2) = 0
    EXPECT_EQ(F::zero().legendre(), 0);
}

TYPED_TEST(FpTest, LegendreMultiplicativity)
{
    using F = TypeParam;
    F a = F::random(this->rng), b = F::random(this->rng);
    if (!a.isZero() && !b.isZero())
        EXPECT_EQ((a * b).legendre(), a.legendre() * b.legendre());
    // Squares are residues.
    EXPECT_EQ(a.squared().legendre(), a.isZero() ? 0 : 1);
}

TYPED_TEST(FpTest, RootOfUnityOrders)
{
    using F = TypeParam;
    std::size_t s = F::twoAdicity();
    ASSERT_GE(s, 1u);
    std::size_t k = std::min<std::size_t>(s, 8);
    F w = F::rootOfUnity(k);
    // w has order exactly 2^k.
    F t = w;
    for (std::size_t i = 0; i + 1 < k; ++i)
        t = t.squared();
    EXPECT_EQ(t, -F::one()); // order-2 element is -1
    EXPECT_EQ(t.squared(), F::one());
    EXPECT_THROW(F::rootOfUnity(s + 1), std::invalid_argument);
}

TYPED_TEST(FpTest, BatchInverseMatchesSingle)
{
    using F = TypeParam;
    std::vector<F> xs;
    for (int i = 0; i < 17; ++i)
        xs.push_back(F::random(this->rng));
    xs[3] = F::zero(); // zeros must pass through
    auto expect = xs;
    for (auto &x : expect)
        x = x.inverse();
    expect[3] = F::zero();
    batchInverse(xs);
    EXPECT_EQ(xs.size(), expect.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_EQ(xs[i], expect[i]);
}

// The skip-and-preserve zero contract of ff::batchInverse: zeros stay
// exactly zero, and their presence anywhere in the vector must not
// corrupt any nonzero entry. The batch-affine MSM scheduler and
// ec::batchToAffine both depend on this.
TYPED_TEST(FpTest, BatchInverseZeroContract)
{
    using F = TypeParam;

    // Alternating zero / nonzero, including zeros at both ends.
    std::vector<F> xs;
    for (int i = 0; i < 21; ++i)
        xs.push_back(i % 2 ? F::random(this->rng) : F::zero());
    auto orig = xs;
    batchInverse(xs);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (orig[i].isZero())
            EXPECT_TRUE(xs[i].isZero()) << i;
        else
            EXPECT_EQ(xs[i] * orig[i], F::one()) << i;
    }

    // All-zero and empty vectors are no-ops.
    std::vector<F> zeros(5, F::zero());
    batchInverse(zeros);
    for (const F &z : zeros)
        EXPECT_TRUE(z.isZero());
    std::vector<F> empty;
    batchInverse(empty);
    EXPECT_TRUE(empty.empty());

    // Single-element vectors: the degenerate prefix chain.
    std::vector<F> one{F::random(this->rng)};
    F orig_one = one[0];
    batchInverse(one);
    EXPECT_EQ(one[0] * orig_one, F::one());
    std::vector<F> one_zero{F::zero()};
    batchInverse(one_zero);
    EXPECT_TRUE(one_zero[0].isZero());
}

TYPED_TEST(FpTest, RandomIsReduced)
{
    using F = TypeParam;
    for (int i = 0; i < 50; ++i) {
        F a = F::random(this->rng);
        EXPECT_LT(a.raw(), F::modulus());
    }
}

// --- Field-specific known-answer tests ---

TEST(FpKnown, Bn254Constants)
{
    EXPECT_EQ(Bn254Fr::bits(), 254u);
    EXPECT_EQ(Bn254Fr::twoAdicity(), 28u);
    EXPECT_EQ(Bn254Fr::params().generator, 5u);
    EXPECT_EQ(Bn254Fq::bits(), 254u);
}

TEST(FpKnown, Bls381Constants)
{
    EXPECT_EQ(Bls381Fr::bits(), 255u);
    EXPECT_EQ(Bls381Fr::twoAdicity(), 32u);
    EXPECT_EQ(Bls381Fq::bits(), 381u);
    EXPECT_EQ(Bls381Fq::kLimbs, 6u);
}

TEST(FpKnown, Mnt4753SimConstants)
{
    EXPECT_EQ(Mnt4753Fr::bits(), 753u);
    EXPECT_EQ(Mnt4753Fr::twoAdicity(), 30u);
    EXPECT_EQ(Mnt4753Fq::bits(), 753u);
    // q = 3 mod 4 so point sampling can use simple square roots.
    EXPECT_EQ(Mnt4753Fq::modulus().limbs[0] % 4, 3u);
}

TEST(FpKnown, SqrtOnQFields)
{
    std::mt19937_64 rng(7);
    auto a = Bn254Fq::random(rng);
    auto sq = a.squared();
    auto r = sq.sqrt();
    EXPECT_EQ(r.squared(), sq);
    auto b = Mnt4753Fq::random(rng).squared();
    EXPECT_EQ(b.sqrt().squared(), b);
    EXPECT_EQ(Bn254Fq::zero().sqrt(), Bn254Fq::zero());
}

TEST(FpKnown, SqrtRejectsNonResidue)
{
    // The stored generator is a quadratic non-residue by definition.
    auto g = Bn254Fq::fromUint64(Bn254Fq::params().generator);
    EXPECT_EQ(g.legendre(), -1);
    EXPECT_THROW(g.sqrt(), std::domain_error);
}

TYPED_TEST(FpTest, FromBigIntRejectsNonCanonical)
{
    // Documented precondition turned runtime check: a value >= p is
    // a caller bug the field must reject, not silently mis-reduce.
    using F = TypeParam;
    using Repr = typename F::Repr;
    EXPECT_THROW(F::fromBigInt(F::modulus()), std::invalid_argument);
    Repr sum;
    auto carry = Repr::add(F::modulus(), F::modulus(), sum);
    if (!carry) // 2p fits the limb count: must also be rejected
        EXPECT_THROW(F::fromBigInt(sum), std::invalid_argument);
    // The maximal canonical value p-1 still round-trips.
    Repr pm1;
    Repr::sub(F::modulus(), Repr::one(), pm1);
    EXPECT_EQ(F::fromBigInt(pm1).toBigInt(), pm1);
}

// --- Fp's kernels against the generic oracle ---
//
// Fp's operators run the branch-free kernels of ff/fp_kernels.hh on
// compile-time constants. The oracle is the generic CIOS loop
// (simd::montMulLimbs) and modAdd / modSub on raw limbs, driven by the
// run-time constants of makeMontParams. Each result is a canonical
// residue, so the two must agree limb for limb.

template <typename F>
class FpKernels : public ::testing::Test
{
};
TYPED_TEST_SUITE(FpKernels, AllFields);

TYPED_TEST(FpKernels, ConstantsMatchMakeMontParams)
{
    using F = TypeParam;
    const auto &pp = F::params();
    EXPECT_EQ(F::kModulus, pp.modulus);
    EXPECT_EQ(F::kInv, pp.inv);
    EXPECT_EQ(F::kR1, pp.r1);
    EXPECT_EQ(F::kR2, pp.r2);
    EXPECT_EQ(F::bits(), pp.bits);
    EXPECT_EQ(F::one().raw(), pp.r1);
    // Independently of how both were derived: inv * p = -1 mod 2^64,
    // and the oracle's Montgomery reduction maps R^2 to R and R to 1.
    EXPECT_EQ(F::kInv * F::kModulus.limbs[0], ~std::uint64_t(0));
    auto redc = [&](const typename F::Repr &x) {
        typename F::Repr r, one = F::Repr::one();
        gzkp::ff::simd::montMulLimbs<F::kLimbs>(
            r.limbs.data(), x.limbs.data(), one.limbs.data(),
            F::kModulus.limbs.data(), F::kInv);
        return r;
    };
    EXPECT_EQ(redc(F::kR2), F::kR1);
    EXPECT_EQ(redc(F::kR1), F::Repr::one());
}

namespace {

/** Compare every kernel on (a, b) with the oracle; false on the
 *  first mismatch, naming the op. */
template <typename F>
::testing::AssertionResult
kernelsMatchOracle(const F &a, const F &b)
{
    using Repr = typename F::Repr;
    const auto &pp = F::params();
    const Repr &p = pp.modulus;
    auto mont = [&](const Repr &x, const Repr &y) {
        Repr r;
        gzkp::ff::simd::montMulLimbs<F::kLimbs>(
            r.limbs.data(), x.limbs.data(), y.limbs.data(),
            p.limbs.data(), pp.inv);
        return r;
    };
    const Repr &x = a.raw(), &y = b.raw();
    struct Row {
        const char *op;
        Repr got, want;
    };
    const Row rows[] = {
        {"*", (a * b).raw(), mont(x, y)},
        {"squared", a.squared().raw(), mont(x, x)},
        {"+", (a + b).raw(), modAdd(x, y, p)},
        {"-", (a - b).raw(), modSub(x, y, p)},
        {"unary -", (-a).raw(), modSub(Repr::zero(), x, p)},
        {"dbl", a.dbl().raw(), modAdd(x, x, p)},
    };
    for (const Row &r : rows)
        if (r.got != r.want)
            return ::testing::AssertionFailure()
                   << r.op << " on " << x.toHex() << ", " << y.toHex()
                   << ": kernel " << r.got.toHex() << ", oracle "
                   << r.want.toHex();
    return ::testing::AssertionSuccess();
}

} // namespace

TYPED_TEST(FpKernels, BoundaryPairsMatchOracle)
{
    using F = TypeParam;
    auto pool = gzkp::testpool::boundaryPool<F>();
    for (const F &a : pool)
        for (const F &b : pool)
            ASSERT_TRUE(kernelsMatchOracle(a, b));
}

TYPED_TEST(FpKernels, RandomPairsMatchOracle)
{
    using F = TypeParam;
    std::mt19937_64 rng(99);
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(kernelsMatchOracle(F::random(rng), F::random(rng)));
}

// a + b == p exactly: the sum is 0 after the final subtraction, and a
// sum one short of p is kept as is.
TYPED_TEST(FpKernels, SumsLandingOnModulusMatchOracle)
{
    using F = TypeParam;
    using Repr = typename F::Repr;
    std::mt19937_64 rng(7);
    auto pool = gzkp::testpool::boundaryPool<F>();
    for (int i = 0; i < 100; ++i)
        pool.push_back(F::random(rng));
    for (const F &a : pool) {
        if (a.isZero())
            continue; // p itself is not a field element
        Repr rest;
        Repr::sub(F::modulus(), a.raw(), rest); // p - a, in [1, p)
        F b = F::fromRaw(rest);
        ASSERT_TRUE((a + b).isZero());
        ASSERT_TRUE(kernelsMatchOracle(a, b));
        Repr short_by_one;
        Repr::sub(rest, Repr::one(), short_by_one); // a + b == p - 1
        ASSERT_TRUE(kernelsMatchOracle(a, F::fromRaw(short_by_one)));
    }
}
