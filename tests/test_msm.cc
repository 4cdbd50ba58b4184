/**
 * @file
 * MSM tests: every variant (serial Pippenger, Straus, bellperson-
 * like, GZKP in both checkpoint modes) against the naive PMUL-sum
 * oracle, over dense, sparse, and adversarial scalar vectors; the
 * workload-management and memory-model behaviours of Section 4; and
 * the GZKP engine's signed-digit recoding at its corners.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <string>

#include "ec/curves.hh"
#include "ec/glv.hh"
#include "msm/msm_bellperson.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "msm/msm_straus.hh"
#include "testkit/fuzz.hh"
#include "testkit/generators.hh"

using namespace gzkp;
using namespace gzkp::ec;
using namespace gzkp::msm;

using Cfg = Bn254G1Cfg;
using Fr = ff::Bn254Fr;
using Pt = Bn254G1;

namespace {

// Instances come from the shared testkit generators (the historical
// per-file makeInstance helper moved to src/testkit/generators.hh).
using Instance = testkit::MsmInstance<Cfg>;

Instance
makeInstance(std::size_t n, testkit::ScalarMix kind,
             std::uint64_t seed)
{
    return testkit::msmInstance<Cfg>(n, kind, seed);
}

/** Expect the whole differential registry to agree on `in`. */
void
expectAllVariantsAgree(const Instance &in, const char *what)
{
    static const auto d = testkit::msmDifferential();
    auto div = d.run(in);
    EXPECT_FALSE(div.has_value())
        << what << ": " << (div ? div->variant + " " + div->detail
                                : std::string());
}

} // namespace

class MsmVariantTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
  protected:
    Instance
    instance() const
    {
        auto [n, kind] = GetParam();
        return makeInstance(n, testkit::ScalarMix(kind),
                            17 * n + kind);
    }
};

TEST_P(MsmVariantTest, SerialPippengerMatchesNaive)
{
    auto in = instance();
    auto expect = msmNaive<Cfg>(in.points, in.scalars);
    EXPECT_EQ(PippengerSerial<Cfg>().run(in.points, in.scalars), expect);
    EXPECT_EQ(PippengerSerial<Cfg>(13).run(in.points, in.scalars),
              expect); // non-default window
}

TEST_P(MsmVariantTest, StrausMatchesNaive)
{
    auto in = instance();
    auto expect = msmNaive<Cfg>(in.points, in.scalars);
    EXPECT_EQ(StrausMsm<Cfg>(4).run(in.points, in.scalars), expect);
}

TEST_P(MsmVariantTest, BellpersonMatchesNaive)
{
    auto in = instance();
    auto expect = msmNaive<Cfg>(in.points, in.scalars);
    EXPECT_EQ(BellpersonMsm<Cfg>(9, 3).run(in.points, in.scalars),
              expect);
}

TEST_P(MsmVariantTest, GzkpHornerMatchesNaive)
{
    auto in = instance();
    auto expect = msmNaive<Cfg>(in.points, in.scalars);
    GzkpMsm<Cfg>::Options o;
    o.k = 8;
    for (std::size_t m : {1u, 3u, 7u}) {
        o.checkpointM = m;
        EXPECT_EQ(GzkpMsm<Cfg>(o).run(in.points, in.scalars), expect)
            << "M=" << m;
    }
}

TEST_P(MsmVariantTest, GzkpPerPointMatchesNaive)
{
    auto in = instance();
    auto expect = msmNaive<Cfg>(in.points, in.scalars);
    GzkpMsm<Cfg>::Options o;
    o.k = 8;
    o.mode = CheckpointMode::PerPoint;
    o.checkpointM = 4;
    EXPECT_EQ(GzkpMsm<Cfg>(o).run(in.points, in.scalars), expect);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndKinds, MsmVariantTest,
    ::testing::Combine(::testing::Values(1, 2, 31, 100),
                       ::testing::Values(0, 1, 2, 3, 4)));

// Edge cases, swept across *every* registered variant via the
// differential registry (testkit::msmDifferential).

TEST(MsmEdge, EmptyInput)
{
    Instance in; // n = 0
    EXPECT_TRUE(msmNaive<Cfg>(in.points, in.scalars).isZero());
    expectAllVariantsAgree(in, "n=0");
}

TEST(MsmEdge, SingleElement)
{
    for (const Fr &s : {Fr::zero(), Fr::one(), -Fr::one(),
                        Fr::fromBigInt(Fr::params().r1)}) {
        Instance in;
        in.points = {Pt::generator().mul(7).toAffine()};
        in.scalars = {s};
        EXPECT_EQ(msmNaive<Cfg>(in.points, in.scalars),
                  Pt::fromAffine(in.points[0]).mul(s));
        expectAllVariantsAgree(in, "n=1");
    }
}

TEST(MsmEdge, AllZeroScalars)
{
    auto in = makeInstance(20, testkit::ScalarMix::Dense, 7);
    for (auto &s : in.scalars)
        s = Fr::zero();
    EXPECT_TRUE(GzkpMsm<Cfg>().run(in.points, in.scalars).isZero());
    EXPECT_TRUE(PippengerSerial<Cfg>().run(in.points, in.scalars)
                    .isZero());
    expectAllVariantsAgree(in, "all-zero scalars");
}

TEST(MsmEdge, AllIdenticalPoints)
{
    auto in = makeInstance(24, testkit::ScalarMix::Dense, 13);
    auto p = Pt::generator().mul(11).toAffine();
    for (auto &pt : in.points)
        pt = p;
    // sum(s_i * P) == (sum s_i) * P
    Fr total = Fr::zero();
    for (const auto &s : in.scalars)
        total += s;
    EXPECT_EQ(msmNaive<Cfg>(in.points, in.scalars),
              Pt::fromAffine(p).mul(total));
    expectAllVariantsAgree(in, "all-identical points");
}

TEST(MsmEdge, BoundaryScalars)
{
    // All scalars r-1 == -1: the MSM is -(sum of points). Every
    // window digit is maximal, stressing carry/merge paths.
    auto in = makeInstance(16, testkit::ScalarMix::Dense, 19);
    for (auto &s : in.scalars)
        s = -Fr::one();
    Pt sum = Pt::identity();
    for (const auto &p : in.points)
        sum += Pt::fromAffine(p);
    EXPECT_EQ(msmNaive<Cfg>(in.points, in.scalars), sum.negate());
    expectAllVariantsAgree(in, "all r-1 scalars");

    // Scalars equal to R mod r (the Montgomery radix, reduced).
    for (auto &s : in.scalars)
        s = Fr::fromBigInt(Fr::params().r1);
    expectAllVariantsAgree(in, "reduced-radix scalars");
}

TEST(Msm, PreprocessedReuseAcrossScalarVectors)
{
    // The proving key is fixed; preprocess once, run many (S4.1).
    auto in = makeInstance(40, testkit::ScalarMix::Dense, 8);
    GzkpMsm<Cfg>::Options o;
    o.k = 8;
    o.checkpointM = 2;
    GzkpMsm<Cfg> engine(o);
    auto pre = engine.preprocess(in.points);
    for (int round = 0; round < 3; ++round) {
        auto in2 = makeInstance(40, testkit::ScalarMix::Sparse01, 90 + round);
        in2.points = in.points;
        EXPECT_EQ(engine.run(pre, in2.scalars),
                  msmNaive<Cfg>(in2.points, in2.scalars));
    }
}

TEST(Msm, PreprocessedPointsAreWeighted)
{
    auto in = makeInstance(5, testkit::ScalarMix::Dense, 9);
    GzkpMsm<Cfg>::Options o;
    o.k = 8;
    o.checkpointM = 3;
    auto pre = GzkpMsm<Cfg>(o).preprocess(in.points);
    // pre[c*nb()+j] == 2^(c*M*k) * B_j (B_j = P_j for j < n; a GLV
    // table appends phi(P_j) at j = n + i with the same weighting).
    ASSERT_GE(pre.checkpoints, 2u);
    for (std::size_t i = 0; i < 5; ++i) {
        auto expect = Pt::fromAffine(in.points[i]);
        for (std::size_t d = 0; d < o.checkpointM * o.k; ++d)
            expect = expect.dbl();
        EXPECT_EQ(Pt::fromAffine(pre.pre[pre.nb() + i].affine()), expect);
    }
}

TEST(Msm, WindowDigitExtraction)
{
    auto s = ff::BigInt<4>::fromHex("0xabcdef");
    EXPECT_EQ(windowDigit(s, 0, 8), 0xefu);
    EXPECT_EQ(windowDigit(s, 1, 8), 0xcdu);
    EXPECT_EQ(windowDigit(s, 2, 8), 0xabu);
    EXPECT_EQ(windowDigit(s, 3, 8), 0u);
    EXPECT_EQ(windowCount(255, 16), 16u);
    EXPECT_EQ(windowCount(753, 16), 48u);
}

TEST(Msm, BucketHistogramSparseProfile)
{
    std::mt19937_64 rng(10);
    std::vector<Fr> scalars;
    for (int i = 0; i < 3000; ++i) {
        int c = rng() % 10;
        if (c < 3)
            scalars.push_back(Fr::zero());
        else if (c < 6)
            scalars.push_back(Fr::one());
        else
            scalars.push_back(Fr::random(rng));
    }
    auto hist = bucketLoadHistogram(scalars, 8);
    EXPECT_EQ(hist[0], 0u); // bucket 0 excluded by definition
    // All the 1-scalars land in bucket 1 (their only nonzero digit).
    EXPECT_GT(hist[1], hist[2] * 2);
    // Total entries = nonzero digits only.
    auto total = std::accumulate(hist.begin(), hist.end(),
                                 std::uint64_t(0));
    EXPECT_GT(total, 0u);
}

TEST(Msm, TaskGroupsOrderedHeaviestFirst)
{
    std::vector<std::uint64_t> loads = {5, 100, 0, 7, 90, 3, 0, 50,
                                        45, 2, 1, 60};
    auto groups = groupTasksByLoad(loads, 4);
    ASSERT_FALSE(groups.empty());
    for (std::size_t i = 0; i + 1 < groups.size(); ++i)
        EXPECT_GE(groups[i].minLoad, groups[i + 1].maxLoad);
    std::size_t total_tasks = 0;
    for (auto &g : groups) {
        EXPECT_LE(g.minLoad, g.maxLoad);
        total_tasks += g.tasks;
    }
    EXPECT_EQ(total_tasks, 10u); // nonzero loads only
}

TEST(Msm, TaskGroupsEmptyInput)
{
    EXPECT_TRUE(groupTasksByLoad({}, 4).empty());
    EXPECT_TRUE(groupTasksByLoad({0, 0, 0}, 4).empty());
}

TEST(Msm, LoadBalancingReducesModeledImbalance)
{
    std::mt19937_64 rng(11);
    std::vector<Fr> scalars;
    for (int i = 0; i < 5000; ++i)
        scalars.push_back((rng() % 2) ? Fr::one() : Fr::random(rng));
    auto dev = gpusim::DeviceConfig::v100();
    GzkpMsm<Cfg>::Options with_lb, no_lb;
    with_lb.k = no_lb.k = 12;
    with_lb.checkpointM = no_lb.checkpointM = 1;
    no_lb.loadBalance = false;
    auto s_lb = GzkpMsm<Cfg>(with_lb).gpuStats(scalars.size(), dev,
                                               &scalars);
    auto s_no = GzkpMsm<Cfg>(no_lb).gpuStats(scalars.size(), dev,
                                             &scalars);
    EXPECT_LT(s_lb.loadImbalanceFactor, s_no.loadImbalanceFactor);
    EXPECT_GE(s_lb.loadImbalanceFactor, 1.0);
}

TEST(Msm, StrausMemoryExplodesGzkpAdapts)
{
    auto dev = gpusim::DeviceConfig::v100();
    StrausMsm<Mnt4753G1Cfg> straus;
    GzkpMsm<Mnt4753G1Cfg> gzkp;
    // Paper Figure 9: MINA OOMs above 2^22; GZKP keeps fitting.
    EXPECT_TRUE(straus.fits(1u << 22, dev));
    EXPECT_FALSE(straus.fits(1u << 24, dev));
    EXPECT_LE(gzkp.memoryBytes(1u << 24), dev.globalMemBytes);
    EXPECT_LE(gzkp.memoryBytes(1u << 26), dev.globalMemBytes);
}

TEST(Msm, AutoIntervalGrowsWithScale)
{
    auto dev = gpusim::DeviceConfig::v100();
    auto m_small =
        GzkpMsm<Mnt4753G1Cfg>::autoInterval(1u << 16, 16, dev);
    auto m_large =
        GzkpMsm<Mnt4753G1Cfg>::autoInterval(1u << 26, 16, dev);
    EXPECT_EQ(m_small, 1u); // full precompute fits at small scales
    EXPECT_GT(m_large, m_small);
}

TEST(Msm, ProfiledWindowIsReasonable)
{
    auto dev = gpusim::DeviceConfig::v100();
    auto k = GzkpMsm<Cfg>::profileWindow(1u << 20, dev);
    EXPECT_GE(k, 6u);
    EXPECT_LE(k, 18u);
    // Larger instances never profile to a smaller window.
    auto k_small = GzkpMsm<Cfg>::profileWindow(1u << 14, dev);
    EXPECT_LE(k_small, k);
}

TEST(Msm, BellpersonImbalanceWorseOnSparseScalars)
{
    std::mt19937_64 rng(12);
    auto dev = gpusim::DeviceConfig::v100();
    std::vector<Fr> dense, sparse;
    for (int i = 0; i < 4000; ++i) {
        dense.push_back(Fr::random(rng));
        sparse.push_back((rng() % 4) ? ((rng() % 2) ? Fr::zero()
                                                    : Fr::one())
                                     : Fr::random(rng));
    }
    BellpersonMsm<Cfg> bp(10, 8);
    EXPECT_GT(bp.imbalanceFromScalars(sparse, dev),
              bp.imbalanceFromScalars(dense, dev));
}

TEST(Msm, GzkpBeatsBellpersonInModel)
{
    auto dev = gpusim::DeviceConfig::v100();
    std::size_t n = 1u << 20;
    BellpersonMsm<Bls381G1Cfg> bp;
    GzkpMsm<Bls381G1Cfg> gz;
    double tb = gpusim::modelSeconds(bp.gpuStats(n, dev), dev,
                                     gpusim::Backend::IntOnly);
    double tg = gpusim::modelSeconds(gz.gpuStats(n, dev), dev,
                                     gpusim::Backend::FpuLib);
    EXPECT_GT(tb / tg, 3.0);
    EXPECT_LT(tb / tg, 20.0);
}

// ------------------------------------------------ signed-digit buckets

namespace {

/**
 * The signed digits of `s` over `windows` windows of k bits, checked
 * to reconstruct s exactly: sum_t d_t * 2^(t*k) == s, every digit in
 * (-2^(k-1), 2^(k-1)], and no carry out of the top window.
 */
template <std::size_t N>
void
expectSignedDigitsReconstruct(const ff::BigInt<N> &s, std::size_t windows,
                              std::size_t k, const std::string &what)
{
    using Wide = ff::BigInt<N + 1>;
    Wide pos, neg;
    std::uint64_t carry = 0;
    const std::uint64_t half = std::uint64_t(1) << (k - 1);
    for (std::size_t t = 0; t < windows; ++t) {
        SignedDigit d = signedDigit(windowDigit(s, t, k), carry, k);
        ASSERT_TRUE(d.neg ? d.mag < half : d.mag <= half)
            << what << " window " << t;
        Wide term = Wide::fromUint64(d.mag).shl(t * k);
        if (d.neg)
            Wide::add(neg, term, neg);
        else
            Wide::add(pos, term, pos);
    }
    EXPECT_EQ(carry, 0u) << what;
    Wide diff;
    Wide::sub(pos, neg, diff);
    EXPECT_EQ(diff, s.template resize<N + 1>()) << what;
}

/**
 * Scalars that stress the recoding in every window: 0, 1 and r - 1;
 * each window's digit exactly 2^(k-1) (the positive edge, no carry),
 * 2^(k-1) + 1 (the first negative digit, carrying), and 2^k - 1 (a
 * run of all-ones windows, carrying through every window); the same
 * patterns offset by 2^(k-1) - 1 so the carry meets an edge digit;
 * then random fill.
 */
template <typename S>
std::vector<S>
signedDigitCorners(std::size_t k, std::size_t random, std::uint64_t seed)
{
    std::vector<S> out = {S::zero(), S::one(), -S::one()};
    std::uint64_t half = std::uint64_t(1) << (k - 1);
    S base = S::fromUint64(std::uint64_t(1) << k);
    // Whole windows that stay below the modulus.
    std::size_t reps = (S::bits() - 1) / k;
    for (std::uint64_t digit :
         {half, half + 1, (std::uint64_t(1) << k) - 1}) {
        S x = S::zero();
        for (std::size_t t = 0; t < reps; ++t)
            x = x * base + S::fromUint64(digit);
        out.push_back(x);
        out.push_back(x + S::fromUint64(half - 1));
        out.push_back(S::fromUint64(digit));
    }
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < random; ++i)
        out.push_back(S::random(rng));
    return out;
}

} // namespace

TEST(SignedDigits, WindowCountGainsOneOnlyWhenWidthIsMultipleOfK)
{
    for (std::size_t k = 2; k <= 18; ++k) {
        for (std::size_t bits :
             {ff::Bn254Fr::bits(), ff::Bls381Fr::bits(),
              ff::Mnt4753Fr::bits(),
              ec::Glv<Bn254G1Cfg>::kScalarBits}) {
            EXPECT_EQ(signedWindowCount(bits, k),
                      windowCount(bits, k) + (bits % k == 0 ? 1 : 0))
                << "bits=" << bits << " k=" << k;
        }
    }
    // The cases that gain a window at k in [2, 18].
    EXPECT_EQ(ff::Bn254Fr::bits() % 2, 0u);
    EXPECT_EQ(ff::Bls381Fr::bits() % 15, 0u);
    EXPECT_EQ(ff::Bls381Fr::bits() % 17, 0u);
    EXPECT_EQ(ff::Mnt4753Fr::bits() % 3, 0u);
}

TEST(SignedDigits, RecodingReconstructsScalar)
{
    using G = ec::Glv<Bn254G1Cfg>;
    for (std::size_t k = 2; k <= 18; ++k) {
        std::string kk = "k=" + std::to_string(k);
        // Full-width scalars over the signed window count.
        for (const Fr &s : signedDigitCorners<Fr>(k, 16, 300 + k))
            expectSignedDigitsReconstruct(
                s.toBigInt(), signedWindowCount(Fr::bits(), k), k,
                "bn254 " + kk);
        for (const auto &s :
             signedDigitCorners<ff::Bls381Fr>(k, 8, 400 + k))
            expectSignedDigitsReconstruct(
                s.toBigInt(),
                signedWindowCount(ff::Bls381Fr::bits(), k), k,
                "bls12_381 " + kk);
        for (const auto &s :
             signedDigitCorners<ff::Mnt4753Fr>(k, 4, 500 + k))
            expectSignedDigitsReconstruct(
                s.toBigInt(),
                signedWindowCount(ff::Mnt4753Fr::bits(), k), k,
                "mnt4753 " + kk);
        // GLV halves over the table's ceil(132 / k) windows, and the
        // largest magnitudes the 2^130 bound allows.
        std::size_t glvWindows = windowCount(G::kScalarBits, k);
        for (const Fr &s : signedDigitCorners<Fr>(k, 16, 600 + k)) {
            auto d = G::decompose(s);
            expectSignedDigitsReconstruct(d.k1, glvWindows, k,
                                          "glv k1 " + kk);
            expectSignedDigitsReconstruct(d.k2, glvWindows, k,
                                          "glv k2 " + kk);
        }
        Fr::Repr top;
        top.setBit(130);
        Fr::Repr::sub(top, Fr::Repr::one(), top); // 2^130 - 1
        expectSignedDigitsReconstruct(top, glvWindows, k,
                                      "glv 2^130-1 " + kk);
    }
}

namespace {

/**
 * GzkpMsm on the signed-digit corner scalars against serial Pippenger,
 * across both checkpoint modes, both accumulators (the affine drain
 * forced on at these small sizes), M in {1, 2, windows} and threads
 * {1, 4}.
 */
template <typename C>
void
expectGzkpCornersMatchSerial(std::size_t k, GlvMode glv,
                             std::size_t random)
{
    using S = typename C::Scalar;
    auto scalars = signedDigitCorners<S>(k, random, 700 + k);
    auto points = testkit::msmInstance<C>(scalars.size(),
                                          testkit::ScalarMix::Dense,
                                          800 + k)
                      .points;
    auto expect =
        PippengerSerial<C>(0, 1, Accumulator::Jacobian, GlvMode::Off)
            .run(points, scalars);
    bool useGlv = ec::Glv<C>::kEnabled && glv == GlvMode::On;
    std::size_t windows = useGlv
        ? windowCount(ec::Glv<C>::kScalarBits, k)
        : signedWindowCount(S::bits(), k);
    struct Path {
        CheckpointMode mode;
        Accumulator acc;
    };
    for (std::size_t m : {std::size_t(1), std::size_t(2), windows}) {
        typename GzkpMsm<C>::Options o;
        o.k = k;
        o.checkpointM = m;
        o.glv = glv;
        o.minDrainOccupancy = 0;
        auto pp = GzkpMsm<C>(o).preprocess(points);
        EXPECT_EQ(pp.windows, windows);
        for (Path path :
             {Path{CheckpointMode::Horner, Accumulator::Jacobian},
              Path{CheckpointMode::Horner, Accumulator::BatchAffine},
              Path{CheckpointMode::PerPoint, Accumulator::Jacobian}}) {
            o.mode = path.mode;
            o.accumulator = path.acc;
            for (std::size_t threads : {1, 4}) {
                o.threads = threads;
                EXPECT_EQ(GzkpMsm<C>(o).run(pp, scalars), expect)
                    << C::name() << " k=" << k << " glv=" << useGlv
                    << " mode=" << int(path.mode)
                    << " acc=" << int(path.acc) << " M=" << m
                    << " threads=" << threads;
            }
        }
    }
}

} // namespace

// Every width that is a multiple of k gains the recoding's spare
// window: BN254 Fr at k = 2, BLS12-381 Fr at 3, 5, 15 and 17,
// MNT4753-sim Fr at 3.
TEST(SignedDigits, GzkpCornersMatchSerialOnGainedWindowBn254)
{
    expectGzkpCornersMatchSerial<Bn254G1Cfg>(2, GlvMode::Off, 2);
}

TEST(SignedDigits, GzkpCornersMatchSerialOnGainedWindowBls381)
{
    for (std::size_t k : {3, 5, 15, 17})
        expectGzkpCornersMatchSerial<Bls381G1Cfg>(k, GlvMode::Off, 2);
}

TEST(SignedDigits, GzkpCornersMatchSerialOnGainedWindowMnt4753)
{
    expectGzkpCornersMatchSerial<Mnt4753G1Cfg>(3, GlvMode::Off, 0);
}

TEST(SignedDigits, GzkpCornersMatchSerialAtServiceWindows)
{
    // The service's windows (k = 10 and 13) with GLV on, the same
    // windows without GLV, and the smallest window under GLV.
    for (std::size_t k : {2, 10, 13})
        expectGzkpCornersMatchSerial<Bn254G1Cfg>(k, GlvMode::On, 4);
    for (std::size_t k : {10, 13})
        expectGzkpCornersMatchSerial<Bn254G1Cfg>(k, GlvMode::Off, 4);
    expectGzkpCornersMatchSerial<Bn254G2Cfg>(10, GlvMode::On, 2);
}

// ------------------------------------------------ identity-free tables

static_assert(sizeof(GzkpMsm<Bn254G1Cfg>::Record) == 64);
static_assert(sizeof(GzkpMsm<Bn254G2Cfg>::Record) == 128);
static_assert(alignof(GzkpMsm<Bn254G1Cfg>::Record) == 64);
static_assert(alignof(GzkpMsm<Bn254G2Cfg>::Record) == 64);

// An entry holds 2^48 records and 2^15 deltas; the service's largest
// table (sapling's h, 180,202 records, one delta) is far inside.
static_assert(GzkpMsm<Cfg>::entryFits(std::uint64_t(1) << 48, 1 << 15));
static_assert(!GzkpMsm<Cfg>::entryFits((std::uint64_t(1) << 48) + 1, 1));
static_assert(!GzkpMsm<Cfg>::entryFits(1, (1 << 15) + 1));

namespace {

/**
 * GzkpMsm on a query whose every `stride`-th base is the identity
 * (every base at stride 1) against serial Pippenger, across both
 * checkpoint modes, both accumulators (the affine drain forced on),
 * M in {1, 2, windows} and threads {1, 4}. The table is the one built
 * from the query without its identity bases, and the affine drain
 * stages the same adds on both.
 */
template <typename C>
void
expectIdentityFreeTableMatchesSerial(GlvMode glv, std::size_t stride)
{
    using S = typename C::Scalar;
    const std::size_t k = 6;
    auto in = testkit::msmInstance<C>(36, testkit::ScalarMix::Dense,
                                      900 + stride);
    std::vector<AffinePoint<C>> livePoints;
    std::vector<S> liveScalars;
    for (std::size_t i = 0; i < in.size(); ++i) {
        if (i % stride == 0) {
            in.points[i] = AffinePoint<C>::identity();
        } else {
            livePoints.push_back(in.points[i]);
            liveScalars.push_back(in.scalars[i]);
        }
    }
    auto expect =
        PippengerSerial<C>(0, 1, Accumulator::Jacobian, GlvMode::Off)
            .run(in.points, in.scalars);
    bool useGlv = ec::Glv<C>::kEnabled && glv == GlvMode::On;
    std::size_t windows = useGlv
        ? windowCount(ec::Glv<C>::kScalarBits, k)
        : signedWindowCount(S::bits(), k);
    struct Path {
        CheckpointMode mode;
        Accumulator acc;
    };
    for (std::size_t m : {std::size_t(1), std::size_t(2), windows}) {
        typename GzkpMsm<C>::Options o;
        o.k = k;
        o.checkpointM = m;
        o.glv = glv;
        o.minDrainOccupancy = 0;
        auto pp = GzkpMsm<C>(o).preprocess(in.points);
        auto packed = GzkpMsm<C>(o).preprocess(livePoints);
        ASSERT_EQ(pp.n, in.size());
        ASSERT_EQ(pp.live, livePoints.size());
        EXPECT_TRUE(pp.pre == packed.pre);
        for (Path path :
             {Path{CheckpointMode::Horner, Accumulator::Jacobian},
              Path{CheckpointMode::Horner, Accumulator::BatchAffine},
              Path{CheckpointMode::PerPoint, Accumulator::Jacobian}}) {
            o.mode = path.mode;
            o.accumulator = path.acc;
            for (std::size_t threads : {1, 4}) {
                o.threads = threads;
                GzkpMsm<C> engine(o), reference(o);
                EXPECT_EQ(engine.run(pp, in.scalars), expect)
                    << C::name() << " stride=" << stride
                    << " glv=" << useGlv << " mode=" << int(path.mode)
                    << " acc=" << int(path.acc) << " M=" << m
                    << " threads=" << threads;
                reference.run(packed, liveScalars);
                EXPECT_EQ(engine.lastDrainStats().affineAdds,
                          reference.lastDrainStats().affineAdds);
                if (path.acc == Accumulator::BatchAffine && stride > 1) {
                    EXPECT_GT(engine.lastDrainStats().affineAdds, 0u);
                }
            }
        }
    }
}

} // namespace

TEST(IdentityFreeTable, EveryThirdBaseIdentityMatchesSerial)
{
    for (GlvMode glv : {GlvMode::On, GlvMode::Off}) {
        expectIdentityFreeTableMatchesSerial<Bn254G1Cfg>(glv, 3);
        expectIdentityFreeTableMatchesSerial<Bn254G2Cfg>(glv, 3);
    }
}

TEST(IdentityFreeTable, AllIdentityQueryReturnsIdentity)
{
    for (GlvMode glv : {GlvMode::On, GlvMode::Off}) {
        expectIdentityFreeTableMatchesSerial<Bn254G1Cfg>(glv, 1);
        expectIdentityFreeTableMatchesSerial<Bn254G2Cfg>(glv, 1);
    }
}
