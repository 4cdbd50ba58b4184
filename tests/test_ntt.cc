/**
 * @file
 * NTT tests: the naive-DFT oracle, the iterative reference, and the
 * two GPU-model variants (BG shuffled, GZKP shuffle-less) must agree
 * bit-for-bit; plus algebraic property sweeps and model statistics.
 */

#include <gtest/gtest.h>

#include <random>

#include "ff/field_tags.hh"
#include "ntt/ntt_cpu.hh"
#include "ntt/ntt_gpu.hh"

using namespace gzkp;
using namespace gzkp::ff;
using namespace gzkp::ntt;

using Fr = Bn254Fr;

namespace {

std::vector<Fr>
randomVec(std::size_t n, std::mt19937_64 &rng)
{
    std::vector<Fr> v(n);
    for (auto &x : v)
        x = Fr::random(rng);
    return v;
}

} // namespace

TEST(NttDomain, TwiddleTableProperties)
{
    Domain<Fr> dom(6);
    EXPECT_EQ(dom.size(), 64u);
    EXPECT_EQ(dom.twiddleCount(), 63u); // N - 1 unique values
    // twiddle(iter, j) = omega^(j * N / 2^(iter+1)).
    for (std::size_t iter = 0; iter < 6; ++iter) {
        for (std::size_t j = 0; j < (1u << iter); ++j) {
            std::size_t e = j * (64 >> (iter + 1));
            EXPECT_EQ(dom.twiddle(iter, j), dom.omega().pow(e));
            EXPECT_EQ(dom.twiddleInv(iter, j), dom.omegaInv().pow(e));
        }
    }
}

TEST(NttDomain, OmegaHasExactOrder)
{
    Domain<Fr> dom(10);
    Fr w = dom.omega();
    Fr t = w;
    for (int i = 0; i < 9; ++i)
        t = t.squared();
    EXPECT_NE(t, Fr::one());  // order > 2^9
    EXPECT_EQ(t.squared(), Fr::one());
    EXPECT_EQ(dom.omega() * dom.omegaInv(), Fr::one());
    EXPECT_EQ(Fr::fromUint64(1024) * dom.nInv(), Fr::one());
}

TEST(NttDomain, RejectsOversizedDomain)
{
    EXPECT_THROW(Domain<Fr>(Fr::twoAdicity() + 1),
                 std::invalid_argument);
}

TEST(NttDomain, BitReverse)
{
    EXPECT_EQ(bitReverse(0b001, 3), 0b100u);
    EXPECT_EQ(bitReverse(0b110, 3), 0b011u);
    EXPECT_EQ(bitReverse(0, 8), 0u);
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_EQ(bitReverse(bitReverse(i, 5), 5), i);
}

TEST(NttReference, MatchesNaiveDft)
{
    std::mt19937_64 rng(1);
    for (std::size_t logn : {1u, 2u, 4u, 7u}) {
        Domain<Fr> dom(logn);
        auto coeffs = randomVec(dom.size(), rng);
        auto expect = naiveDft(dom, coeffs);
        auto got = coeffs;
        nttInPlace(dom, got);
        EXPECT_EQ(got, expect) << "logn=" << logn;
    }
}

TEST(NttReference, InverseRoundTrip)
{
    std::mt19937_64 rng(2);
    Domain<Fr> dom(9);
    auto v = randomVec(dom.size(), rng);
    auto w = v;
    nttInPlace(dom, w, false);
    nttInPlace(dom, w, true);
    EXPECT_EQ(w, v);
}

TEST(NttReference, Linearity)
{
    std::mt19937_64 rng(3);
    Domain<Fr> dom(7);
    auto a = randomVec(dom.size(), rng);
    auto b = randomVec(dom.size(), rng);
    Fr c = Fr::random(rng);
    // NTT(c*a + b) == c*NTT(a) + NTT(b).
    std::vector<Fr> mix(dom.size());
    for (std::size_t i = 0; i < dom.size(); ++i)
        mix[i] = c * a[i] + b[i];
    nttInPlace(dom, mix);
    nttInPlace(dom, a);
    nttInPlace(dom, b);
    for (std::size_t i = 0; i < dom.size(); ++i)
        EXPECT_EQ(mix[i], c * a[i] + b[i]);
}

TEST(NttReference, ConvolutionTheorem)
{
    // Pointwise product of NTTs is the cyclic convolution.
    std::mt19937_64 rng(4);
    Domain<Fr> dom(5);
    std::size_t n = dom.size();
    auto a = randomVec(n, rng);
    auto b = randomVec(n, rng);
    std::vector<Fr> conv(n, Fr::zero());
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            conv[(i + j) % n] += a[i] * b[j];
    auto fa = a, fb = b;
    nttInPlace(dom, fa);
    nttInPlace(dom, fb);
    for (std::size_t i = 0; i < n; ++i)
        fa[i] *= fb[i];
    nttInPlace(dom, fa, true);
    EXPECT_EQ(fa, conv);
}

TEST(NttReference, CosetScaleInverts)
{
    std::mt19937_64 rng(5);
    Domain<Fr> dom(6);
    auto v = randomVec(dom.size(), rng);
    auto w = v;
    cosetScale(w, dom.cosetGen());
    cosetScale(w, dom.cosetGenInv());
    EXPECT_EQ(w, v);
}

TEST(NttReference, CosetScaleMatchesPowerChain)
{
    // Element i times g^i, at sizes around the power block (256).
    std::mt19937_64 rng(6);
    Fr g = Fr::random(rng);
    for (std::size_t n : {0, 1, 2, 3, 255, 256, 257, 700, 8192}) {
        auto v = randomVec(n, rng);
        auto w = v;
        cosetScale(w, g);
        Fr gi = Fr::one();
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(w[i], v[i] * gi) << "n=" << n << " i=" << i;
            gi *= g;
        }
    }
}

// --- Parameterized equivalence sweep over sizes and variants ---

class NttVariantTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(NttVariantTest, ShuffledMatchesReference)
{
    std::size_t logn = GetParam();
    std::mt19937_64 rng(100 + logn);
    Domain<Fr> dom(logn);
    auto v = randomVec(dom.size(), rng);
    auto expect = v;
    nttInPlace(dom, expect);
    ShuffledNtt<Fr> bg;
    auto got = v;
    bg.run(dom, got);
    EXPECT_EQ(got, expect);
    // Inverse path too.
    bg.run(dom, got, true);
    EXPECT_EQ(got, v);
}

TEST_P(NttVariantTest, GzkpMatchesReference)
{
    std::size_t logn = GetParam();
    std::mt19937_64 rng(200 + logn);
    Domain<Fr> dom(logn);
    auto v = randomVec(dom.size(), rng);
    auto expect = v;
    nttInPlace(dom, expect);
    GzkpNtt<Fr> gz;
    auto got = v;
    gz.run(dom, got);
    EXPECT_EQ(got, expect);
    gz.run(dom, got, true);
    EXPECT_EQ(got, v);
}

TEST_P(NttVariantTest, GzkpWithNonDefaultParams)
{
    std::size_t logn = GetParam();
    std::mt19937_64 rng(300 + logn);
    Domain<Fr> dom(logn);
    auto v = randomVec(dom.size(), rng);
    auto expect = v;
    nttInPlace(dom, expect);
    for (std::size_t b : {2u, 3u, 5u}) {
        for (std::size_t g : {1u, 2u, 8u}) {
            GzkpNtt<Fr> gz(b, g);
            auto got = v;
            gz.run(dom, got);
            EXPECT_EQ(got, expect) << "B=" << b << " G=" << g;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NttVariantTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12));

TEST(NttVariants, WideFieldEquivalence)
{
    // 753-bit limb paths are exercised too.
    std::mt19937_64 rng(42);
    Domain<Mnt4753Fr> dom(8);
    std::vector<Mnt4753Fr> v(dom.size());
    for (auto &x : v)
        x = Mnt4753Fr::random(rng);
    auto expect = v;
    nttInPlace(dom, expect);
    GzkpNtt<Mnt4753Fr> gz;
    ShuffledNtt<Mnt4753Fr> bg;
    auto a = v, b = v;
    gz.run(dom, a);
    bg.run(dom, b);
    EXPECT_EQ(a, expect);
    EXPECT_EQ(b, expect);
}

// --- Model statistics (the paper's Section 3 claims in numbers) ---

TEST(NttStats, GzkpTouchesFewerLinesThanShuffled)
{
    auto dev = gpusim::DeviceConfig::v100();
    ShuffledNtt<Bls381Fr> bg;
    GzkpNtt<Bls381Fr> gz;
    auto sb = bg.stats(18, dev);
    auto sg = gz.stats(18, dev);
    // GZKP eliminates the shuffle stages entirely...
    EXPECT_EQ(sg.shuffle.linesTouched, 0u);
    EXPECT_GT(sb.shuffle.linesTouched, 0u);
    // ...and moves fewer global lines overall.
    EXPECT_LT(sg.total().linesTouched, sb.total().linesTouched);
}

TEST(NttStats, SameButterflyWork)
{
    auto dev = gpusim::DeviceConfig::v100();
    ShuffledNtt<Bls381Fr> bg;
    GzkpNtt<Bls381Fr> gz;
    auto sb = bg.stats(16, dev);
    auto sg = gz.stats(16, dev);
    EXPECT_DOUBLE_EQ(sb.compute.fieldMuls, sg.compute.fieldMuls);
    // N/2 * log N butterflies.
    EXPECT_DOUBLE_EQ(sg.compute.fieldMuls, (1 << 15) * 16.0);
}

TEST(NttStats, GzkpKeepsWarpsFull)
{
    auto dev = gpusim::DeviceConfig::v100();
    GzkpNtt<Bls381Fr> gz;
    // 2^18 is the paper's pathological case for BG block division.
    auto sg = gz.stats(18, dev);
    EXPECT_DOUBLE_EQ(sg.compute.idleLaneFactor, 1.0);
    ShuffledNtt<Bls381Fr> bg;
    auto sb = bg.stats(18, dev);
    EXPECT_LT(sb.compute.idleLaneFactor, 0.5);
}

TEST(NttStats, ModeledSpeedupInPaperRange)
{
    auto dev = gpusim::DeviceConfig::v100();
    ShuffledNtt<Bls381Fr> bg;
    GzkpNtt<Bls381Fr> gz;
    for (std::size_t logn : {18u, 22u}) {
        double tb = ntt::nttModelSeconds(bg.stats(logn, dev), dev, gpusim::Backend::IntOnly);
        double tg = ntt::nttModelSeconds(gz.stats(logn, dev), dev, gpusim::Backend::FpuLib);
        double speedup = tb / tg;
        EXPECT_GT(speedup, 1.5) << "logn=" << logn;
        EXPECT_LT(speedup, 25.0) << "logn=" << logn;
    }
}

TEST(NttStats, BatchPlanCoversAllIterations)
{
    auto plan = makeBatches(22, 8);
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan[0].startIter, 0u);
    EXPECT_EQ(plan[2].startIter, 16u);
    EXPECT_EQ(plan[2].iters, 6u);
    std::size_t total = 0;
    for (auto &b : plan)
        total += b.iters;
    EXPECT_EQ(total, 22u);
}

TEST(NttStats, GroupBaseEnumeratesDisjointGroups)
{
    // For s0=2, bb=2, n=16: groups of 4 with stride 4.
    std::vector<bool> seen(16, false);
    for (std::size_t u = 0; u < 4; ++u) {
        std::size_t base = groupBase(u, 2, 2);
        for (std::size_t j = 0; j < 4; ++j) {
            std::size_t e = base + j * 4;
            ASSERT_LT(e, 16u);
            EXPECT_FALSE(seen[e]);
            seen[e] = true;
        }
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(NttStats, TracedBytesMatchFirstPrinciples)
{
    // The representative-block trace, scaled to the kernel, must
    // reproduce the exact byte totals a direct count gives: per
    // batch, one load + one store of all N elements plus a half-pass
    // of twiddles => 2.5 * N * elemBytes.
    auto dev = gpusim::DeviceConfig::v100();
    for (std::size_t logn : {12u, 16u, 18u}) {
        GzkpNtt<Bls381Fr> gz;
        auto st = gz.stats(logn, dev);
        std::size_t batches = st.compute.numLaunches;
        double expect = 2.5 * double(std::size_t(1) << logn) *
            Bls381Fr::kLimbs * 8.0 * double(batches);
        EXPECT_NEAR(double(st.compute.usefulBytes), expect,
                    expect * 1e-9)
            << "logn=" << logn;
        // With full-line chunked access, moved bytes == useful bytes.
        EXPECT_EQ(st.compute.linesTouched * dev.l2LineBytes,
                  st.compute.usefulBytes);
    }
}

TEST(NttStats, ShuffleTracedBytesMatchFirstPrinciples)
{
    // BG shuffle stage: strided read (25% line utilisation at large
    // strides) plus contiguous write of all N elements per shuffle.
    auto dev = gpusim::DeviceConfig::v100();
    ShuffledNtt<Bls381Fr> bg;
    std::size_t logn = 18;
    auto st = bg.stats(logn, dev);
    std::size_t shuffles = st.shuffle.numLaunches;
    double n = double(std::size_t(1) << logn);
    double elem = Bls381Fr::kLimbs * 8.0;
    EXPECT_NEAR(double(st.shuffle.usefulBytes),
                2.0 * n * elem * double(shuffles), n);
    // Moved >= useful: the strided side over-fetches lines.
    EXPECT_GT(st.shuffle.linesTouched * dev.l2LineBytes,
              st.shuffle.usefulBytes * 14 / 10);
}

TEST(NttStats, LibsnarkBaselineCountsRedundantOmegas)
{
    LibsnarkStyleNtt<Mnt4753Fr> with_recompute(true);
    LibsnarkStyleNtt<Mnt4753Fr> precomputed(false);
    auto a = with_recompute.stats(20);
    auto b = precomputed.stats(20);
    EXPECT_GT(a.fieldMuls, b.fieldMuls * 2.5);
    EXPECT_EQ(a.limbs, 12u);
}
