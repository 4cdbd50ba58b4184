/**
 * Tests for the testkit itself plus the differential sweeps it
 * powers. The *Sweep* tests are the slow tier (ctest -L slow); the
 * rest run in the fast tier.
 *
 * The key meta-test: a deliberately broken MSM variant (off-by-one,
 * drops the last point) must be caught by the differential runner
 * and shrunk to a repro of at most 4 pairs.
 */

#include <gtest/gtest.h>

#include "gpusim/perf_model.hh"
#include "testkit/testkit.hh"

using namespace gzkp;
using namespace gzkp::testkit;

namespace {

std::string
failureText(const FuzzReport &rep)
{
    std::string s;
    for (const auto &f : rep.failures)
        s += f.target + ": " + f.detail + " (repro: " + f.repro +
            ")\n";
    return s;
}

/** Every fuzz target but the Groth16 ones: proofs live in the slow
    sweep. */
std::vector<std::string>
targetsWithoutGroth16()
{
    std::vector<std::string> out;
    for (const FuzzTarget &t : fuzzTargets()) {
        std::string_view n = t.name;
        if (n != "groth16" && n != "proofdet")
            out.push_back(t.name);
    }
    return out;
}

} // namespace

// ---------------------------------------------------------- runner

TEST(Differential, AgreementReturnsNullopt)
{
    Differential<int, int> d("double", [](const int &x) {
        return 2 * x;
    });
    d.add("shift", [](const int &x) { return x << 1; });
    EXPECT_FALSE(d.run(0).has_value());
    EXPECT_FALSE(d.run(21).has_value());
}

TEST(Differential, ReportsDivergentVariantByName)
{
    Differential<int, int> d("double", [](const int &x) {
        return 2 * x;
    });
    d.add("good", [](const int &x) { return 2 * x; });
    d.add("breaks-past-3", [](const int &x) {
        return x > 3 ? 2 * x + 1 : 2 * x;
    });
    EXPECT_FALSE(d.run(3).has_value());
    auto div = d.run(5);
    ASSERT_TRUE(div.has_value());
    EXPECT_EQ(div->variant, "breaks-past-3");
}

TEST(Differential, CapturesVariantExceptions)
{
    Differential<int, int> d("id", [](const int &x) { return x; });
    d.add("throws", [](const int &) -> int {
        throw std::runtime_error("boom");
    });
    auto div = d.run(1);
    ASSERT_TRUE(div.has_value());
    EXPECT_EQ(div->variant, "throws");
    EXPECT_NE(div->detail.find("boom"), std::string::npos);
}

// ------------------------------------------------------- generators

TEST(Generators, SameSeedSameInstance)
{
    auto a = msmInstance<ec::Bn254G1Cfg>(17, ScalarMix::Adversarial,
                                         99);
    auto b = msmInstance<ec::Bn254G1Cfg>(17, ScalarMix::Adversarial,
                                         99);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a.points[i] == b.points[i]);
        EXPECT_TRUE(a.scalars[i] == b.scalars[i]);
    }
    auto c = msmInstance<ec::Bn254G1Cfg>(17, ScalarMix::Adversarial,
                                         100);
    bool same = true;
    for (std::size_t i = 0; i < a.size(); ++i)
        same = same && a.scalars[i] == c.scalars[i];
    EXPECT_FALSE(same);
}

TEST(Generators, KindNamesRoundTrip)
{
    for (std::size_t i = 0; i < kScalarMixCount; ++i) {
        auto k = ScalarMix(i);
        EXPECT_EQ(scalarMixFromName(name(k)), k);
    }
    EXPECT_THROW(scalarMixFromName("nope"), std::invalid_argument);
}

TEST(Generators, BiasedFieldHitsBoundaryValues)
{
    using Fr = ff::Bn254Fr;
    Rng rng(7);
    bool saw_zero = false, saw_one = false, saw_minus_one = false;
    for (int i = 0; i < 500; ++i) {
        Fr x = biasedField<Fr>(rng);
        saw_zero |= x == Fr::zero();
        saw_one |= x == Fr::one();
        saw_minus_one |= x == -Fr::one();
    }
    EXPECT_TRUE(saw_zero);
    EXPECT_TRUE(saw_one);
    EXPECT_TRUE(saw_minus_one);
}

TEST(Generators, RandomCircuitIsSatisfiable)
{
    using Fr = ff::Bn254Fr;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        auto b = randomCircuit<Fr>(seed);
        EXPECT_TRUE(b.cs().isSatisfied(b.assignment()))
            << "seed " << seed;
    }
}

// --------------------------------------------------------- shrinker

TEST(Shrink, BrokenMsmVariantIsCaughtAndShrunk)
{
    using Cfg = ec::Bn254G1Cfg;
    // A deliberately broken variant: drops the last (point, scalar)
    // pair. NOT shipped -- it exists to prove the harness catches
    // off-by-one bugs and minimizes them.
    MsmDifferential d("naive", [](const MsmIn &in) {
        return msm::msmNaive<Cfg>(in.points, in.scalars);
    });
    d.add("drops-last-pair", [](const MsmIn &in) {
        MsmIn t = in;
        if (!t.points.empty()) {
            t.points.pop_back();
            t.scalars.pop_back();
        }
        return msm::msmNaive<Cfg>(t.points, t.scalars);
    });

    FuzzReport rep;
    fuzzMsmInstance(d, /*seed=*/5, /*size=*/24, ScalarMix::Dense, rep);
    ASSERT_EQ(rep.failures.size(), 1u) << failureText(rep);
    EXPECT_EQ(rep.failures[0].target, "msm");
    EXPECT_NE(rep.failures[0].repro.find("--seed=5"),
              std::string::npos);
    EXPECT_NE(rep.failures[0].repro.find("--kind=dense"),
              std::string::npos);

    // The shrinker itself must land at <= 4 pairs (one nonzero term
    // is enough to expose a dropped pair).
    auto in = msmInstance<Cfg>(24, ScalarMix::Dense, 5);
    ASSERT_TRUE(d.run(in).has_value());
    auto shrunk = shrinkMsm<Cfg>(in, [&](const MsmIn &cand) {
        return d.run(cand).has_value();
    });
    EXPECT_LE(shrunk.size(), 4u);
    EXPECT_GE(shrunk.size(), 1u);
    EXPECT_TRUE(d.run(shrunk).has_value());
}

// --------------------------------------------- gpusim invariants

TEST(GpusimInvariants, CleanStatsPass)
{
    gpusim::KernelStats s;
    s.fieldMuls = 100;
    s.linesTouched = 10;
    s.usefulBytes = 320;
    auto dev = gpusim::DeviceConfig::v100();
    EXPECT_TRUE(gpusim::invariantViolations(s, dev).empty());
}

TEST(GpusimInvariants, ViolationsAreDetected)
{
    auto dev = gpusim::DeviceConfig::v100();

    gpusim::KernelStats bytes;
    bytes.linesTouched = 1;
    bytes.usefulBytes = 1000; // > 32 * 1
    auto v1 = gpusim::invariantViolations(bytes, dev);
    ASSERT_FALSE(v1.empty());
    EXPECT_NE(v1[0].find("usefulBytes"), std::string::npos);

    gpusim::KernelStats imb;
    imb.loadImbalanceFactor = 0.5;
    auto v2 = gpusim::invariantViolations(imb, dev);
    ASSERT_FALSE(v2.empty());
    EXPECT_NE(v2[0].find("loadImbalanceFactor"), std::string::npos);

    gpusim::KernelStats idle;
    idle.idleLaneFactor = 1.5;
    EXPECT_FALSE(gpusim::invariantViolations(idle, dev).empty());
    idle.idleLaneFactor = 0.0;
    EXPECT_FALSE(gpusim::invariantViolations(idle, dev).empty());

    gpusim::KernelStats orphan;
    orphan.usefulBytes = 8;
    orphan.linesTouched = 0;
    EXPECT_FALSE(gpusim::invariantViolations(orphan, dev).empty());
}

TEST(GpusimInvariants, StrictModeThrowsOnBadStats)
{
    auto dev = gpusim::DeviceConfig::v100();
    gpusim::KernelStats bad;
    bad.loadImbalanceFactor = 0.25;

    // The shared test main turns strict mode on for the whole suite.
    ASSERT_TRUE(gpusim::strictInvariants());
    EXPECT_THROW(gpusim::modelSeconds(bad, dev), std::logic_error);
    gpusim::KernelStats good;
    good.fieldMuls = 10;
    EXPECT_GE(gpusim::modelSeconds(good, dev), 0.0);

    // Lenient mode folds the violation into the modeled time.
    gpusim::setStrictInvariants(false);
    EXPECT_GT(gpusim::modelSeconds(bad, dev), 0.0);
    gpusim::setStrictInvariants(true);
}

// ----------------------------------------------------- fast smoke

TEST(FuzzSmoke, ShortRunFindsNoDivergence)
{
    FuzzOptions opt;
    opt.seed = 2;
    opt.iterations = 10;
    opt.maxMsmSize = 24;
    opt.only = targetsWithoutGroth16();
    auto rep = fuzzAll(opt);
    EXPECT_EQ(rep.iterations, 10u);
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

TEST(FuzzSmoke, TimeBoundStopsEarly)
{
    FuzzOptions opt;
    opt.seed = 3;
    opt.iterations = 1000000;
    opt.maxSeconds = 0.2;
    opt.maxMsmSize = 16;
    opt.only = targetsWithoutGroth16();
    auto rep = fuzzAll(opt);
    EXPECT_LT(rep.iterations, 1000000u);
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

/**
 * Every row's repro line replays that row on the same instance: the
 * line carries the row's --kind (or, for msm and ntt rows, the mix),
 * and replayInstances() picks the row back out of it. A sizeless
 * row's --size counts seeds, and a row replayed by name sweeps every
 * mix, so either way the failing instance is among the replays.
 */
TEST(FuzzTargets, EveryReproLineReplaysItsRow)
{
    FuzzOptions opt;
    opt.seed = 9;
    for (const FuzzTarget &t : fuzzTargets()) {
        for (std::uint64_t k = 0; k < 4; ++k) {
            FuzzInstance in =
                scheduledInstance(t, opt, t.phase + k * t.period);
            std::string line = reproLine(t, in);
            unsigned long long seed = 0;
            std::size_t size = 0;
            char kind[64] = {};
            ASSERT_EQ(std::sscanf(line.c_str(),
                                  "--seed=%llu --size=%zu --kind=%63s",
                                  &seed, &size, kind),
                      3)
                << line;
            bool found = false;
            for (const FuzzReplay &r : replayInstances(seed, size, kind))
                found |= r.target == &t &&
                    r.instance.seed == in.seed &&
                    r.instance.size == in.size &&
                    (t.mix == MixUse::None || r.instance.mix == in.mix);
            EXPECT_TRUE(found) << t.name << ": " << line;
        }
    }
    EXPECT_TRUE(replayInstances(1, 1, "nope").empty());
}

// ------------------------------------------------- slow sweeps

TEST(FuzzSweep, MsmVariantsAllKindsAndEdgeSizes)
{
    auto d = msmDifferential();
    FuzzReport rep;
    for (std::size_t k = 0; k < kScalarMixCount; ++k) {
        for (std::size_t n : {0, 1, 2, 3, 5, 16, 33}) {
            fuzzMsmInstance(d, deriveSeed(11, k, n), n, ScalarMix(k),
                            rep);
        }
    }
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

TEST(FuzzSweep, NttVariantsAndRoundTrips)
{
    auto d = nttDifferential();
    auto rt = nttRoundTripDifferential();
    FuzzReport rep;
    for (std::size_t log_n = 1; log_n <= 7; ++log_n) {
        for (std::size_t k = 0; k < kScalarMixCount; ++k) {
            std::uint64_t s = deriveSeed(23, log_n, k);
            fuzzNttInstance(d, s, log_n, ScalarMix(k), false, rep);
            fuzzNttInstance(d, s, log_n, ScalarMix(k), true, rep);
            fuzzNttInstance(rt, s, log_n, ScalarMix(k), false, rep);
        }
    }
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

TEST(FuzzSweep, Groth16EndToEndWithNegatives)
{
    FuzzReport rep;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        fuzzInstance(*fuzzTarget("groth16"), {seed}, rep);
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

TEST(FuzzSweep, GpusimInvariantsHoldAcrossKernels)
{
    FuzzReport rep;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        fuzzInstance(*fuzzTarget("gpusim"),
                     {seed, 1 + seed % 5,
                      ScalarMix(seed % kScalarMixCount)},
                     rep);
    }
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

/** 88 iterations reach 3 groth16 and 1 proofdet slot (i = 7, 47, 87
    and i = 23). */
TEST(FuzzSweep, LongMixedRun)
{
    FuzzOptions opt;
    opt.seed = 1;
    opt.iterations = 88;
    opt.maxMsmSize = 32;
    auto rep = fuzzAll(opt);
    EXPECT_EQ(rep.iterations, 88u);
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}
