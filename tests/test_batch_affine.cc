/**
 * @file
 * Batch-affine scheduler and GLV decomposition tests: the scheduler's
 * collision/doubling/cancellation handling against a plain Jacobian
 * reference, the GLV split's algebraic identities on random and
 * boundary scalars (G1 and G2) and its agreement with the previous
 * Fr-arithmetic decomposition, the GLV table layout against a table
 * that doubles both halves, the engine cross-product (every engine at
 * every accumulator x GLV combination, every thread count, G1 and G2)
 * against the naive oracle, and byte-identical Groth16 proofs under
 * every accumulator x GLV pair.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ec/curves.hh"
#include "ec/glv.hh"
#include "faultsim/faultsim.hh"
#include "msm/batch_affine.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "runtime/runtime.hh"
#include "testkit/fuzz.hh"
#include "testkit/generators.hh"
#include "zkp/serialize.hh"

#include "strategy_policies.hh"

using namespace gzkp;
using namespace gzkp::ec;
using namespace gzkp::msm;

using Cfg = Bn254G1Cfg;
using Fr = ff::Bn254Fr;
using Pt = Bn254G1;
using Aff = AffinePoint<Cfg>;
using G = Glv<Bn254G1Cfg>;
using G2Cfg = Bn254G2Cfg;

namespace {

std::vector<Aff>
randomAffine(std::size_t n, std::uint64_t seed)
{
    auto in = testkit::msmInstance<Cfg>(n, testkit::ScalarMix::Dense,
                                       seed);
    return in.points;
}

/**
 * Glv::decompose as it was before the 4x5-limb quotients: 8x8-limb
 * quotient products and the residuals in Fr. The current decompose()
 * must return the same halves and signs.
 */
G::Decomposed
decomposeReference(const Fr &k)
{
    using Repr = Fr::Repr;
    using Wide = ff::BigInt<8>;
    const auto &p = G::params();
    Wide kw = k.toBigInt().resize<8>();
    Repr n1 = Wide::mulWide(kw, p.g2.resize<8>()).shr(384).resize<4>();
    Repr n2 = Wide::mulWide(kw, p.g1.resize<8>()).shr(384).resize<4>();
    auto f = [](const Repr &x) { return Fr::fromBigInt(x); };
    Fr k1 = k + f(n1) * f(p.a1) - f(n2) * f(p.a2);
    Fr k2 = f(n1) * f(p.b1) - f(n2) * f(p.b2);
    auto toSigned = [](const Fr &v, Repr &mag, bool &neg) {
        Repr repr = v.toBigInt();
        neg = repr.numBits() > G::kScalarBits;
        if (neg)
            Repr::sub(Fr::modulus(), repr, mag);
        else
            mag = repr;
    };
    G::Decomposed d;
    toSigned(k1, d.k1, d.neg1);
    toSigned(k2, d.k2, d.neg2);
    return d;
}

/**
 * A GLV table built as GzkpMsm built it before deriving the phi half:
 * all 2n chains [P, phi(P)] doubled, one batch affine conversion per
 * block.
 */
template <typename C>
std::vector<AffinePoint<C>>
referenceGlvTable(const std::vector<AffinePoint<C>> &points,
                  std::size_t blocks, std::size_t doublings)
{
    std::vector<ECPoint<C>> cur;
    for (const auto &p : points)
        cur.push_back(ECPoint<C>::fromAffine(p));
    for (const auto &p : points)
        cur.push_back(ECPoint<C>::fromAffine(Glv<C>::endo(p)));
    std::vector<AffinePoint<C>> pre;
    for (std::size_t c = 0; c < blocks; ++c) {
        if (c != 0)
            for (auto &q : cur)
                for (std::size_t d = 0; d < doublings; ++d)
                    q = q.dbl();
        auto aff = batchToAffine<C>(cur);
        pre.insert(pre.end(), aff.begin(), aff.end());
    }
    return pre;
}

/**
 * Every block of a GLV table is [B, phi(B)] over the live bases, and
 * the table equals referenceGlvTable() with its identity entries
 * removed, entry for entry.
 */
template <typename C>
void
expectGlvTableLayout(const std::vector<AffinePoint<C>> &points,
                     std::size_t threads)
{
    typename GzkpMsm<C>::Options o;
    o.k = 5;
    o.checkpointM = 2; // 14 blocks of 10 doublings
    o.threads = threads;
    auto pp = GzkpMsm<C>(o).preprocess(points);
    ASSERT_TRUE(pp.glv);
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < points.size(); ++i)
        if (!points[i].infinity)
            live.push_back(i);
    ASSERT_EQ(pp.n, points.size());
    ASSERT_EQ(pp.live, live.size());
    for (std::size_t i = 0; i < pp.live; ++i)
        EXPECT_EQ(pp.base(i), live[i]);
    std::size_t n = pp.live, nb = pp.nb();
    ASSERT_EQ(pp.pre.size(), pp.checkpoints * nb);
    for (std::size_t c = 0; c < pp.checkpoints; ++c)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(pp.pre[c * nb + n + j].affine(),
                      Glv<C>::endo(pp.pre[c * nb + j].affine()))
                << C::name() << " block " << c << " entry " << j;
    std::vector<AffinePoint<C>> ref;
    for (const auto &p : referenceGlvTable<C>(points, pp.checkpoints,
                                              pp.m * pp.k))
        if (!p.infinity)
            ref.push_back(p);
    ASSERT_EQ(ref.size(), pp.pre.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const auto &a = pp.pre[i];
        const auto &b = ref[i];
        EXPECT_TRUE(a.x == b.x && a.y == b.y)
            << C::name() << " entry " << i << " threads=" << threads;
    }
}

} // namespace

// ------------------------------------------------------- the scheduler

TEST(BatchAffineScheduler, MatchesJacobianOnRandomFeed)
{
    // More slots than kBatch so the automatic in-feed flush fires
    // (with fewer slots a round can never stage kBatch adds and only
    // the explicit flush resolves it -- covered by the tests below).
    constexpr std::size_t kSlots = 512;
    auto pts = randomAffine(4096, 7);
    BatchAffineAccumulator<Cfg> acc(kSlots);
    std::vector<Pt> ref(kSlots, Pt::identity());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        std::size_t slot = (i * 2654435761u) % kSlots;
        acc.add(slot, pts[i]);
        ref[slot] = ref[slot].addMixed(pts[i]);
    }
    acc.flush();
    for (std::size_t s = 0; s < kSlots; ++s)
        EXPECT_EQ(acc.result(s), ref[s]) << "slot " << s;
    // Slot fills (first add, or the add after a doubling cleared the
    // slot) stage nothing; everything else is staged or collides.
    EXPECT_GE(acc.affineAdds(), pts.size() - kSlots - acc.collisions() -
                                    2 * acc.doublings());
    // One shared inversion per staged batch (+1 for the tail flush).
    EXPECT_LE(acc.inversions(),
              acc.affineAdds() / BatchAffineAccumulator<Cfg>::kBatch + 1);
    EXPECT_GE(acc.inversions(), 2u); // the in-feed flush really fired
}

TEST(BatchAffineScheduler, DoublingFallsBackToSideAccumulator)
{
    auto pts = randomAffine(1, 11);
    BatchAffineAccumulator<Cfg> acc(1);
    acc.add(0, pts[0]);
    acc.add(0, pts[0]); // x1 == x2, y1 == y2: the chord would be 0/0
    acc.flush();
    EXPECT_EQ(acc.result(0), Pt::fromAffine(pts[0]).dbl());
    EXPECT_EQ(acc.doublings(), 1u);
}

TEST(BatchAffineScheduler, CancellationAnnihilatesPair)
{
    auto pts = randomAffine(2, 13);
    BatchAffineAccumulator<Cfg> acc(1);
    acc.add(0, pts[0]);
    acc.add(0, pts[0].negate());
    acc.flush();
    EXPECT_TRUE(acc.result(0).isZero());
    acc.add(0, pts[1]); // the slot must be reusable afterwards
    acc.flush();
    EXPECT_EQ(acc.result(0), Pt::fromAffine(pts[1]));
}

TEST(BatchAffineScheduler, SameRoundCollisionGoesToSideSum)
{
    auto pts = randomAffine(3, 17);
    BatchAffineAccumulator<Cfg> acc(1);
    acc.add(0, pts[0]); // fills the empty slot
    acc.add(0, pts[1]); // staged: claims the slot for this round
    acc.add(0, pts[2]); // same round: must detour via the side sum
    acc.flush();
    EXPECT_EQ(acc.collisions(), 1u);
    Pt expect = Pt::fromAffine(pts[0]).addMixed(pts[1]).addMixed(pts[2]);
    EXPECT_EQ(acc.result(0), expect);
}

TEST(BatchAffineScheduler, IdentityInputsAreNoOps)
{
    BatchAffineAccumulator<Cfg> acc(2);
    acc.add(0, Aff::identity());
    acc.flush();
    EXPECT_TRUE(acc.result(0).isZero());
    EXPECT_EQ(acc.affineAdds(), 0u);
}

TEST(BatchAffineScheduler, SmallRoundsNeverCostMoreThanJacobian)
{
    // The 2^14 single-thread regression (BENCH_msm_hotpath.json):
    // per-window drain tails paid a full shared inversion for a
    // handful of staged adds, making batch-affine *slower* than the
    // Jacobian path at small n. The small-round side routing
    // (kMinAffineRound) must keep the modeled multiplication cost at
    // or below the all-Jacobian cost of the same add sequence for
    // every feed size -- especially the ones whose final round is too
    // small to amortize an inversion.
    constexpr std::size_t kSlots = 128;
    for (std::size_t npts : {24, 150, 200, 640, 1000}) {
        auto pts = randomAffine(npts, 103 + npts);
        BatchAffineAccumulator<Cfg> acc(kSlots);
        std::vector<Pt> ref(kSlots, Pt::identity());
        for (std::size_t i = 0; i < pts.size(); ++i) {
            std::size_t slot = (i * 2654435761u) % kSlots;
            acc.add(slot, pts[i]);
            ref[slot] = ref[slot].addMixed(pts[i]);
        }
        acc.flush();
        for (std::size_t s = 0; s < kSlots; ++s)
            EXPECT_EQ(acc.result(s), ref[s])
                << "npts=" << npts << " slot " << s;
        EXPECT_LE(acc.modeledMulCost(), acc.jacobianMulCost())
            << "npts=" << npts << " affineAdds=" << acc.affineAdds()
            << " sideRouted=" << acc.sideRouted()
            << " inversions=" << acc.inversions();
    }
}

TEST(BatchAffineScheduler, GzkpDrainStaysOnChordPathAcrossRounds)
{
    // The other half of the 2^14 single-thread regression
    // (BENCH_msm_hotpath.json, gzkp engine): the accumulator's slot
    // epoch only advances on flush(), and the drain's in-feed
    // threshold is its round size, so a drain that does not flush at
    // every round boundary leaves all slots claimed after round one
    // and silently degrades every later add into a Jacobian side add
    // -- batch affine pays its scheduling overhead and then does
    // Jacobian work anyway. Pin the drain shape with the engine's
    // counters: per-round flushes mean many shared inversions (well
    // above one per task group), zero collisions (round-robin across
    // buckets touches each slot at most once per round), and chord
    // adds dominating the side-routed tail. Under a once-per-group
    // flush this test sees collisions on the order of the entry
    // count and exactly one inversion per group.
    // The bench's shape, 2^14 points at k=13: slot occupancy is
    // nb/2^(k-1) (~8 GLV-doubled points per signed bucket-delta
    // slot), so most adds are chords; anything much smaller degrades
    // to slot fills and stages nothing.
    auto in = testkit::msmInstance<Cfg>(16384,
                                        testkit::ScalarMix::Dense, 61);
    typename GzkpMsm<Cfg>::Options o;
    o.k = 13; // 4096 signed buckets dealt into 4 groups of 1024
    o.checkpointM = windowCount(Fr::bits(), o.k);
    o.mode = CheckpointMode::Horner;
    o.accumulator = Accumulator::BatchAffine;
    o.glv = GlvMode::On;
    o.threads = 1;
    o.minDrainOccupancy = 0; // force the affine drain
    GzkpMsm<Cfg> engine(o);
    auto expect =
        PippengerSerial<Cfg>(0, 1, Accumulator::Jacobian, GlvMode::Off)
            .run(in.points, in.scalars);
    EXPECT_EQ(engine.run(in.points, in.scalars), expect);

    auto st = engine.lastDrainStats();
    EXPECT_GT(st.affineAdds, 0u);
    EXPECT_GT(st.inversions, runtime::kMaxChunks);
    EXPECT_EQ(st.collisions, 0u);
    EXPECT_GT(st.affineAdds, st.sideRouted);
}

TEST(BatchAffineScheduler, GzkpLowOccupancyRoutesDrainToJacobian)
{
    // The hot-path bench's shape (GLV on, k = 13, M = 20, one thread)
    // at 2^12: about 2 adds per signed bucket-delta slot, the first
    // of which is a plain slot fill, so only about half the entries
    // can ride the shared inversion while every entry pays the
    // staging copies -- measured no faster than the Jacobian Horner
    // walk. The default occupancy threshold must route this shape to
    // the Jacobian drain outright (all drain counters stay zero)
    // while producing the identical result.
    auto in = testkit::msmInstance<Cfg>(4096,
                                        testkit::ScalarMix::Dense, 67);
    typename GzkpMsm<Cfg>::Options o;
    o.k = 13;
    o.checkpointM = windowCount(Fr::bits(), o.k);
    o.mode = CheckpointMode::Horner;
    o.accumulator = Accumulator::BatchAffine;
    o.glv = GlvMode::On;
    o.threads = 1;
    GzkpMsm<Cfg> engine(o);
    auto expect =
        PippengerSerial<Cfg>(0, 1, Accumulator::Jacobian, GlvMode::Off)
            .run(in.points, in.scalars);
    EXPECT_EQ(engine.run(in.points, in.scalars), expect);

    auto st = engine.lastDrainStats();
    EXPECT_EQ(st.affineAdds, 0u);
    EXPECT_EQ(st.inversions, 0u);
    EXPECT_EQ(st.sideRouted, 0u);
}

TEST(BatchAffineScheduler, GzkpDrainEngagesAtServingSize)
{
    // Brownout's hQuery shape: about 500 bases, GLV on, k = 10, M = 1.
    // The 511 signed buckets form one task group, so each drain round
    // stages one add per live bucket and resolves it with one shared
    // inversion. Dealt into 64 groups of about 16 buckets, every
    // round fell below kMinAffineRound and the whole drain ran as
    // Jacobian side adds with no inversion at all.
    auto in = testkit::msmInstance<Cfg>(500, testkit::ScalarMix::Dense,
                                        83);
    typename GzkpMsm<Cfg>::Options o;
    o.k = 10;
    o.checkpointM = 1;
    o.threads = 1;
    GzkpMsm<Cfg> engine(o);
    auto expect =
        PippengerSerial<Cfg>(0, 1, Accumulator::Jacobian, GlvMode::Off)
            .run(in.points, in.scalars);
    EXPECT_EQ(engine.run(in.points, in.scalars), expect);

    auto st = engine.lastDrainStats();
    EXPECT_GT(st.inversions, 0u);
    EXPECT_EQ(st.collisions, 0u);
    EXPECT_LT(10 * st.sideRouted, st.affineAdds)
        << "sideRouted=" << st.sideRouted
        << " affineAdds=" << st.affineAdds;
}

TEST(BatchAffineScheduler, GzkpTaskGroupsAtServingShapes)
{
    // The prove plan reads each cached table's bucket-phase task
    // groups off taskGroups(): the sapling tables (about 8,100 bases,
    // k = 13, 4,096 signed buckets) drain as 4 groups of kDrainRound,
    // the brownout tables (about 500 bases, k = 10) as one, and a
    // table routed to the Jacobian walk spreads over kMaxChunks.
    GzkpMsm<Cfg> engine;
    auto sapling = engine.preprocess(
        testkit::msmInstance<Cfg>(8088, testkit::ScalarMix::Dense, 89)
            .points);
    ASSERT_EQ(sapling.k, 13u);
    EXPECT_EQ(engine.taskGroups(sapling), 4u);
    auto brownout = engine.preprocess(
        testkit::msmInstance<Cfg>(489, testkit::ScalarMix::Dense, 97)
            .points);
    ASSERT_EQ(brownout.k, 10u);
    EXPECT_EQ(engine.taskGroups(brownout), 1u);

    typename GzkpMsm<Cfg>::Options o;
    o.accumulator = Accumulator::Jacobian;
    EXPECT_EQ(GzkpMsm<Cfg>(o).taskGroups(sapling), runtime::kMaxChunks);
    o = {};
    o.minDrainOccupancy = 1000; // too sparse for the affine drain
    EXPECT_EQ(GzkpMsm<Cfg>(o).taskGroups(sapling), runtime::kMaxChunks);
}

TEST(BatchAffineScheduler, ReduceWeightedMatchesJacobianReference)
{
    constexpr std::size_t kSlots = 16;
    auto pts = randomAffine(300, 19);
    BatchAffineAccumulator<Cfg> acc(kSlots);
    std::vector<Pt> ref(kSlots, Pt::identity());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        acc.add(i % kSlots, pts[i]);
        ref[i % kSlots] = ref[i % kSlots].addMixed(pts[i]);
    }
    Pt expect;
    for (std::size_t d = 1; d < kSlots; ++d)
        expect += ref[d].mul(std::uint64_t(d));
    EXPECT_EQ(acc.reduceWeighted(), expect);
}

// ------------------------------------------------------------- the GLV

TEST(Glv, DecomposeReconstructsScalarWithShortHalves)
{
    const auto &p = G::params();
    testkit::Rng rng(23);
    std::vector<Fr> scalars;
    for (int i = 0; i < 50; ++i)
        scalars.push_back(Fr::random(rng));
    // Boundary cases: 0, 1, r-1, lambda, and r-lambda.
    scalars.push_back(Fr::zero());
    scalars.push_back(Fr::one());
    scalars.push_back(-Fr::one());
    scalars.push_back(p.lambda);
    scalars.push_back(-p.lambda);
    for (const Fr &k : scalars) {
        auto d = G::decompose(k);
        EXPECT_LE(d.k1.numBits(), G::kScalarBits);
        EXPECT_LE(d.k2.numBits(), G::kScalarBits);
        Fr s1 = Fr::fromBigInt(d.k1);
        Fr s2 = Fr::fromBigInt(d.k2);
        if (d.neg1)
            s1 = -s1;
        if (d.neg2)
            s2 = -s2;
        EXPECT_EQ(s1 + p.lambda * s2, k);
    }
}

TEST(Glv, DecomposeMatchesPreviousArithmetic)
{
    const auto &p = G::params();
    testkit::Rng rng(71);
    std::vector<Fr> scalars;
    for (int i = 0; i < 2000; ++i)
        scalars.push_back(Fr::random(rng));
    for (const Fr &k : {Fr::zero(), Fr::one(), p.lambda, -Fr::one(),
                        -p.lambda})
        scalars.push_back(k);
    // Around the kScalarBits guard: 2^131, 2^132 and 2^133, each
    // -1, +0 and +1, and negated.
    for (std::size_t bits : {131, 132, 133}) {
        Fr::Repr pow2;
        pow2.setBit(bits);
        Fr t = Fr::fromBigInt(pow2);
        for (const Fr &k : {t - Fr::one(), t, t + Fr::one()}) {
            scalars.push_back(k);
            scalars.push_back(-k);
        }
    }
    for (const Fr &k : scalars) {
        auto got = G::decompose(k);
        auto want = decomposeReference(k);
        EXPECT_EQ(got.k1, want.k1) << k.toHex();
        EXPECT_EQ(got.k2, want.k2) << k.toHex();
        EXPECT_EQ(got.neg1, want.neg1) << k.toHex();
        EXPECT_EQ(got.neg2, want.neg2) << k.toHex();
    }
}

/** The endomorphism and the decomposition, on both BN254 groups. */
template <typename C>
class GlvGroup : public ::testing::Test
{};
using GlvGroups = ::testing::Types<Bn254G1Cfg, Bn254G2Cfg>;
TYPED_TEST_SUITE(GlvGroup, GlvGroups);

TYPED_TEST(GlvGroup, EndomorphismActsAsLambda)
{
    using C = TypeParam;
    using P = ECPoint<C>;
    using GC = Glv<C>;
    const auto &p = GC::params();
    EXPECT_EQ(&p, &G::params()); // one lattice for both groups
    // beta is a primitive cube root of unity in Fq.
    const ff::Bn254Fq one = ff::Bn254Fq::one();
    EXPECT_EQ(GC::beta().squared() * GC::beta(), one);
    EXPECT_NE(GC::beta(), one);
    EXPECT_EQ(P::fromAffine(GC::endo(P::generatorAffine())),
              P::generator().mul(p.lambdaRepr));
    auto pts =
        testkit::msmInstance<C>(16, testkit::ScalarMix::Dense, 29).points;
    for (const auto &a : pts) {
        ASSERT_TRUE(inPrimeSubgroup(a));
        EXPECT_EQ(P::fromAffine(GC::endo(a)),
                  P::fromAffine(a).mul(p.lambdaRepr));
    }
    EXPECT_TRUE(GC::endo(AffinePoint<C>::identity()).infinity);
}

TYPED_TEST(GlvGroup, DecomposedMulMatchesDirectMul)
{
    using C = TypeParam;
    using P = ECPoint<C>;
    using GC = Glv<C>;
    testkit::Rng rng(31);
    auto pts =
        testkit::msmInstance<C>(6, testkit::ScalarMix::Dense, 37).points;
    for (const auto &a : pts) {
        Fr k = Fr::random(rng);
        auto d = GC::decompose(k);
        P base = P::fromAffine(a);
        P t1 = base.mul(d.k1);
        if (d.neg1)
            t1 = t1.negate();
        P t2 = P::fromAffine(GC::endo(a)).mul(d.k2);
        if (d.neg2)
            t2 = t2.negate();
        EXPECT_EQ(t1 + t2, base.mul(k));
    }
}

// --------------------------------------- the engine cross-product

TEST(BatchAffineDifferential, AllEnginesAgreeAcrossStrategiesAndThreads)
{
    for (std::size_t threads : {1, 2, 4, 8}) {
        auto d = testkit::batchAffineDifferential(threads);
        for (std::size_t n : {1, 2, 33, 96}) {
            for (std::size_t m = 0; m < testkit::kScalarMixCount; ++m) {
                auto in = testkit::msmInstance<Cfg>(
                    n, testkit::ScalarMix(m), 41 * n + m);
                auto div = d.run(in);
                EXPECT_FALSE(div.has_value())
                    << "threads=" << threads << " n=" << n << " mix="
                    << m << ": "
                    << (div ? div->variant + " " + div->detail
                            : std::string());
            }
        }
    }
}

TEST(BatchAffineDifferential, GzkpCheckpointModesAgreeUnderGlv)
{
    auto in = testkit::msmInstance<Cfg>(
        80, testkit::ScalarMix::Adversarial, 43);
    auto expect = msmNaive<Cfg>(in.points, in.scalars);
    for (GlvMode glv : {GlvMode::Off, GlvMode::On}) {
        for (CheckpointMode mode :
             {CheckpointMode::Horner, CheckpointMode::PerPoint}) {
            for (Accumulator acc :
                 {Accumulator::Jacobian, Accumulator::BatchAffine}) {
                typename GzkpMsm<Cfg>::Options o;
                o.k = 7;
                o.checkpointM = 5; // m > 1: the delta slots matter
                o.mode = mode;
                o.accumulator = acc;
                o.glv = glv;
                EXPECT_EQ(GzkpMsm<Cfg>(o).run(in.points, in.scalars),
                          expect)
                    << "mode=" << int(mode) << " acc=" << int(acc)
                    << " glv=" << int(glv);
            }
        }
    }
}

TEST(BatchAffineDifferential, ResultsAreThreadCountInvariant)
{
    auto in = testkit::msmInstance<Cfg>(
        70, testkit::ScalarMix::Sparse01, 47);
    auto base =
        PippengerSerial<Cfg>(0, 1, Accumulator::BatchAffine, GlvMode::On)
            .run(in.points, in.scalars);
    for (std::size_t t : {2, 4, 8})
        EXPECT_EQ(PippengerSerial<Cfg>(0, t, Accumulator::BatchAffine,
                                       GlvMode::On)
                      .run(in.points, in.scalars),
                  base)
            << "threads=" << t;
}

TEST(BatchAffineDifferential, GzkpChunkedReductionMatchesSerial)
{
    // The signed-digit buckets (bucket b holds digit magnitude b + 1,
    // 2^(k-1) of them) reduce in min(2^(k-1), 64) equal chunks: k = 2
    // and 6 put the bucket count below that cap, 7 at it (one bucket
    // a chunk), 10 and 13 above it. The scalar sets leave all buckets
    // empty, fill one bucket at the bottom of the second chunk, fill
    // only the top bucket, fill the top-but-one bucket from a
    // negative digit, or leave the top chunks empty. k = 2 without
    // GLV is the width that gains the recoding's spare window.
    constexpr std::size_t kPoints = 24;
    auto base = testkit::msmInstance<Cfg>(kPoints,
                                          testkit::ScalarMix::Dense, 71);
    testkit::Rng rng(73);
    for (std::size_t k : {2, 6, 7, 10, 13}) {
        std::size_t nbuckets = std::size_t(1) << (k - 1);
        std::size_t width = nbuckets / std::min<std::size_t>(nbuckets, 64);
        auto all = [&](std::uint64_t v) {
            return std::vector<Fr>(kPoints, Fr::fromUint64(v));
        };
        std::vector<std::pair<const char *, std::vector<Fr>>> sets;
        sets.push_back({"all-zero", all(0)});
        sets.push_back({"one-bucket", all(width + 1)});
        sets.push_back({"top-bucket", all(nbuckets)});
        // Window 0 reads 2^(k-1) + 1: digit -(2^(k-1) - 1), carry 1.
        sets.push_back({"negative-digit", all(nbuckets + 1)});
        // Three windows of digits in [1, nbuckets / 4] (k = 2: 1).
        std::vector<Fr> low(kPoints);
        std::uint64_t quarter = std::max<std::uint64_t>(1, nbuckets / 4);
        for (Fr &s : low)
            for (std::size_t t = 0; t < 3; ++t)
                s = s * Fr::fromUint64(std::uint64_t(1) << k) +
                    Fr::fromUint64(1 + rng() % quarter);
        sets.push_back({"empty-top-chunks", low});
        sets.push_back({"dense", base.scalars});

        for (const auto &[name, scalars] : sets) {
            auto expect = PippengerSerial<Cfg>(0, 1, Accumulator::Jacobian,
                                               GlvMode::Off)
                              .run(base.points, scalars);
            for (std::size_t threads : {1, 2, 4, 8}) {
                std::string what = std::string(name) + " k=" +
                    std::to_string(k) + " threads=" +
                    std::to_string(threads);
                typename GzkpMsm<Cfg>::Options o;
                o.k = k;
                o.glv = GlvMode::Off;
                o.threads = threads;
                GzkpMsm<Cfg> engine(o);
                auto pp = engine.preprocess(base.points);
                EXPECT_EQ(engine.run(pp, scalars), expect) << what;
                if (std::string(name) == "all-zero")
                    continue; // no bucket is filled, so none can corrupt
                // One corrupted bucket must reach the result: the
                // offset fold may not cancel it.
                faultsim::ScopedFaultPlan plan(
                    "seed=9;bucket@msm.gzkp.bucket:1#1");
                EXPECT_NE(engine.run(pp, scalars), expect) << what;
                EXPECT_EQ(faultsim::firedCount(), 1u) << what;
            }
        }
    }
}

TEST(BatchAffineDifferential, G2EnginesAgreeWithAndWithoutGlv)
{
    // k = 6, M = 2: 32 signed buckets of two delta slots take about
    // 43 entries per point (43 windows without GLV, 2 x 22 with it),
    // so a slot averages about 43n/64 adds. The minDrainOccupancy
    // threshold (4) routes n = 4 (about 2.7) to the Jacobian drain
    // and n = 48 (about 32) to the affine one, with GLV on and off.
    for (std::size_t n : {4, 48}) {
        auto in = testkit::msmInstance<G2Cfg>(
            n, testkit::ScalarMix::Dense, 101 + n);
        auto expect = msmNaive<G2Cfg>(in.points, in.scalars);
        for (std::size_t threads : {1, 4}) {
            for (GlvMode glv : {GlvMode::Off, GlvMode::On}) {
                for (Accumulator acc :
                     {Accumulator::Jacobian, Accumulator::BatchAffine}) {
                    std::string what = "n=" + std::to_string(n) +
                        " threads=" + std::to_string(threads) +
                        " glv=" + std::to_string(int(glv)) +
                        " acc=" + std::to_string(int(acc));
                    typename GzkpMsm<G2Cfg>::Options o;
                    o.k = 6;
                    o.checkpointM = 2;
                    o.threads = threads;
                    o.accumulator = acc;
                    o.glv = glv;
                    GzkpMsm<G2Cfg> engine(o);
                    auto pp = engine.preprocess(in.points);
                    EXPECT_EQ(pp.glv, glv == GlvMode::On) << what;
                    EXPECT_EQ(engine.run(pp, in.scalars), expect)
                        << "gzkp " << what;
                    EXPECT_EQ(engine.lastDrainStats().affineAdds > 0,
                              acc == Accumulator::BatchAffine &&
                                  n == 48)
                        << what;
                    EXPECT_EQ(PippengerSerial<G2Cfg>(0, threads, acc,
                                                     glv)
                                  .run(in.points, in.scalars),
                              expect)
                        << "serial " << what;
                }
            }
        }
    }
}

TEST(GlvTable, PhiHalfIsEndoOfBaseHalf)
{
    // Adversarial points: identities and duplicates in the blocks.
    auto g1 = testkit::msmInstance<Cfg>(
        40, testkit::ScalarMix::Adversarial, 107);
    auto g2 = testkit::msmInstance<G2Cfg>(
        24, testkit::ScalarMix::Adversarial, 109);
    for (std::size_t threads : {1, 4}) {
        expectGlvTableLayout<Cfg>(g1.points, threads);
        expectGlvTableLayout<G2Cfg>(g2.points, threads);
    }
}

namespace {

/**
 * FNV-1a digest of a preprocessed table: its shape fields, then every
 * entry in its canonical serialized form.
 */
template <typename C>
std::uint64_t
tableDigest(const typename GzkpMsm<C>::Preprocessed &pp)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&](const std::string &bytes) {
        for (unsigned char c : bytes) {
            h ^= c;
            h *= 1099511628211ull;
        }
    };
    for (std::size_t v : {pp.n, pp.k, pp.m, pp.windows, pp.checkpoints,
                          std::size_t(pp.glv)})
        mix(std::to_string(v) + ";");
    for (const auto &r : pp.pre)
        mix(zkp::serializePoint<C>(r.affine()) + ";");
    return h;
}

template <typename C>
std::uint64_t
defaultTableDigest(std::size_t n, std::size_t k, std::uint64_t seed)
{
    auto points =
        testkit::msmInstance<C>(n, testkit::ScalarMix::Dense, seed).points;
    typename GzkpMsm<C>::Options o;
    o.k = k;
    o.threads = 1;
    return tableDigest<C>(GzkpMsm<C>(o).preprocess(points));
}

} // namespace

TEST(GlvTable, ServiceWindowTablesKeepTheirBytes)
{
    // The service's BN254 tables (GLV on, the default checkpoint
    // interval) at profileWindow's k = 10 and 13 are entry for entry
    // the tables built before the signed-digit recoding: the recoding
    // reuses the GLV window count, so no cached artifact changes. The
    // digests were taken from that build.
    EXPECT_EQ(defaultTableDigest<Cfg>(64, 10, 131),
              0xe7e1a9071db983ddull);
    EXPECT_EQ(defaultTableDigest<Cfg>(64, 13, 137),
              0xbe725f580b83f519ull);
    EXPECT_EQ(defaultTableDigest<G2Cfg>(24, 10, 139),
              0xc2a07b6e0721464cull);
    EXPECT_EQ(defaultTableDigest<G2Cfg>(24, 13, 149),
              0x4487c68c0b10f4b0ull);
}

// --------------------------------------------------- end-to-end proofs

TEST(BatchAffineProofs, ProofBytesIdenticalAcrossStrategyDefaults)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;

    auto b = testkit::randomCircuit<Fr>(53);
    testkit::Rng rng(testkit::deriveSeed(53, 1));
    auto keys = G16::setup(b.cs(), rng);

    std::string base;
    zkp::strategy::forEachStrategy([&](auto strategy) {
        using S = decltype(strategy);
        for (std::size_t t : {1, 4}) {
            // Identically-seeded prover randomness: only the bucket
            // strategy and schedule may differ.
            testkit::Rng prng(testkit::deriveSeed(53, 2));
            auto proof = G16::prove<typename S::Gzkp>(
                keys.pk, b.cs(), b.assignment(), prng, nullptr,
                zkp::CpuNttEngine<Fr>(), t);
            auto text = zkp::serializeProof<Family>(proof);
            if (base.empty())
                base = text;
            else
                EXPECT_EQ(text, base)
                    << "acc=" << int(S::accumulator)
                    << " glv=" << int(S::glv) << " threads=" << t;
        }
    });
}

TEST(BatchAffineProofs, GlvTableRejectsNonGlvRun)
{
    // A GLV preprocessed table replayed through a run() compiled for a
    // non-GLV curve cannot happen via the public API (the flag rides
    // inside Preprocessed), but a table/options mismatch on the same
    // curve must throw rather than mis-index the doubled layout.
    auto in = testkit::msmInstance<Cfg>(16, testkit::ScalarMix::Dense,
                                       59);
    typename GzkpMsm<Cfg>::Options o;
    o.k = 6;
    o.checkpointM = 2;
    o.glv = GlvMode::On;
    GzkpMsm<Cfg> engine(o);
    auto pp = engine.preprocess(in.points);
    EXPECT_TRUE(pp.glv);
    EXPECT_EQ(pp.nb(), 2 * pp.n);
    EXPECT_EQ(engine.run(pp, in.scalars),
              msmNaive<Cfg>(in.points, in.scalars));
}
