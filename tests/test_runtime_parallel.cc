/**
 * @file
 * Tests for the deterministic parallel runtime (src/runtime/) and the
 * bit-reproducibility contract of every parallel consumer: the MSM
 * registry, the batched NTT, the Groth16 prover, and the gpusim
 * accounting helpers must produce byte-identical results at any
 * thread count (1, 2, 4, 8 here), including the degenerate n = 0,
 * n = 1, and all-zero-scalar instances.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "msm/msm_common.hh"
#include "ntt/ntt_batched.hh"
#include "ntt/ntt_cpu.hh"
#include "runtime/runtime.hh"
#include "status/status.hh"
#include "testkit/testkit.hh"
#include "zkp/prove_plan.hh"
#include "zkp/serialize.hh"

using namespace gzkp;
using namespace gzkp::testkit;

namespace {

const std::vector<std::size_t> kThreadCounts = {1, 2, 4, 8};

/** Affine points must match in representation, not just value. */
template <typename Point>
void
expectSameAffine(const Point &a, const Point &b, const char *what)
{
    auto aa = a.toAffine();
    auto bb = b.toAffine();
    ASSERT_EQ(aa.infinity, bb.infinity) << what;
    if (aa.infinity)
        return;
    EXPECT_TRUE(aa.x == bb.x && aa.y == bb.y) << what;
}

} // namespace

// ---------------------------------------------------------- runtime

TEST(Runtime, ChunkBoundsPartitionTheRange)
{
    for (std::size_t n : {0u, 1u, 7u, 64u, 65u, 1000u}) {
        std::size_t chunks = runtime::chunkCount(n);
        EXPECT_LE(chunks, runtime::kMaxChunks);
        EXPECT_LE(chunks, n);
        std::size_t prev = 0;
        for (std::size_t j = 0; j < chunks; ++j) {
            auto [lo, hi] = runtime::chunkBounds(n, chunks, j);
            EXPECT_EQ(lo, prev);
            EXPECT_LE(lo, hi);
            prev = hi;
        }
        if (chunks != 0) {
            EXPECT_EQ(prev, n);
        }
    }
}

TEST(Runtime, ParallelForCoversEveryIndexOnce)
{
    for (std::size_t t : kThreadCounts) {
        for (std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 513u}) {
            std::vector<int> hits(n, 0);
            runtime::parallelFor(t, n, [&](std::size_t i) {
                ++hits[i]; // each index owned by exactly one chunk
            });
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i], 1) << "n=" << n << " t=" << t;
        }
    }
}

TEST(Runtime, ParallelForChunksMatchesChunkBounds)
{
    std::size_t n = 321;
    std::size_t chunks = runtime::chunkCount(n);
    std::vector<std::pair<std::size_t, std::size_t>> seen(chunks);
    std::vector<int> count(chunks, 0);
    runtime::parallelForChunks(
        4, n, [&](std::size_t lo, std::size_t hi, std::size_t j) {
            seen[j] = {lo, hi};
            ++count[j];
        });
    for (std::size_t j = 0; j < chunks; ++j) {
        EXPECT_EQ(count[j], 1);
        EXPECT_EQ(seen[j], runtime::chunkBounds(n, chunks, j));
    }
}

TEST(Runtime, ReduceIsThreadCountInvariantForOrderSensitiveCombine)
{
    // The combine is deliberately non-commutative (a polynomial hash
    // over the partials): only a fixed fold order gives one answer.
    auto run = [](std::size_t threads) {
        return runtime::parallelReduce(
            threads, 1000, std::uint64_t(1),
            [](std::size_t lo, std::size_t hi) {
                std::uint64_t s = 0;
                for (std::size_t i = lo; i < hi; ++i)
                    s += i * i + 17;
                return s;
            },
            [](std::uint64_t acc, std::uint64_t part) {
                return acc * 1000003u + part;
            });
    };
    std::uint64_t base = run(1);
    for (std::size_t t : kThreadCounts)
        EXPECT_EQ(run(t), base) << "t=" << t;
}

TEST(Runtime, ReduceHandlesEmptyRange)
{
    auto r = runtime::parallelReduce(
        4, 0, 42,
        [](std::size_t, std::size_t) { return 1; },
        [](int acc, int part) { return acc + part; });
    EXPECT_EQ(r, 42);
}

TEST(Runtime, ParallelInvokeRunsEveryTaskWithAShare)
{
    const std::vector<std::size_t> given = {3, 1, 2, 1, 1};
    std::vector<std::size_t> shares(5, 0);
    std::atomic<int> ran{0};
    std::vector<std::function<void(std::size_t)>> tasks;
    for (std::size_t j = 0; j < shares.size(); ++j) {
        tasks.push_back([&, j](std::size_t share) {
            shares[j] = share;
            ++ran;
        });
    }
    runtime::parallelInvoke(8, tasks, given);
    EXPECT_EQ(ran.load(), 5);
    for (auto s : shares)
        EXPECT_GE(s, 1u);
    EXPECT_LE(std::accumulate(shares.begin(), shares.end(), std::size_t(0)),
              8u);
    EXPECT_EQ(shares, given);
    // More threads than the budget, a zero share, or a missing share
    // is a caller bug, never an oversubscribed region.
    EXPECT_THROW(runtime::parallelInvoke(7, tasks, given),
                 std::invalid_argument);
    EXPECT_THROW(runtime::parallelInvoke(8, tasks, {3, 1, 2, 1, 0}),
                 std::invalid_argument);
    EXPECT_THROW(runtime::parallelInvoke(8, tasks, {3, 1}),
                 std::invalid_argument);
}

TEST(Runtime, ExceptionsPropagateDeterministically)
{
    for (std::size_t t : kThreadCounts) {
        EXPECT_THROW(
            runtime::parallelFor(t, 100,
                                 [&](std::size_t i) {
                                     if (i == 57)
                                         throw std::runtime_error("57");
                                 }),
            std::runtime_error)
            << "t=" << t;
    }
}

TEST(Runtime, ParseThreadsSpec)
{
    EXPECT_EQ(runtime::parseThreadsSpec(nullptr), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec(""), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("abc"), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("0"), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("-3"), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("4x"), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("100000"), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("1"), 1u);
    EXPECT_EQ(runtime::parseThreadsSpec("16"), 16u);
}

TEST(Runtime, ResolveThreadsUsesTheConfiguredDefault)
{
    runtime::setDefaultThreads(5);
    EXPECT_EQ(runtime::resolveThreads(0), 5u);
    EXPECT_EQ(runtime::resolveThreads(3), 3u);
    runtime::setDefaultThreads(0); // back to env/hardware default
    EXPECT_GE(runtime::resolveThreads(0), 1u);
}

// ----------------------------------------------------- parallel MSM

using MsmCfg = ec::Bn254G1Cfg;

TEST(ParallelMsm, RegistryMatchesOracleAtEveryThreadCount)
{
    const std::vector<std::size_t> sizes = {0, 1, 2, 7, 33};
    const std::vector<ScalarMix> mixes = {
        ScalarMix::Dense, ScalarMix::Sparse01, ScalarMix::Adversarial};
    for (std::size_t t : kThreadCounts) {
        auto d = msmDifferential(t);
        for (auto kind : mixes) {
            for (std::size_t n : sizes) {
                auto in = msmInstance<MsmCfg>(
                    n, kind, deriveSeed(11, n, std::size_t(kind)));
                auto div = d.run(in);
                EXPECT_FALSE(div.has_value())
                    << "t=" << t << " n=" << n << " variant "
                    << (div ? div->variant : "") << ": "
                    << (div ? div->detail : "");
            }
        }
    }
}

TEST(ParallelMsm, VariantsAreBitIdenticalAcrossThreadCounts)
{
    auto base = msmDifferential(1);
    auto names = base.variantNames();
    const std::vector<std::size_t> sizes = {0, 1, 2, 29, 65};
    for (std::size_t n : sizes) {
        auto in = msmInstance<MsmCfg>(n, ScalarMix::Adversarial,
                                      deriveSeed(23, n));
        for (const auto &name : names) {
            auto expect = base.runVariant(name, in);
            for (std::size_t t : {2, 4, 8}) {
                auto got = msmDifferential(t).runVariant(name, in);
                expectSameAffine(got, expect,
                                 (name + " n=" + std::to_string(n) +
                                  " t=" + std::to_string(t))
                                     .c_str());
            }
        }
    }
}

TEST(ParallelMsm, AllZeroScalarsGiveIdentityAtEveryThreadCount)
{
    auto in = msmInstance<MsmCfg>(40, ScalarMix::Dense, 7);
    for (auto &s : in.scalars)
        s = MsmCfg::Scalar::zero();
    auto d = msmDifferential(1);
    for (const auto &name : d.variantNames()) {
        for (std::size_t t : kThreadCounts) {
            auto r = msmDifferential(t).runVariant(name, in);
            EXPECT_TRUE(r.toAffine().infinity)
                << name << " t=" << t;
        }
    }
}

// ----------------------------------------------------- parallel NTT

using NttT = ff::Bn254Fr;

TEST(ParallelNtt, BatchedMatchesSerialKernelAtEveryThreadCount)
{
    ntt::Domain<NttT> dom(6);
    for (bool invert : {false, true}) {
        Rng rng(99);
        std::vector<std::vector<NttT>> batch(9);
        for (auto &v : batch)
            v = scalarVector<NttT>(dom.size(), ScalarMix::Boundary,
                                   rng);
        // Serial oracle: the kernel applied vector by vector.
        auto expect = batch;
        ntt::GzkpNtt<NttT> kernel;
        for (auto &v : expect)
            kernel.run(dom, v, invert);

        for (std::size_t t : kThreadCounts) {
            auto got = batch;
            ntt::BatchedNtt<NttT>(kernel, t).run(dom, got, invert);
            for (std::size_t b = 0; b < got.size(); ++b)
                EXPECT_EQ(got[b], expect[b])
                    << "lane " << b << " t=" << t
                    << (invert ? " inverse" : " forward");
        }
    }
}

TEST(ParallelNtt, EmptyAndSingletonBatches)
{
    ntt::Domain<NttT> dom(4);
    Rng rng(5);
    for (std::size_t t : kThreadCounts) {
        std::vector<std::vector<NttT>> empty;
        ntt::BatchedNtt<NttT>(ntt::GzkpNtt<NttT>(), t).run(dom, empty);
        EXPECT_TRUE(empty.empty());

        std::vector<std::vector<NttT>> one = {
            scalarVector<NttT>(dom.size(), ScalarMix::Dense, rng)};
        auto expect = one[0];
        ntt::nttInPlace(dom, expect);
        ntt::BatchedNtt<NttT>(ntt::GzkpNtt<NttT>(), t).run(dom, one);
        EXPECT_EQ(one[0], expect) << "t=" << t;
    }
}

// ------------------------------------------------- Groth16 determinism

TEST(ParallelGroth16, ProofBytesIdenticalAcrossThreadCounts)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    auto b = randomCircuit<Fr>(4242);
    ASSERT_TRUE(b.cs().isSatisfied(b.assignment()));
    Rng rng(deriveSeed(4242, 1));
    auto keys = G16::setup(b.cs(), rng);

    std::string base;
    for (std::size_t t : kThreadCounts) {
        Rng prng(deriveSeed(4242, 2));
        auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), prng,
                                nullptr, zkp::CpuNttEngine<Fr>(), t);
        auto text = zkp::serializeProof<Family>(proof);
        if (t == 1)
            base = text;
        else
            EXPECT_EQ(text, base) << "proof bytes differ at t=" << t;
    }
    EXPECT_FALSE(base.empty());
}

// --------------------------------------------------- the thread plan

namespace {

using zkp::PlanWave;
using zkp::ProvePlan;
using zkp::ProveTask;

/** The sapling circuit's query lengths (a, b2, b1, l, h), 2^13. */
const std::array<std::size_t, zkp::kMsmCount> kSapling = {8088, 8088, 8088,
                                                          8086, 8191};
const double kSaplingPoly = zkp::kPolyCostPerDomainPoint * 8192;

/** The plan's (task, share) pairs in run order, wave by wave. */
std::vector<std::vector<std::pair<std::vector<ProveTask>, std::size_t>>>
lanes(const ProvePlan &plan)
{
    std::vector<std::vector<std::pair<std::vector<ProveTask>, std::size_t>>>
        out;
    for (const PlanWave &w : plan.waves) {
        out.emplace_back();
        for (const auto &lane : w)
            out.back().emplace_back(lane.tasks, lane.share);
    }
    return out;
}

/** Every MSM once, POLY (when pending) before h, shares in budget. */
void
expectWellFormed(const ProvePlan &plan, bool polyPending,
                 std::size_t budget, const std::string &what)
{
    std::vector<int> seen(6, 0);
    bool hSeen = false, polyBeforeH = false;
    for (const PlanWave &wave : plan.waves) {
        std::size_t sum = 0;
        for (const auto &lane : wave) {
            EXPECT_GE(lane.share, 1u) << what;
            sum += lane.share;
            for (ProveTask t : lane.tasks) {
                ++seen[std::size_t(t)];
                if (t == ProveTask::Poly)
                    polyBeforeH = !hSeen;
                if (t == ProveTask::H)
                    hSeen = true;
            }
        }
        EXPECT_LE(sum, budget) << what;
    }
    for (std::size_t t = 0; t < zkp::kMsmCount; ++t)
        EXPECT_EQ(seen[t], 1) << what << " task " << t;
    EXPECT_EQ(seen[std::size_t(ProveTask::Poly)], polyPending ? 1 : 0)
        << what;
    if (polyPending) {
        EXPECT_TRUE(polyBeforeH) << what;
    }
}

} // namespace

TEST(ProvePlan, EveryMsmOnceAndSharesWithinTheBudget)
{
    const std::vector<std::array<std::size_t, zkp::kMsmCount>> shapes = {
        kSapling,
        {489, 489, 489, 487, 511}, // the 2-link chain, 2^9
        {40, 40, 40, 0, 63},       // no aux variables: an empty l
        {1, 1, 1, 1, 1},
    };
    // Fine-grained MSMs, the sapling tables' 4 bucket-phase groups,
    // one group each (brownout's tables), and a mix.
    const std::vector<zkp::MsmGroups> groupings = {
        {}, {4, 4, 4, 4, 4}, {1, 1, 1, 1, 1}, {64, 4, 1, 0, 4}};
    for (const auto &shape : shapes) {
        for (std::size_t g = 0; g < groupings.size(); ++g) {
            const zkp::MsmGroups &groups = groupings[g];
            for (std::size_t budget = 1; budget <= 17; ++budget) {
                for (bool pending : {false, true}) {
                    std::optional<double> poly;
                    if (pending)
                        poly = zkp::kPolyCostPerDomainPoint *
                            double(shape[4] + 1);
                    std::string what = "a=" + std::to_string(shape[0]) +
                        " grouping=" + std::to_string(g) +
                        " budget=" + std::to_string(budget) +
                        " poly=" + std::to_string(pending);
                    auto plan = zkp::planProve(shape, poly, budget, groups);
                    expectWellFormed(plan, pending, budget, what);
                    EXPECT_LE(plan.waves.size(), 2u) << what;
                    EXPECT_GT(plan.makespan, 0) << what;
                    // A pure function: the same inputs, the same plan.
                    EXPECT_EQ(
                        lanes(zkp::planProve(shape, poly, budget, groups)),
                        lanes(plan))
                        << what;
                }
            }
        }
    }
}

TEST(ProvePlan, BudgetOneIsOneInlineLaneInMsmOrder)
{
    using T = ProveTask;
    for (bool pending : {false, true}) {
        std::optional<double> poly;
        if (pending)
            poly = kSaplingPoly;
        std::vector<T> order = {T::A, T::B2, T::B1, T::L, T::H};
        if (pending)
            order.insert(order.begin(), T::Poly);
        auto plan = zkp::planProve(kSapling, poly, 1);
        EXPECT_EQ(lanes(plan),
                  (decltype(lanes(plan)){{{order, 1}}}))
            << "poly=" << pending;
    }
}

TEST(ProvePlan, SaplingAtFourThreadsOverlapsPolyWithTheZMsms)
{
    using T = ProveTask;
    // POLY -> h takes two threads beside a and b1, then b2 takes three
    // threads beside l: the modeled makespan is POLY plus half of h,
    // then l, against POLY plus the one-thread b2 for equal shares.
    // POLY heads the first wave's critical lane.
    auto plan = zkp::planProve(kSapling, kSaplingPoly, 4);
    decltype(lanes(plan)) want = {
        {{{T::Poly, T::H}, 2}, {{T::A}, 1}, {{T::B1}, 1}},
        {{{T::B2}, 3}, {{T::L}, 1}},
    };
    EXPECT_EQ(lanes(plan), want);
    EXPECT_DOUBLE_EQ(plan.makespan, kSaplingPoly + 8191 / 2.0 + 8086);

    // With h computed, the four G1 MSMs fill one wave and b2 takes
    // the whole budget after them.
    auto stage = zkp::planProve(kSapling, std::nullopt, 4);
    decltype(lanes(stage)) wantStage = {
        {{{T::H}, 1}, {{T::A}, 1}, {{T::B1}, 1}, {{T::L}, 1}},
        {{{T::B2}, 4}},
    };
    EXPECT_EQ(lanes(stage), wantStage);
    EXPECT_DOUBLE_EQ(stage.makespan,
                     8191 + 8088 * zkp::kG2PerPointCost / 4);
}

TEST(ProvePlan, SaplingTaskGroupsKeepEveryShareDividingThem)
{
    using T = ProveTask;
    // Over the cached sapling tables each MSM's bucket phase is 4
    // static task groups (GzkpMsm::taskGroups), so 3 threads take as
    // long as 2. The fine-grained plan above models b2 on 3 threads at
    // a third of its cost; at half, POLY -> h on two threads beside a
    // and b1 stops paying, and b2 takes two threads beside POLY -> h
    // and a, then b1 and l take two each: every share divides the
    // groups. The modeled makespan is the POLY -> h lane plus half of
    // b1.
    const zkp::MsmGroups groups = {4, 4, 4, 4, 4};
    auto plan = zkp::planProve(kSapling, kSaplingPoly, 4, groups);
    decltype(lanes(plan)) want = {
        {{{T::B2}, 2}, {{T::Poly, T::H}, 1}, {{T::A}, 1}},
        {{{T::B1}, 2}, {{T::L}, 2}},
    };
    EXPECT_EQ(lanes(plan), want);
    EXPECT_DOUBLE_EQ(plan.makespan, kSaplingPoly + 8191 + 8088 / 2.0);

    // With h computed, the plan is the fine-grained one: b2's four
    // threads divide its groups.
    auto stage = zkp::planProve(kSapling, std::nullopt, 4, groups);
    EXPECT_EQ(lanes(stage), lanes(zkp::planProve(kSapling, std::nullopt,
                                                 4)));
    EXPECT_DOUBLE_EQ(stage.makespan,
                     8191 + 8088 * zkp::kG2PerPointCost / 4);

    // The busiest of `share` threads runs ceil(groups / share) groups.
    EXPECT_DOUBLE_EQ(zkp::shareSpeedup(3, 0), 3.0);
    EXPECT_DOUBLE_EQ(zkp::shareSpeedup(2, 4), 2.0);
    EXPECT_DOUBLE_EQ(zkp::shareSpeedup(3, 4), 2.0);
    EXPECT_DOUBLE_EQ(zkp::shareSpeedup(4, 4), 4.0);
    EXPECT_DOUBLE_EQ(zkp::shareSpeedup(8, 4), 4.0);
    EXPECT_DOUBLE_EQ(zkp::shareSpeedup(2, 1), 1.0);
    EXPECT_DOUBLE_EQ(zkp::shareSpeedup(3, 64), 64.0 / 22);
}

TEST(ProvePlan, BudgetTwoWithHReadyKeepsTheEqualShareLanes)
{
    using T = ProveTask;
    // The devices' MSM stage: two threads, h computed. The five MSMs
    // are dealt round-robin onto two one-thread lanes, as before.
    decltype(lanes(ProvePlan{})) want = {
        {{{T::A, T::B1, T::H}, 1}, {{T::B2, T::L}, 1}},
    };
    for (const auto &shape :
         {kSapling, std::array<std::size_t, zkp::kMsmCount>{
                        489, 489, 489, 487, 511}})
        EXPECT_EQ(lanes(zkp::planProve(shape, std::nullopt, 2)), want);
    // With POLY pending it runs alone first, then the same lanes.
    auto plan = zkp::planProve(kSapling, kSaplingPoly, 2);
    want.insert(want.begin(), {{{T::Poly}, 1}});
    EXPECT_EQ(lanes(plan), want);
}

TEST(ParallelGroth16, FuzzProofDeterminismTargetPasses)
{
    FuzzReport rep;
    fuzzInstance(*fuzzTarget("proofdet"), {77}, rep);
    EXPECT_TRUE(rep.ok())
        << (rep.failures.empty() ? "" : rep.failures[0].detail);
}

// --------------------------------------------- stats thread-invariance

TEST(ParallelStats, BucketLoadHistogramIsThreadCountInvariant)
{
    Rng rng(31);
    auto scalars =
        scalarVector<NttT>(500, ScalarMix::LowHamming, rng);
    auto base = msm::bucketLoadHistogram(scalars, 8, 1);
    for (std::size_t t : kThreadCounts)
        EXPECT_EQ(msm::bucketLoadHistogram(scalars, 8, t), base)
            << "t=" << t;
}

TEST(ParallelStats, GpuStatsAreThreadCountInvariant)
{
    auto dev = gpusim::DeviceConfig::v100();
    auto in = msmInstance<MsmCfg>(300, ScalarMix::Sparse01, 13);

    auto stats = [&](std::size_t t) {
        typename msm::GzkpMsm<MsmCfg>::Options o;
        o.threads = t;
        return msm::GzkpMsm<MsmCfg>(o, dev).gpuStats(in.scalars.size(),
                                                     dev, &in.scalars);
    };
    auto base = stats(1);
    for (std::size_t t : kThreadCounts) {
        auto st = stats(t);
        EXPECT_EQ(st.fieldMuls, base.fieldMuls) << "t=" << t;
        EXPECT_EQ(st.fieldAdds, base.fieldAdds) << "t=" << t;
        EXPECT_EQ(st.usefulBytes, base.usefulBytes) << "t=" << t;
        EXPECT_EQ(st.linesTouched, base.linesTouched) << "t=" << t;
        EXPECT_EQ(st.loadImbalanceFactor, base.loadImbalanceFactor)
            << "t=" << t;
    }

    auto bell = [&](std::size_t t) {
        return msm::BellpersonMsm<MsmCfg>(9, 3, t).gpuStats(
            in.scalars.size(), dev, &in.scalars);
    };
    auto bbase = bell(1);
    for (std::size_t t : kThreadCounts)
        EXPECT_EQ(bell(t).loadImbalanceFactor,
                  bbase.loadImbalanceFactor)
            << "t=" << t;
}

// --------------------------------------- cancellation and deadlines

TEST(RuntimeCancel, CancelledTokenAbortsParallelForEarly)
{
    runtime::CancelToken tok;
    tok.cancel();
    runtime::CancelScope scope(&tok);
    std::atomic<std::size_t> visited{0};
    EXPECT_THROW(runtime::parallelFor(4, 10000,
                                      [&](std::size_t) { ++visited; }),
                 runtime::CancelledError);
    // The region is aborted between chunks, not run to completion.
    EXPECT_LT(visited.load(), 10000u);
}

TEST(RuntimeCancel, MidFlightCancelStopsWorkers)
{
    runtime::CancelToken tok;
    runtime::CancelScope scope(&tok);
    std::atomic<std::size_t> visited{0};
    EXPECT_THROW(
        runtime::parallelFor(4, 1u << 20,
                             [&](std::size_t) {
                                 if (++visited == 100)
                                     tok.cancel();
                             }),
        runtime::CancelledError);
    EXPECT_GE(visited.load(), 100u);
    EXPECT_LT(visited.load(), 1u << 20);
}

TEST(RuntimeCancel, ExpiredDeadlineThrowsDeadlineExceeded)
{
    runtime::CancelToken tok;
    tok.setTimeout(std::chrono::milliseconds(-1));
    runtime::CancelScope scope(&tok);
    EXPECT_TRUE(tok.expired());
    EXPECT_THROW(runtime::parallelFor(2, 64, [](std::size_t) {}),
                 runtime::DeadlineExceededError);
}

TEST(RuntimeCancel, StatusGuardMapsCancellationToTypedCodes)
{
    runtime::CancelToken tok;
    tok.cancel();
    runtime::CancelScope scope(&tok);
    Status s = statusGuardVoid("region", [&] {
        runtime::parallelFor(2, 64, [](std::size_t) {});
    });
    EXPECT_EQ(s.code(), StatusCode::kCancelled);

    runtime::CancelToken dl;
    dl.setTimeout(std::chrono::milliseconds(-1));
    runtime::CancelScope scope2(&dl);
    Status s2 = statusGuardVoid("region", [&] {
        runtime::parallelFor(2, 64, [](std::size_t) {});
    });
    EXPECT_EQ(s2.code(), StatusCode::kDeadlineExceeded);
}

TEST(RuntimeCancel, WorkersInheritTheCallersToken)
{
    // parallelInvoke re-installs the ambient token on its workers, so
    // a nested parallelFor inside a task still observes cancellation.
    runtime::CancelToken tok;
    runtime::CancelScope scope(&tok);
    std::vector<std::function<void(std::size_t)>> tasks;
    std::atomic<bool> sawCancel{false};
    for (int j = 0; j < 4; ++j) {
        tasks.push_back([&](std::size_t) {
            tok.cancel();
            try {
                runtime::parallelFor(2, 256, [](std::size_t) {});
            } catch (const runtime::CancelledError &) {
                sawCancel = true;
                throw;
            }
        });
    }
    EXPECT_THROW(runtime::parallelInvoke(4, tasks, {1, 1, 1, 1}),
                 runtime::CancelledError);
    EXPECT_TRUE(sawCancel.load());
}

TEST(RuntimeCancel, NoTokenMeansNoOverheadOrThrow)
{
    EXPECT_EQ(runtime::currentCancelToken(), nullptr);
    std::atomic<std::size_t> visited{0};
    runtime::parallelFor(4, 1000, [&](std::size_t) { ++visited; });
    EXPECT_EQ(visited.load(), 1000u);
}
