/**
 * @file
 * Chaos suite for the fault-injection framework and the self-checking
 * prover pipeline (ISSUE: robustness tentpole).
 *
 * The contract under test: a prover run under ANY fault plan ends in
 * either a proof that verifies or a typed gzkp::Status error -- never
 * a bad proof, never a crash, never a hang. Directed tests pin down
 * each recovery mechanism (retry, epoch advance, backend demotion,
 * checkpoint resume, cancellation); the ChaosSweep drives hundreds of
 * seeded random plans through the same invariant.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "testkit/chaos.hh"
#include "testkit/testkit.hh"
#include "zkp/prover_pipeline.hh"
#include "zkp/serialize.hh"

namespace {

using namespace gzkp;
using testkit::ChaosFixture;
using testkit::chaosFixture;
using testkit::deriveSeed;
using testkit::Rng;
using zkp::Bn254Family;
using zkp::ProverBackend;
using Prover = zkp::SelfCheckingProver<Bn254Family>;
using G16 = zkp::Groth16<Bn254Family>;
using Fr = ff::Bn254Fr;

Prover::Options
fastOptions()
{
    Prover::Options opt;
    opt.threads = 2;
    return opt;
}

StatusOr<G16::Proof>
proveUnderPlan(const std::string &spec, Prover::Report *rep = nullptr,
               Prover::Options opt = fastOptions())
{
    const ChaosFixture &fx = chaosFixture();
    faultsim::ScopedFaultPlan guard(spec);
    auto prover = zkp::makeBn254SelfCheckingProver(opt);
    Rng rng(deriveSeed(99, 0));
    return prover.prove(fx.keys.pk, fx.keys.vk, fx.builder.cs(),
                        fx.builder.assignment(), rng, rep);
}

/**
 * Acceptance gate: with an *empty* plan installed, every probe is a
 * no-op that never touches data, so the pipeline's proof bytes must
 * be identical to a run with no plan at all.
 */
TEST(Chaos, EmptyPlanByteIdentical)
{
    const ChaosFixture &fx = chaosFixture();
    auto proveOnce = [&] {
        Rng rng(deriveSeed(7, 0));
        auto p = G16::prove(fx.keys.pk, fx.builder.cs(),
                            fx.builder.assignment(), rng);
        return zkp::serializeProof<Bn254Family>(p);
    };
    std::string bare = proveOnce();

    faultsim::FaultPlan empty;
    empty.seed = 123;
    faultsim::ScopedFaultPlan guard(empty);
    EXPECT_FALSE(faultsim::active());
    std::string with_empty_plan = proveOnce();
    EXPECT_EQ(bare, with_empty_plan);

    // And through the full self-checking pipeline.
    auto prover = zkp::makeBn254SelfCheckingProver(fastOptions());
    Rng rng(deriveSeed(7, 0));
    Prover::Report rep;
    auto r = prover.prove(fx.keys.pk, fx.keys.vk, fx.builder.cs(),
                          fx.builder.assignment(), rng, &rep);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(bare, zkp::serializeProof<Bn254Family>(*r));
    EXPECT_EQ(rep.attempts.size(), 1u);
    EXPECT_EQ(rep.backendUsed, ProverBackend::Gzkp);
    EXPECT_EQ(faultsim::firedCount(), 0u);
}

/** A limited launch fault is transient: fails once, retry succeeds. */
TEST(Chaos, RecoversFromTransientLaunchFault)
{
    Prover::Report rep;
    auto r = proveUnderPlan("seed=3;launch@msm.gzkp:1#1", &rep);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_TRUE(rep.succeeded);
    EXPECT_EQ(rep.backendUsed, ProverBackend::Gzkp);
    ASSERT_EQ(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[0].status.code(),
              StatusCode::kUnavailable);
    EXPECT_GE(rep.epochsAdvanced, 1u);
}

/** A limited allocation fault maps to kResourceExhausted + retry. */
TEST(Chaos, RecoversFromTransientAllocFault)
{
    Prover::Report rep;
    auto r = proveUnderPlan("seed=4;alloc@msm.gzkp:1#1", &rep);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    ASSERT_EQ(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[0].status.code(),
              StatusCode::kResourceExhausted);
}

/**
 * Bucket corruption silently produces a wrong MSM result; the
 * self-check must turn it into kDataLoss rather than release it.
 */
TEST(Chaos, SelfCheckCatchesBucketCorruption)
{
    Prover::Report rep;
    auto r = proveUnderPlan("seed=5;bucket@msm.gzkp.bucket:1#1", &rep);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    ASSERT_GE(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[0].status.code(), StatusCode::kDataLoss);
}

/**
 * NTT-stage corruption yields valid group elements encoding a wrong
 * proof -- only the cryptographic self-check (pairing verification)
 * can catch it. The structural check alone must not be trusted here.
 */
TEST(Chaos, SelfCheckCatchesButterflyCorruption)
{
    Prover::Report rep;
    auto r = proveUnderPlan("seed=6;butterfly@ntt.cpu:1#1", &rep);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    ASSERT_GE(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[0].status.code(), StatusCode::kDataLoss);
}

/** Same for a soft error on the POLY-stage output vector h. */
TEST(Chaos, SelfCheckCatchesPolyBitFlip)
{
    Prover::Report rep;
    auto r = proveUnderPlan("seed=7;bitflip@groth16.poly.h:1#1", &rep);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    ASSERT_GE(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[0].status.code(), StatusCode::kDataLoss);
}

/**
 * A persistent fault confined to the GZKP engine forces demotion:
 * the proof comes back from the serial tier.
 */
TEST(Chaos, PersistentGzkpFaultDemotesBackend)
{
    Prover::Report rep;
    auto r = proveUnderPlan("seed=8;launch@msm.gzkp:1", &rep);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(rep.backendUsed, ProverBackend::Serial);
    ASSERT_GE(rep.attempts.size(), 3u);
    EXPECT_EQ(rep.attempts[0].backend, ProverBackend::Gzkp);
    EXPECT_EQ(rep.attempts[1].backend, ProverBackend::Gzkp);
    EXPECT_EQ(rep.attempts[2].backend, ProverBackend::Serial);
}

/**
 * A persistent fault at every site exhausts the whole chain: the
 * caller gets the typed error, never a bad proof.
 */
TEST(Chaos, PersistentEverywhereYieldsTypedError)
{
    Prover::Report rep;
    auto r = proveUnderPlan("seed=9;launch@*:1", &rep);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    // Two attempts on each of the two backends.
    EXPECT_EQ(rep.attempts.size(), 4u);
    EXPECT_FALSE(rep.succeeded);
}

/** Caller bugs are never retried, under a plan or not. */
TEST(Chaos, InvalidWitnessIsNotRetried)
{
    const ChaosFixture &fx = chaosFixture();
    faultsim::ScopedFaultPlan guard("seed=10;launch@msm.gzkp:1");
    auto prover = zkp::makeBn254SelfCheckingProver(fastOptions());
    Rng rng(deriveSeed(99, 1));
    Prover::Report rep;
    std::vector<Fr> bad_z(3, Fr::one()); // wrong size
    auto r = prover.prove(fx.keys.pk, fx.keys.vk, fx.builder.cs(),
                          bad_z, rng, &rep);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(rep.attempts.size(), 1u);
}

/** A pre-cancelled token stops before any attempt runs. */
TEST(Chaos, CancellationStopsPipeline)
{
    runtime::CancelToken token;
    token.cancel();
    auto opt = fastOptions();
    opt.cancel = &token;
    Prover::Report rep;
    auto r = proveUnderPlan("seed=11;launch@msm.gzkp:1", &rep, opt);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    EXPECT_FALSE(rep.succeeded);
}

/** An already-expired deadline maps to kDeadlineExceeded. */
TEST(Chaos, ExpiredDeadlineStopsPipeline)
{
    runtime::CancelToken token;
    token.setTimeout(std::chrono::milliseconds(-1));
    auto opt = fastOptions();
    opt.cancel = &token;
    auto r = proveUnderPlan("", nullptr, opt);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

/**
 * Checkpoint/resume of Algorithm-1 preprocessing: a transient fault
 * mid-preprocess costs one retry but not the completed blocks, and
 * the resumed table computes the same MSM as a fault-free one.
 */
TEST(Chaos, PreprocessResumesFromCheckpoint)
{
    using Cfg = ec::Bn254G1Cfg;
    auto in = testkit::msmInstance<Cfg>(48, testkit::ScalarMix::Dense,
                                        2026);
    msm::GzkpMsm<Cfg>::Options mo;
    mo.threads = 2;
    msm::GzkpMsm<Cfg> engine(mo);
    auto expect = engine.run(in.points, in.scalars);

    faultsim::ScopedFaultPlan guard(
        "seed=12;launch@msm.gzkp.preprocess:1#1");
    std::size_t attempts = 0;
    auto pp = zkp::preprocessWithResume(engine, in.points, 3,
                                        &attempts);
    ASSERT_TRUE(pp.isOk()) << pp.status().toString();
    EXPECT_EQ(attempts, 2u);
    EXPECT_EQ(engine.run(*pp, in.scalars), expect);
}

/**
 * The same on a G2 GLV table, with the fault in the middle of the
 * build: the blocks committed before it are kept, and the resumed
 * table equals a fault-free one entry for entry.
 */
TEST(Chaos, G2GlvPreprocessResumesFromCheckpoint)
{
    using Cfg = ec::Bn254G2Cfg;
    using Engine = msm::GzkpMsm<Cfg>;
    auto in = testkit::msmInstance<Cfg>(24, testkit::ScalarMix::Dense,
                                        2028);
    Engine::Options mo;
    mo.threads = 2;
    mo.k = 6;
    mo.checkpointM = 2; // 11 checkpoint blocks
    Engine engine(mo);
    auto clean = engine.preprocess(in.points);
    ASSERT_TRUE(clean.glv);

    faultsim::ScopedFaultPlan guard(
        "seed=16;launch@msm.gzkp.preprocess:4#1"); // fires at block 5
    Engine::PreprocessProgress progress;
    EXPECT_THROW(engine.preprocessResumable(in.points, progress),
                 StatusError);
    EXPECT_GT(progress.done, 0u);
    EXPECT_LT(progress.done, clean.checkpoints);
    auto pp = engine.preprocessResumable(in.points, progress);
    EXPECT_TRUE(pp.pre == clean.pre);
    EXPECT_EQ(engine.run(pp, in.scalars), engine.run(clean, in.scalars));
}

/**
 * A transient allocation fault before the first block, on a query
 * whose every third base is the identity: the retry rebuilds the same
 * live positions and table.
 */
TEST(Chaos, PreprocessRetryKeepsTheLiveBases)
{
    using Cfg = ec::Bn254G1Cfg;
    auto in = testkit::msmInstance<Cfg>(30, testkit::ScalarMix::Dense,
                                        2029);
    for (std::size_t i = 0; i < in.points.size(); i += 3)
        in.points[i] = ec::AffinePoint<Cfg>::identity();
    msm::GzkpMsm<Cfg> engine;
    auto clean = engine.preprocess(in.points);
    ASSERT_EQ(clean.live, 20u);

    faultsim::ScopedFaultPlan guard(
        "seed=14;alloc@msm.gzkp.preprocess:1#1");
    std::size_t attempts = 0;
    auto pp = zkp::preprocessWithResume(engine, in.points, 3,
                                        &attempts);
    ASSERT_TRUE(pp.isOk()) << pp.status().toString();
    EXPECT_EQ(attempts, 2u);
    EXPECT_EQ(pp->index, clean.index);
    EXPECT_TRUE(pp->pre == clean.pre);
    EXPECT_EQ(engine.run(*pp, in.scalars),
              msm::msmNaive<Cfg>(in.points, in.scalars));
}

/** Persistent preprocess faults exhaust the bounded retries. */
TEST(Chaos, PreprocessRetriesAreBounded)
{
    using Cfg = ec::Bn254G1Cfg;
    auto in = testkit::msmInstance<Cfg>(16, testkit::ScalarMix::Dense,
                                        2027);
    msm::GzkpMsm<Cfg> engine;
    faultsim::ScopedFaultPlan guard(
        "seed=13;alloc@msm.gzkp.preprocess:1");
    std::size_t attempts = 0;
    auto pp = zkp::preprocessWithResume(engine, in.points, 3,
                                        &attempts);
    ASSERT_FALSE(pp.isOk());
    EXPECT_EQ(pp.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(attempts, 3u);
}

/** GZKP_FAULTS environment wiring: parse + install + run + recover. */
TEST(Chaos, EnvPlanRoundTrip)
{
    ASSERT_EQ(
        setenv("GZKP_FAULTS", "seed=21;launch@msm.gzkp:1#1", 1), 0);
    Status s = faultsim::installFromEnv();
    ASSERT_TRUE(s.isOk()) << s.toString();
    EXPECT_TRUE(faultsim::active());

    const ChaosFixture &fx = chaosFixture();
    auto prover = zkp::makeBn254SelfCheckingProver(fastOptions());
    Rng rng(deriveSeed(99, 2));
    Prover::Report rep;
    auto r = prover.prove(fx.keys.pk, fx.keys.vk, fx.builder.cs(),
                          fx.builder.assignment(), rng, &rep);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(rep.attempts.size(), 2u);

    faultsim::clearPlan();
    unsetenv("GZKP_FAULTS");
}

/**
 * The sweep: >= 240 seeded random plans, every single one must end
 * clean. Both terminal states must actually occur across the sweep,
 * or the invariant would be vacuously satisfiable.
 */
TEST(Chaos, ChaosSweep)
{
    std::size_t proofs = 0, errors = 0, demoted = 0;
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        auto plan = testkit::randomChaosPlan(testkit::kProverChaos, seed);
        auto out = testkit::runChaosPlan(plan, seed);
        ASSERT_TRUE(out.clean())
            << "seed " << seed << " plan \"" << plan.toString()
            << "\": " << out.status.toString()
            << (out.releasedBadProof ? " [RELEASED BAD PROOF]" : "");
        if (out.proofOk) {
            ++proofs;
            if (out.report.backendUsed != ProverBackend::Gzkp)
                ++demoted;
        } else {
            ++errors;
        }
    }
    EXPECT_GT(proofs, 0u);
    EXPECT_GT(errors, 0u);
    EXPECT_GT(demoted, 0u);
}

// ------------------------------------------------- serving layer chaos

using Service = service::ProofService<Bn254Family>;

std::unique_ptr<Service>
makeChaosService()
{
    Service::Options opt;
    opt.threads = 2;
    return service::makeBn254ProofService(opt);
}

/**
 * A persistent queue fault rejects every admission with the typed
 * kResourceExhausted -- backpressure, not a crash, and nothing
 * reaches the prover.
 */
TEST(ServiceChaos, QueueFaultRejectsTyped)
{
    const ChaosFixture &fx = chaosFixture();
    faultsim::ScopedFaultPlan guard("seed=30;alloc@service.queue:1");
    auto svc = makeChaosService();
    auto id = svc->registerCircuit(fx.keys.pk, fx.keys.vk,
                                   fx.builder.cs());
    for (std::uint64_t i = 0; i < 3; ++i) {
        Service::Request req;
        req.circuit = id;
        req.witness = fx.builder.assignment();
        req.seed = i;
        auto admitted = svc->submit(std::move(req));
        ASSERT_FALSE(admitted.isOk());
        EXPECT_EQ(admitted.status().code(),
                  StatusCode::kResourceExhausted);
    }
    EXPECT_EQ(svc->stats().rejected, 3u);
    EXPECT_EQ(svc->stats().accepted, 0u);
    EXPECT_EQ(svc->drain(), 0u);
}

/**
 * A persistent cache-build fault never blocks proving: every batch
 * falls back to the uncached path and the proof is still released
 * and valid.
 */
TEST(ServiceChaos, CacheBuildFaultFallsBackToUncachedProof)
{
    const ChaosFixture &fx = chaosFixture();
    faultsim::ScopedFaultPlan guard(
        "seed=31;alloc@service.cache.build:1");
    auto svc = makeChaosService();
    auto id = svc->registerCircuit(fx.keys.pk, fx.keys.vk,
                                   fx.builder.cs());
    Service::Request req;
    req.circuit = id;
    req.witness = fx.builder.assignment();
    req.seed = 12;
    auto admitted = svc->submit(std::move(req));
    ASSERT_TRUE(admitted.isOk());
    svc->drain();
    Service::Result res = admitted->get();
    ASSERT_TRUE(res.status.isOk()) << res.status.toString();
    EXPECT_TRUE(res.cacheBypass);
    EXPECT_FALSE(res.cacheHit);
    EXPECT_TRUE(
        zkp::verifyBn254(fx.keys.vk, *res.proof, fx.publicInputs));
    EXPECT_GE(svc->stats().cache.buildFailures, 1u);
    EXPECT_EQ(svc->stats().cacheBypasses, 1u);
}

/**
 * The nightmare scenario: the *cached* Algorithm-1 table is
 * corrupted after it was built, so every warm request computes over
 * poisoned data. The self-check must catch it (kDataLoss) and the
 * pipeline demote to a backend that ignores the cached artifacts --
 * a bad proof is never released.
 */
TEST(ServiceChaos, CorruptedCachedTableNeverReleasesBadProof)
{
    const ChaosFixture &fx = chaosFixture();
    faultsim::ScopedFaultPlan guard(
        "seed=32;bucket@service.cache.table:1");
    auto svc = makeChaosService();
    auto id = svc->registerCircuit(fx.keys.pk, fx.keys.vk,
                                   fx.builder.cs());
    for (std::uint64_t i = 0; i < 2; ++i) { // cold, then warm hit
        Service::Request req;
        req.circuit = id;
        req.witness = fx.builder.assignment();
        req.seed = 40 + i;
        auto admitted = svc->submit(std::move(req));
        ASSERT_TRUE(admitted.isOk());
        svc->drain();
        Service::Result res = admitted->get();
        if (res.status.isOk()) {
            // Released => must verify independently, whatever backend
            // it took to get there.
            EXPECT_TRUE(zkp::verifyBn254(fx.keys.vk, *res.proof,
                                         fx.publicInputs))
                << "released bad proof (seed " << (40 + i) << ")";
        } else {
            EXPECT_NE(res.status.code(), StatusCode::kOk);
        }
    }
    EXPECT_GT(faultsim::firedCount(), 0u)
        << "the table-corruption probe never fired";
}

/**
 * One service sweep: plans 1..`seeds` of vocabulary `v`, each driving
 * a whole multi-request service run over `requests(seed)`. Every run
 * must end clean -- never a bad proof, and on routing-only plans
 * every delivered proof byte-identical to its reference -- and both
 * terminal states must occur across the sweep.
 */
void
serviceChaosSweep(const testkit::ChaosVocabulary &v, std::uint64_t seeds,
                  std::vector<testkit::ChaosRequest> (*requests)(
                      std::uint64_t),
                  const std::string &topology = "")
{
    std::size_t proofs = 0, errors = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        auto plan = testkit::randomChaosPlan(v, seed);
        auto out = testkit::runServiceChaosPlan(plan, requests(seed),
                                                topology);
        ASSERT_TRUE(out.clean())
            << "seed " << seed << " plan \"" << plan.toString()
            << (out.releasedBadProof ? "\" released a bad proof"
                                     : "\" broke byte identity");
        proofs += out.proofsOk;
        errors += out.typedErrors + out.rejectedAtQueue;
    }
    EXPECT_GT(proofs, 0u);
    EXPECT_GT(errors, 0u);
}

/**
 * The service sweep: seeded random plans over the full site
 * vocabulary (queue, cache build, cached tables, plus every prover
 * site) against four single-tenant requests.
 */
TEST(ServiceChaos, ServiceChaosSweep)
{
    serviceChaosSweep(testkit::kServiceChaos, 40,
                      testkit::serviceChaosRequests);
}

/**
 * The overload sweep: seeded plans biased toward the routing sites
 * (service.shed / service.breaker) run against a deadline-laden,
 * multi-tenant service.
 */
TEST(ServiceChaos, OverloadChaosSweep)
{
    serviceChaosSweep(testkit::kOverloadChaos, 44,
                      testkit::overloadChaosRequests);
}

/**
 * The device sweep: seeded plans biased toward the per-device
 * fault sites (device.fail / device.mem / device.slow, generic and
 * instance-targeted) run against a service on the fixed heterogeneous
 * topology -- placement, per-device breakers and inline stage
 * retries all live. Every device site is routing/timing-only,
 * so plans touching only device and routing sites must deliver bytes
 * identical to the fault-free single-lane reference.
 */
TEST(ServiceChaos, DeviceChaosSweep)
{
    serviceChaosSweep(testkit::kDeviceChaos, 24,
                      testkit::overloadChaosRequests,
                      testkit::kDeviceChaosTopology);
}

/** The fuzz-registry fault target agrees with the direct sweep. */
TEST(Chaos, FuzzFaultTargetSweep)
{
    testkit::FuzzReport rep;
    for (std::uint64_t seed = 500; seed < 540; ++seed)
        testkit::fuzzInstance(*testkit::fuzzTarget("fault"), {seed}, rep);
    EXPECT_TRUE(rep.ok()) << rep.failures.size() << " failure(s), e.g. "
                          << rep.failures[0].detail;
}

} // namespace
