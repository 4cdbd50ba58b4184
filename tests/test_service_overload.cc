/**
 * @file
 * Overload-hardening suite: fair-share scheduling, deadline admission
 * and shedding, backend health / circuit breakers, the consistent
 * stats snapshot, and the single-flight failure broadcast. The
 * acceptance gates asserted here:
 *
 *  - infeasible deadlines are rejected AT ADMISSION with a typed
 *    kDeadlineExceeded, and a saturated service completes zero proofs
 *    after their deadline expired (ok => on time, structurally);
 *  - a persistently failing backend opens its breaker and later
 *    requests skip it service-wide (learned demotion);
 *  - shutdown during an in-flight prove cancels it and never leaks
 *    the worker thread (the test finishing is the leak check: the
 *    join is on the path to return);
 *  - ArtifactCache build failure propagates one typed error to every
 *    single-flight waiter and permits a later rebuild.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "faultsim/faultsim.hh"
#include "msm/msm_gzkp.hh"
#include "ntt/domain.hh"
#include "runtime/runtime.hh"
#include "service/proof_service.hh"
#include "testkit/testkit.hh"
#include "zkp/serialize.hh"

namespace {

using namespace gzkp;
using testkit::deriveSeed;
using testkit::Rng;
using zkp::Bn254Family;
using G16 = zkp::Groth16<Bn254Family>;
using Fr = ff::Bn254Fr;
using Service = service::ProofService<Bn254Family>;
using Cache = service::ArtifactCache<Bn254Family>;
using service::BreakerOptions;
using service::BreakerState;
using service::CostEstimator;
using service::FairShareQueue;

struct OverloadFixture {
    workload::Builder<Fr> builder;
    G16::Keys keys;
    std::vector<Fr> pub;

    OverloadFixture() : builder(testkit::randomCircuit<Fr>(0x0F1, 10))
    {
        Rng rng(deriveSeed(0x0F1, 1));
        keys = G16::setup(builder.cs(), rng);
        const auto &z = builder.assignment();
        pub.assign(z.begin() + 1,
                   z.begin() + 1 + builder.cs().numPublic());
    }
};

const OverloadFixture &
fx()
{
    static const OverloadFixture f;
    return f;
}

Service::Options
baseOptions()
{
    Service::Options opt;
    opt.threads = 2;
    opt.cacheBytes = 64ull << 20;
    return opt;
}

Service::Request
makeRequest(Service::CircuitId id, std::uint64_t seed,
            std::uint64_t tenant = 0,
            std::chrono::milliseconds timeout = {})
{
    Service::Request req;
    req.circuit = id;
    req.witness = fx().builder.assignment();
    req.seed = seed;
    req.tenant = tenant;
    req.timeout = timeout;
    return req;
}

// --------------------------------------------------- fair-share queue

/** DRR serves tenants in proportion to their weights. */
TEST(FairShareQueueTest, DeficitRoundRobinHonorsWeights)
{
    FairShareQueue<int> q;
    q.setWeight(0, 4);
    q.setWeight(1, 1);
    for (int i = 0; i < 20; ++i)
        q.push(0, i);
    for (int i = 0; i < 20; ++i)
        q.push(1, 100 + i);
    std::size_t a = 0, b = 0;
    FairShareQueue<int>::Item item;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.pop(item));
        (item.tenant == 0 ? a : b) += 1;
    }
    // Weight 4:1 over 10 pops: 8 vs 2.
    EXPECT_EQ(a, 8u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(q.size(), 30u);
}

/** Within a tenant, requests leave in arrival order. */
TEST(FairShareQueueTest, FifoWithinTenant)
{
    FairShareQueue<char> q;
    q.setWeight(7, 2);
    q.push(7, 'a');
    q.push(8, 'w');
    q.push(7, 'b');
    q.push(8, 'x');
    q.push(7, 'c');
    q.push(8, 'y');
    q.push(7, 'd');
    FairShareQueue<char>::Item item;
    std::string order;
    while (q.pop(item))
        order.push_back(item.value);
    // Two of tenant 7 per round, one of tenant 8; each tenant's own
    // items keep their push order.
    EXPECT_EQ(order, "abwcdxy");
}

/** A starved tenant is served as soon as it becomes active. */
TEST(FairShareQueueTest, LateTenantIsNotStarved)
{
    FairShareQueue<int> q;
    q.setWeight(0, 3);
    for (int i = 0; i < 50; ++i)
        q.push(0, i);
    FairShareQueue<int>::Item item;
    ASSERT_TRUE(q.pop(item));
    q.push(1, 999); // arrives late, weight 1
    // Tenant 1 must be served within one full DRR round (at most
    // tenant 0's weight, 3, more pops of tenant 0).
    std::size_t before = 0;
    for (;;) {
        ASSERT_TRUE(q.pop(item));
        if (item.tenant == 1)
            break;
        ++before;
        ASSERT_LE(before, 3u);
    }
    EXPECT_EQ(item.value, 999);
}

TEST(FairShareQueueTest, ParseTenantWeightsSpec)
{
    auto ok = service::parseTenantWeightsSpec("0:10,1:1,7=3");
    ASSERT_TRUE(ok.isOk());
    EXPECT_EQ(ok->size(), 3u);
    EXPECT_EQ((*ok)[0], 10u);
    EXPECT_EQ((*ok)[1], 1u);
    EXPECT_EQ((*ok)[7], 3u);

    EXPECT_TRUE(service::parseTenantWeightsSpec(nullptr).isOk());
    EXPECT_TRUE(service::parseTenantWeightsSpec("")->empty());

    // Clamping: 0 -> 1, huge -> 10^6.
    auto clamped = service::parseTenantWeightsSpec("1:0,2:9999999");
    ASSERT_TRUE(clamped.isOk());
    EXPECT_EQ((*clamped)[1], 1u);
    EXPECT_EQ((*clamped)[2], 1000000u);

    for (const char *bad :
         {"abc", "1", "1:", ":2", "1:2,", "1:2;3:4", "1:2x"}) {
        auto r = service::parseTenantWeightsSpec(bad);
        EXPECT_FALSE(r.isOk()) << bad;
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
            << bad;
    }
}

// ------------------------------------------------------ cost estimator

TEST(CostEstimatorTest, Ewma)
{
    CostEstimator est;
    EXPECT_EQ(est.estimate(3), 0.0); // optimistic cold start
    EXPECT_EQ(est.samples(3), 0u);
    est.record(3, 1.0);
    EXPECT_DOUBLE_EQ(est.estimate(3), 1.0); // init to first sample
    est.record(3, 2.0);
    EXPECT_NEAR(est.estimate(3), 1.3, 1e-12); // alpha = 0.3
    EXPECT_EQ(est.samples(3), 2u);
}

// ------------------------------------------------------ circuit breaker

BreakerOptions
breakerOptions()
{
    BreakerOptions opt;
    opt.window = 8;
    opt.minSamples = 4;
    opt.failureThreshold = 0.5;
    opt.cooldownDenials = 3;
    opt.cooldownJitter = 0; // deterministic target in this unit test
    opt.probeSuccesses = 1;
    return opt;
}

/** The registry ProofService builds: one breaker per ladder backend. */
zkp::BackendBreakers
backendBreakers()
{
    return zkp::BackendBreakers(zkp::kProverBackendCount,
                                breakerOptions(), "service.breaker");
}

TEST(BreakerRegistryTest, BreakerOpensHalfOpensAndCloses)
{
    auto h = backendBreakers();
    auto gzkp = zkp::ProverBackend::Gzkp;
    EXPECT_EQ(h.state(gzkp), BreakerState::Closed);
    EXPECT_TRUE(h.allow(gzkp));

    Status fail = unavailableError("injected");
    for (int i = 0; i < 4; ++i)
        h.record(gzkp, fail);
    EXPECT_EQ(h.state(gzkp), BreakerState::Open);

    // Cooldown counted in denials: two denies, then the probe.
    EXPECT_FALSE(h.allow(gzkp));
    EXPECT_FALSE(h.allow(gzkp));
    EXPECT_TRUE(h.allow(gzkp)); // third: half-open probe admitted
    EXPECT_EQ(h.state(gzkp), BreakerState::HalfOpen);

    // Probe failure re-opens with a fresh cooldown.
    h.record(gzkp, fail);
    EXPECT_EQ(h.state(gzkp), BreakerState::Open);
    EXPECT_FALSE(h.allow(gzkp));
    EXPECT_FALSE(h.allow(gzkp));
    EXPECT_TRUE(h.allow(gzkp));

    // Probe success closes and forgets the brown-out window.
    h.record(gzkp, Status::ok());
    EXPECT_EQ(h.state(gzkp), BreakerState::Closed);
    EXPECT_TRUE(h.allow(gzkp));

    auto snap = h.snapshot();
    EXPECT_EQ(snap[gzkp].opens, 2u);
    EXPECT_GE(snap[gzkp].attempts, 5u);
    EXPECT_EQ(snap.totalOpens, 2u);
}

/** Cooperative stops and caller bugs never indict the backend. */
TEST(BreakerRegistryTest, NeutralStatusesDoNotOpenBreaker)
{
    auto h = backendBreakers();
    auto b = zkp::ProverBackend::Serial;
    for (int i = 0; i < 16; ++i) {
        h.record(b, cancelledError("stop"));
        h.record(b, deadlineExceededError("late"));
        h.record(b, invalidArgumentError("caller bug"));
    }
    EXPECT_EQ(h.state(b), BreakerState::Closed);
    EXPECT_EQ(h.snapshot()[b].windowFailureRate, 0.0);
}

/** service.breaker fault: a lying allow() is routing-only. */
TEST(BreakerRegistryTest, InjectedBreakerDenialIsSpurious)
{
    faultsim::FaultPlan plan;
    plan.seed = 0xB4;
    plan.arms.push_back(
        {faultsim::FaultKind::Launch, "service.breaker", 1, 0});
    faultsim::ScopedFaultPlan guard(plan);
    auto h = backendBreakers();
    // Every allow() is denied by the injected fault even though the
    // breaker is Closed...
    EXPECT_FALSE(h.allow(zkp::ProverBackend::Gzkp));
    EXPECT_EQ(h.state(zkp::ProverBackend::Gzkp), BreakerState::Closed);
    // ...and the prover pipeline falls back to the full ladder when
    // every breaker denies, so requests still complete.
    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    auto admitted = svc->submit(makeRequest(id, 1));
    ASSERT_TRUE(admitted.isOk());
    svc->drain();
    Service::Result res = admitted->get();
    ASSERT_TRUE(res.status.isOk()) << res.status.toString();
    EXPECT_TRUE(zkp::verifyBn254(fx().keys.vk, *res.proof, fx().pub));
}

/**
 * The never-strand rule the ladder and device placement share: admit()
 * lets through the domains whose breakers allow, and all of them when
 * every one denies. Each denial still counts toward its cooldown.
 */
TEST(BreakerRegistryTest, AdmitNeverStrands)
{
    service::BreakerRegistry<> h(3, breakerOptions());
    Status fail = unavailableError("injected");
    for (int i = 0; i < 4; ++i)
        h.record(1, fail);
    auto some = h.admit();
    EXPECT_EQ(some.domains, (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(some.denied, 1u);

    for (std::size_t d : {0, 2})
        for (int i = 0; i < 4; ++i)
            h.record(d, fail);
    // Domain 1 has one denial toward its cooldown of 3; 0 and 2 none.
    auto all = h.admit();
    EXPECT_EQ(all.domains, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(all.denied, 3u);
    for (std::size_t d = 0; d < 3; ++d)
        EXPECT_EQ(h.state(d), BreakerState::Open) << d;
    auto snap = h.snapshot();
    EXPECT_EQ(snap[0].denials, 1u);
    EXPECT_EQ(snap[1].denials, 2u);
    EXPECT_EQ(snap[2].denials, 1u);

    // Domain 1's third denial ends its cooldown: it is admitted as
    // the half-open probe, so the fallback does not admit the others.
    auto probe = h.admit();
    EXPECT_EQ(probe.domains, (std::vector<std::size_t>{1}));
    EXPECT_EQ(probe.denied, 2u);
    EXPECT_EQ(h.state(1), BreakerState::HalfOpen);
    auto rest = h.admit();
    EXPECT_EQ(rest.domains, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(h.state(0), BreakerState::HalfOpen);
    EXPECT_EQ(h.state(2), BreakerState::HalfOpen);
}

// -------------------------------------------------- deadline admission

/** The cost model makes submit() reject infeasible deadlines. */
TEST(ServiceOverload, AdmissionShedsInfeasibleDeadline)
{
    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    svc->trainCostModel(id, 10.0, 4); // 10s per prove, says the model

    auto shed = svc->submit(
        makeRequest(id, 1, 0, std::chrono::milliseconds(1000)));
    ASSERT_FALSE(shed.isOk());
    EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);

    // No deadline: admitted regardless of the model.
    auto open = svc->submit(makeRequest(id, 2));
    ASSERT_TRUE(open.isOk());
    // Generous deadline: admitted.
    auto generous = svc->submit(
        makeRequest(id, 3, 0, std::chrono::minutes(5)));
    ASSERT_TRUE(generous.isOk());

    Service::Stats st = svc->stats();
    EXPECT_EQ(st.shedAdmission, 1u);
    EXPECT_EQ(st.rejected, 1u);
    EXPECT_EQ(st.accepted, 2u);
    svc->shutdownNow(); // don't pay two real proves in this unit test
}

/** Backlog counts against the budget: a feasible-alone deadline is
    shed once enough estimated work is queued ahead of it. */
TEST(ServiceOverload, AdmissionAccountsForQueueBacklog)
{
    auto opt = baseOptions();
    opt.maxQueueDepth = 64;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    svc->trainCostModel(id, 0.4, 4); // 0.4s per prove

    // 1s budget fits one 0.4s prove with an empty queue...
    auto first = svc->submit(
        makeRequest(id, 1, 0, std::chrono::milliseconds(1000)));
    ASSERT_TRUE(first.isOk());
    // ...queue two more no-deadline requests (0.8s more backlog)...
    ASSERT_TRUE(svc->submit(makeRequest(id, 2)).isOk());
    ASSERT_TRUE(svc->submit(makeRequest(id, 3)).isOk());
    // ...now 1.2s backlog + 0.4s own > 1s: shed at admission.
    auto shed = svc->submit(
        makeRequest(id, 4, 0, std::chrono::milliseconds(1000)));
    ASSERT_FALSE(shed.isOk());
    EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
    svc->shutdownNow();
}

/** One tenant's backlog cannot blind admission to tenancy: the
    per-tenant bound sheds the hog and still admits others. */
TEST(ServiceOverload, PerTenantDepthBoundShedsOnlyTheHog)
{
    auto opt = baseOptions();
    opt.maxQueueDepth = 64;
    opt.maxQueuePerTenant = 2;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    ASSERT_TRUE(svc->submit(makeRequest(id, 1, /*tenant=*/5)).isOk());
    ASSERT_TRUE(svc->submit(makeRequest(id, 2, 5)).isOk());
    auto hog = svc->submit(makeRequest(id, 3, 5));
    ASSERT_FALSE(hog.isOk());
    EXPECT_EQ(hog.status().code(), StatusCode::kResourceExhausted);
    // A different tenant is unaffected by tenant 5's backlog.
    EXPECT_TRUE(svc->submit(makeRequest(id, 4, /*tenant=*/6)).isOk());
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.rejected, 1u);
    EXPECT_EQ(st.accepted, 3u);
    svc->shutdownNow();
}

/** Seconds one warm prove of the fixture circuit takes, as measured. */
double
measuredProveSeconds()
{
    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    // The first request also builds the artifacts; time the second.
    auto first = svc->submit(makeRequest(id, 1));
    auto second = svc->submit(makeRequest(id, 2));
    EXPECT_TRUE(first.isOk() && second.isOk());
    svc->drain();
    Service::Result res = second->get();
    EXPECT_TRUE(res.status.isOk());
    return res.proveSeconds;
}

/**
 * Saturation: more deadline work than capacity. The service may shed
 * at admission, at dequeue, or late-drop -- but an OK result is
 * always on time, and accounting closes exactly.
 */
TEST(ServiceOverload, SaturationCompletesZeroProofsPastDeadline)
{
    // Eight requests, each with a budget of two proves: saturated
    // however fast one prove runs.
    const double budget_s = 2 * measuredProveSeconds();
    const auto budget = std::chrono::duration_cast<
        std::chrono::milliseconds>(std::chrono::duration<double>(budget_s));
    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());

    std::vector<std::future<Service::Result>> futures;
    std::size_t shedAtDoor = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        auto admitted =
            svc->submit(makeRequest(id, 100 + i, i % 2, budget));
        if (!admitted.isOk()) {
            EXPECT_EQ(admitted.status().code(),
                      StatusCode::kDeadlineExceeded);
            ++shedAtDoor;
            continue;
        }
        futures.push_back(std::move(*admitted));
    }
    svc->drain();

    std::size_t onTime = 0, lateTyped = 0;
    for (auto &f : futures) {
        Service::Result res = f.get();
        if (res.status.isOk()) {
            ASSERT_TRUE(res.proof.has_value());
            EXPECT_TRUE(
                zkp::verifyBn254(fx().keys.vk, *res.proof, fx().pub));
            // The acceptance gate: ok => delivered within budget.
            EXPECT_LE(res.queueSeconds + res.proveSeconds,
                      budget_s + 0.05);
            ++onTime;
        } else {
            EXPECT_EQ(res.status.code(),
                      StatusCode::kDeadlineExceeded)
                << res.status.toString();
            ++lateTyped;
        }
    }
    // Eight proves against two-prove budgets: the tail must get shed.
    EXPECT_GE(lateTyped + shedAtDoor, 1u);
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.completed, onTime);
    EXPECT_EQ(st.failed, lateTyped);
    EXPECT_EQ(st.completed + st.failed, st.accepted);
    EXPECT_GE(st.deadlineExpired, lateTyped);
}

// ---------------------------------------------- service-wide learning

/** A persistently browned-out backend opens its breaker; later
    requests skip it without paying its retry budget. */
TEST(ServiceOverload, BreakerLearnsAcrossRequests)
{
    faultsim::FaultPlan plan;
    plan.seed = 0xB0;
    plan.arms.push_back(
        {faultsim::FaultKind::Launch, "msm.gzkp", 1, 0}); // persistent
    faultsim::ScopedFaultPlan guard(plan);

    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());

    for (std::uint64_t i = 0; i < 5; ++i) {
        auto admitted = svc->submit(makeRequest(id, 200 + i));
        ASSERT_TRUE(admitted.isOk());
        svc->drain();
        Service::Result res = admitted->get();
        ASSERT_TRUE(res.status.isOk()) << res.status.toString();
        EXPECT_NE(res.backendUsed, zkp::ProverBackend::Gzkp);
        EXPECT_TRUE(
            zkp::verifyBn254(fx().keys.vk, *res.proof, fx().pub));
    }
    Service::Stats st = svc->stats();
    ASSERT_TRUE(st.healthTracking);
    EXPECT_GE(st.health[zkp::ProverBackend::Gzkp].opens, 1u);
    EXPECT_EQ(st.health[zkp::ProverBackend::Gzkp].state,
              BreakerState::Open);
    // The learned skip: at least the post-open requests never touched
    // the gzkp tier.
    EXPECT_GE(st.backendsSkipped, 1u);
}

/**
 * Only the GZKP tier reads the cached artifacts, so while its breaker
 * is open a cache miss builds nothing. A persistent kernel fault fails
 * every GZKP attempt, and a persistent alloc fault at
 * "service.cache.build" fails every build at its first step, so a
 * request fires a probe only when it attempts a build or a GZKP
 * prove. The budget fits the artifacts, so the cache's memory of
 * over-budget keys plays no part.
 */
TEST(ServiceOverload, OpenGzkpBreakerDefersArtifactBuilds)
{
    faultsim::FaultPlan plan;
    plan.seed = 0xB0;
    plan.arms.push_back({faultsim::FaultKind::Launch, "msm.gzkp.kernel",
                         1, 0}); // persistent, prove-time only
    plan.arms.push_back({faultsim::FaultKind::Alloc, "service.cache.build",
                         1, 0}); // persistent: every build fails
    faultsim::ScopedFaultPlan guard(plan);

    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    std::vector<std::uint64_t> fired;
    for (std::uint64_t i = 0; i < 6; ++i) {
        std::uint64_t before = faultsim::firedCount();
        auto admitted = svc->submit(makeRequest(id, 500 + i));
        ASSERT_TRUE(admitted.isOk());
        svc->drain();
        Service::Result res = admitted->get();
        ASSERT_TRUE(res.status.isOk()) << res.status.toString();
        EXPECT_TRUE(res.cacheBypass);
        EXPECT_TRUE(
            zkp::verifyBn254(fx().keys.vk, *res.proof, fx().pub));
        fired.push_back(faultsim::firedCount() - before);
    }
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.health[zkp::ProverBackend::Gzkp].state,
              BreakerState::Open);
    EXPECT_EQ(st.cache.misses, 6u);
    EXPECT_EQ(st.cache.builds, 0u);
    EXPECT_EQ(st.cache.buildFailures, 6u); // 2 failed, 4 deferred
    EXPECT_EQ(st.cacheBypasses, 6u);
    // Requests 1 and 2 find the breaker closed: each attempts the
    // build (one alloc fire) and fails both gzkp attempts (launch
    // fires), which opens the breaker at its fourth windowed failure.
    // Requests 3-6 find it open: they neither build nor try gzkp, so
    // no probe fires.
    EXPECT_GE(fired[0], 2u);
    EXPECT_GE(fired[1], 2u);
    for (std::size_t i = 2; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], 0u) << "request " << i + 1;
}

// ------------------------------------------------------------ shutdown

/**
 * Shutdown during an in-flight prove. The request token hangs off the
 * shutdown token; shutdownNow() must resolve every future (kCancelled
 * or a completed proof, depending on how far the prove got) and join
 * the worker -- this test returning at all is the no-leak assertion,
 * since the worker join is on the only exit path.
 */
TEST(ServiceOverload, ShutdownMidProveCancelsInFlight)
{
    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    svc->start();
    std::vector<std::future<Service::Result>> futures;
    for (std::uint64_t i = 0; i < 3; ++i) {
        auto admitted = svc->submit(makeRequest(id, 300 + i));
        ASSERT_TRUE(admitted.isOk());
        futures.push_back(std::move(*admitted));
    }
    // Let the worker pick a request up, then pull the plug mid-prove.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    svc->shutdownNow();
    std::size_t cancelled = 0, completedOk = 0;
    for (auto &f : futures) {
        Service::Result res = f.get(); // must never hang
        if (res.status.isOk()) {
            ++completedOk;
            EXPECT_TRUE(
                zkp::verifyBn254(fx().keys.vk, *res.proof, fx().pub));
        } else {
            EXPECT_EQ(res.status.code(), StatusCode::kCancelled)
                << res.status.toString();
            ++cancelled;
        }
    }
    EXPECT_EQ(cancelled + completedOk, futures.size());
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.completed + st.failed, st.accepted);
}

// ------------------------------------------------- token deadline chain

TEST(RuntimeCancelChain, DeadlinePropagatesThroughParentChain)
{
    using Clock = runtime::CancelToken::Clock;
    runtime::CancelToken root, mid, leaf;
    mid.linkParent(&root);
    leaf.linkParent(&mid);

    EXPECT_FALSE(leaf.deadline().has_value());
    auto t1 = Clock::now() + std::chrono::seconds(10);
    auto t2 = Clock::now() + std::chrono::seconds(20);
    root.setDeadline(t2);
    ASSERT_TRUE(leaf.deadline().has_value());
    EXPECT_EQ(*leaf.deadline(), t2);
    // The leaf's own (earlier) deadline wins the min.
    leaf.setDeadline(t1);
    EXPECT_EQ(*leaf.deadline(), t1);
    // A tighter ancestor wins again.
    auto t0 = Clock::now() + std::chrono::seconds(1);
    mid.setDeadline(t0);
    EXPECT_EQ(*leaf.deadline(), t0);

    // Cancellation still propagates the whole chain at once.
    EXPECT_FALSE(leaf.cancelled());
    root.cancel();
    EXPECT_TRUE(mid.cancelled());
    EXPECT_TRUE(leaf.cancelled());
}

// ------------------------------------------------------ stats snapshot

/**
 * Satellite: stats() is one consistent copy-out. Readers hammer the
 * snapshot while the background worker proves; every snapshot must
 * satisfy the cross-field invariants (the TSAN CI job runs it with
 * the rest of the fast tier).
 */
TEST(ServiceOverload, StatsSnapshotIsConsistentUnderConcurrency)
{
    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    svc->start();
    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load(std::memory_order_relaxed)) {
            Service::Stats st = svc->stats();
            EXPECT_LE(st.completed + st.failed, st.accepted);
            EXPECT_LE(st.batches, st.accepted); // dequeued <= admitted
            std::this_thread::yield();
        }
    });
    std::vector<std::future<Service::Result>> futures;
    for (std::uint64_t i = 0; i < 4; ++i) {
        auto admitted = svc->submit(makeRequest(id, 400 + i, i % 2));
        ASSERT_TRUE(admitted.isOk());
        futures.push_back(std::move(*admitted));
    }
    for (auto &f : futures)
        f.get();
    done.store(true, std::memory_order_relaxed);
    reader.join();
    svc->stop();
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.completed, 4u);
    EXPECT_EQ(st.completed + st.failed, st.accepted);
}

// ------------------------------------------- single-flight broadcast

/** A failed build propagates its typed error to every waiter, then a
    later call rebuilds fresh. */
TEST(ArtifactCacheOverload, SingleFlightFailureBroadcastsToWaiters)
{
    Cache cache(64ull << 20);
    std::uint64_t key = service::pkContentHash<Bn254Family>(fx().keys.pk);

    std::promise<void> builderEntered;
    Cache::Builder failing = [&]() -> StatusOr<Cache::ArtifactPtr> {
        builderEntered.set_value();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return internalError("injected build failure");
    };

    std::thread builder([&] {
        auto r = cache.getOrBuild(key, failing);
        EXPECT_FALSE(r.isOk());
        EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    });
    builderEntered.get_future().wait(); // builder owns the flight
    // This call becomes a single-flight waiter and must receive the
    // builder's typed error -- not retry the build itself.
    auto waited = cache.getOrBuild(key, failing);
    builder.join();
    ASSERT_FALSE(waited.isOk());
    EXPECT_EQ(waited.status().code(), StatusCode::kInternal);

    Cache::Stats st = cache.stats();
    EXPECT_EQ(st.buildFailures, 1u); // the waiter did NOT rebuild
    EXPECT_EQ(st.singleFlightWaits, 1u);
    EXPECT_EQ(st.entries, 0u);

    // A later rebuild with a working builder succeeds.
    bool hit = true;
    auto rebuilt = cache.getOrBuild(
        key,
        [&] {
            return service::buildCircuitArtifacts<Bn254Family>(
                fx().keys.pk, key, 2);
        },
        &hit);
    ASSERT_TRUE(rebuilt.isOk()) << rebuilt.status().toString();
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.stats().builds, 1u);
}

/** The faultsim-injected variant: a service.cache.build hit fails the
    flight with kResourceExhausted; the next call rebuilds. */
TEST(ArtifactCacheOverload, InjectedBuildFailureThenRebuild)
{
    faultsim::FaultPlan plan;
    plan.seed = 0xCB;
    plan.arms.push_back(
        {faultsim::FaultKind::Alloc, "service.cache.build", 1, 1});
    faultsim::ScopedFaultPlan guard(plan);

    Cache cache(64ull << 20);
    std::uint64_t key = service::pkContentHash<Bn254Family>(fx().keys.pk);
    auto build = [&] {
        return service::buildCircuitArtifacts<Bn254Family>(
            fx().keys.pk, key, 2);
    };
    auto first = cache.getOrBuild(key, build);
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(cache.stats().buildFailures, 1u);
    // The arm's limit is exhausted: the rebuild goes through.
    auto second = cache.getOrBuild(key, build);
    ASSERT_TRUE(second.isOk()) << second.status().toString();
    EXPECT_EQ(cache.stats().builds, 1u);
}

} // namespace
