/**
 * @file
 * Serving-layer suite: the ArtifactCache contract (content-hash
 * keying, LRU eviction under a byte budget, single-flight,
 * miss-under-pressure), the ProofService front end (admission
 * control, batching, deadlines, cancellation, stats), and the
 * acceptance gates of the serving tentpole:
 *
 *  - a warm-cache run provably skips re-preprocessing (cache hit
 *    counter > 0) and its proof is byte-identical to a cold-cache run
 *    of the same seeded request;
 *  - the cache hit/miss/eviction sequence is deterministic in the
 *    access sequence and budget, independent of thread counts;
 *  - concurrent submitters against a running service reach
 *    deterministic aggregate stats and byte-identical proofs (the CI
 *    TSAN job runs it with the rest of the fast tier).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
using G1Cfg = ec::Bn254G1Cfg;
using Service = service::ProofService<Bn254Family>;
using Cache = service::ArtifactCache<Bn254Family>;

/** Two small distinct tenants, built once per process. */
struct ServiceFixture {
    workload::Builder<Fr> b1, b2;
    G16::Keys k1, k2;
    std::vector<Fr> pub1, pub2;

    ServiceFixture()
        : b1(testkit::randomCircuit<Fr>(0xAB1, 8)),
          // Different constraint count: the two tenants must differ
          // in shape, not just in content, so size-based checks like
          // MsmArtifacts::matches() can tell them apart too.
          b2(testkit::randomCircuit<Fr>(0xAB2, 12))
    {
        Rng r1(deriveSeed(0xAB1, 1));
        Rng r2(deriveSeed(0xAB2, 1));
        k1 = G16::setup(b1.cs(), r1);
        k2 = G16::setup(b2.cs(), r2);
        const auto &z1 = b1.assignment();
        pub1.assign(z1.begin() + 1,
                    z1.begin() + 1 + b1.cs().numPublic());
        const auto &z2 = b2.assignment();
        pub2.assign(z2.begin() + 1,
                    z2.begin() + 1 + b2.cs().numPublic());
    }
};

const ServiceFixture &
fx()
{
    static const ServiceFixture f;
    return f;
}

Service::Options
fastServiceOptions()
{
    Service::Options opt;
    opt.threads = 2;
    return opt;
}

/** Submit one request and drain it synchronously. */
Service::Result
proveOnce(Service &svc, Service::CircuitId id,
          const std::vector<Fr> &witness, std::uint64_t seed)
{
    Service::Request req;
    req.circuit = id;
    req.witness = witness;
    req.seed = seed;
    auto admitted = svc.submit(std::move(req));
    EXPECT_TRUE(admitted.isOk()) << admitted.status().toString();
    svc.drain();
    return admitted->get();
}

// ------------------------------------------------ bytes() accounting

/** Satellite fix: Preprocessed::bytes() matches its containers. */
TEST(ServiceBytes, PreprocessedBytesMatchesContainers)
{
    auto in = testkit::msmInstance<G1Cfg>(
        32, testkit::ScalarMix::Dense, 42);
    msm::GzkpMsm<G1Cfg> engine;
    auto pp = engine.preprocess(in.points);
    ASSERT_GT(pp.pre.size(), 0u);
    EXPECT_EQ(pp.bytes(),
              sizeof(pp) +
                  std::uint64_t(pp.pre.size()) *
                      sizeof(ec::AffinePoint<G1Cfg>));
    // The table dominates: checkpoints * nb() entries (nb() == 2n
    // when the table carries the GLV endomorphism halves).
    EXPECT_EQ(pp.pre.size(), pp.checkpoints * pp.nb());
}

TEST(ServiceBytes, DomainBytesMatchesTwiddleTables)
{
    ntt::Domain<Fr> dom(5);
    EXPECT_EQ(dom.bytes(),
              sizeof(dom) +
                  std::uint64_t(2 * dom.twiddleCount()) * sizeof(Fr));
}

TEST(ServiceBytes, MsmArtifactsBytesIsSumOfTables)
{
    auto built = zkp::buildMsmArtifacts<Bn254Family>(fx().k1.pk, 2);
    ASSERT_TRUE(built.isOk()) << built.status().toString();
    const auto &art = *built;
    EXPECT_EQ(art.bytes(), art.a.bytes() + art.b2.bytes() +
                               art.b1.bytes() + art.l.bytes() +
                               art.h.bytes());
    EXPECT_TRUE(art.matches(fx().k1.pk));
    EXPECT_FALSE(art.matches(fx().k2.pk));
}

// ------------------------------------------------ flag spec parsing

TEST(ServiceEnv, ParseCacheBytesSpec)
{
    EXPECT_EQ(service::parseCacheBytesSpec("1024"), 1024u);
    EXPECT_EQ(service::parseCacheBytesSpec("64k"), 64u << 10);
    EXPECT_EQ(service::parseCacheBytesSpec("16M"), 16u << 20);
    EXPECT_EQ(service::parseCacheBytesSpec("2g"), 2ull << 30);
    EXPECT_EQ(service::parseCacheBytesSpec(nullptr), 0u);
    EXPECT_EQ(service::parseCacheBytesSpec(""), 0u);
    EXPECT_EQ(service::parseCacheBytesSpec("0"), 0u);
    EXPECT_EQ(service::parseCacheBytesSpec("abc"), 0u);
    EXPECT_EQ(service::parseCacheBytesSpec("64kb"), 0u);
    EXPECT_EQ(service::parseCacheBytesSpec("-1"), 0u);
}

// The MSM strategy, the device topology and the cache budget reach
// the code only through Options: the environment variables that once
// set them process-wide must change nothing.
TEST(ServiceEnv, RetiredSwitchesAreIgnored)
{
    static const char *const kRetired[][2] = {
        {"GZKP_ACCUMULATOR", "bogus"},
        {"GZKP_GLV", "off"},
        {"GZKP_DEVICES", "v100:1"},
        {"GZKP_CACHE_BYTES", "1k"},
    };
    struct Unset {
        ~Unset()
        {
            for (const auto &kv : kRetired)
                ::unsetenv(kv[0]);
        }
    } unset;
    for (const auto &kv : kRetired)
        ::setenv(kv[0], kv[1], 1);

    auto in = testkit::msmInstance<G1Cfg>(
        64, testkit::ScalarMix::Dense, 0xE17);
    msm::GzkpMsm<G1Cfg> engine;
    EXPECT_NO_THROW(EXPECT_EQ(engine.run(in.points, in.scalars),
                              msm::msmNaive<G1Cfg>(in.points,
                                                   in.scalars)));
    EXPECT_TRUE(engine.preprocess(in.points).glv);

    Service svc;
    EXPECT_EQ(svc.deviceScheduler(), nullptr);
    Cache cache;
    EXPECT_EQ(cache.budgetBytes(), service::kDefaultCacheBytes);
}

// ------------------------------------------------------- content hash

TEST(ServiceCache, PkContentHashIdentifiesKeys)
{
    std::uint64_t h1 = service::pkContentHash<Bn254Family>(fx().k1.pk);
    std::uint64_t h2 = service::pkContentHash<Bn254Family>(fx().k2.pk);
    EXPECT_NE(h1, h2);
    // A copy hashes identically; any mutated point does not.
    G16::ProvingKey copy = fx().k1.pk;
    EXPECT_EQ(service::pkContentHash<Bn254Family>(copy), h1);
    // Negate the first *finite* query point (negating infinity is a
    // no-op and would leave the key bytes unchanged).
    for (auto &p : copy.aQuery) {
        if (!p.infinity) {
            p = p.negate();
            break;
        }
    }
    EXPECT_NE(service::pkContentHash<Bn254Family>(copy), h1);
}

// ------------------------------------------------------ cache contract

TEST(ServiceCache, LookupMissIsNotFound)
{
    Cache cache(1 << 20);
    auto r = cache.lookup(42);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

/** Run one seeded access sequence; return the final cache stats. */
Cache::Stats
runEvictionSequence(std::uint64_t budget, std::size_t threads)
{
    std::uint64_t h1 = service::pkContentHash<Bn254Family>(fx().k1.pk);
    std::uint64_t h2 = service::pkContentHash<Bn254Family>(fx().k2.pk);
    Cache cache(budget);
    auto build1 = [&] {
        return service::buildCircuitArtifacts<Bn254Family>(
            fx().k1.pk, h1, threads);
    };
    auto build2 = [&] {
        return service::buildCircuitArtifacts<Bn254Family>(
            fx().k2.pk, h2, threads);
    };
    EXPECT_TRUE(cache.getOrBuild(h1, build1).isOk()); // miss, build
    EXPECT_TRUE(cache.getOrBuild(h1, build1).isOk()); // hit
    EXPECT_TRUE(cache.getOrBuild(h2, build2).isOk()); // miss, evict 1
    EXPECT_TRUE(cache.lookup(h2).isOk());             // hit
    EXPECT_TRUE(cache.getOrBuild(h1, build1).isOk()); // miss, evict 2
    return cache.stats();
}

TEST(ServiceCache, LruEvictionUnderBudget)
{
    // A budget that fits either artifact but never both.
    auto a1 = service::buildCircuitArtifacts<Bn254Family>(
        fx().k1.pk, 1, 2);
    auto a2 = service::buildCircuitArtifacts<Bn254Family>(
        fx().k2.pk, 2, 2);
    ASSERT_TRUE(a1.isOk());
    ASSERT_TRUE(a2.isOk());
    std::uint64_t budget = (*a1)->bytes() + (*a2)->bytes() - 1;

    Cache::Stats st = runEvictionSequence(budget, 2);
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(st.misses, 3u);
    EXPECT_EQ(st.builds, 3u);
    EXPECT_EQ(st.evictions, 2u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_LE(st.bytesInUse, budget);
}

/**
 * Acceptance gate: same access sequence + same budget => identical
 * hit/miss/eviction counters at any builder thread count (the tables
 * themselves are thread-count-deterministic, so the byte accounting
 * and the eviction decisions are too).
 */
TEST(ServiceCache, EvictionSequenceDeterministicAcrossThreadCounts)
{
    auto a1 = service::buildCircuitArtifacts<Bn254Family>(
        fx().k1.pk, 1, 2);
    ASSERT_TRUE(a1.isOk());
    std::uint64_t budget = (*a1)->bytes() * 3 / 2;

    Cache::Stats s1 = runEvictionSequence(budget, 1);
    Cache::Stats s4 = runEvictionSequence(budget, 4);
    EXPECT_EQ(s1.hits, s4.hits);
    EXPECT_EQ(s1.misses, s4.misses);
    EXPECT_EQ(s1.evictions, s4.evictions);
    EXPECT_EQ(s1.builds, s4.builds);
    EXPECT_EQ(s1.bytesInUse, s4.bytesInUse);
    EXPECT_EQ(s1.entries, s4.entries);
}

TEST(ServiceCache, OverBudgetArtifactIsMissUnderPressure)
{
    std::uint64_t h1 = service::pkContentHash<Bn254Family>(fx().k1.pk);
    Cache cache(1); // nothing fits
    bool hit = true;
    auto r = cache.getOrBuild(
        h1,
        [&] {
            return service::buildCircuitArtifacts<Bn254Family>(
                fx().k1.pk, h1, 2);
        },
        &hit);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(hit);
    Cache::Stats st = cache.stats();
    EXPECT_EQ(st.overBudget, 1u);
    EXPECT_EQ(st.entries, 0u);
    EXPECT_EQ(st.bytesInUse, 0u);
}

// ------------------------------------------------- service front end

/**
 * Acceptance gate: the warm run hits the cache (hit counter > 0) and
 * returns a proof byte-identical to the cold run of the same seeded
 * request -- proving over the cached Algorithm-1 tables changes
 * nothing but the latency.
 */
TEST(ProofService, WarmProofByteIdenticalToCold)
{
    auto opt = fastServiceOptions();
    opt.maxBatch = 1; // one cache access per request
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().k1.pk, fx().k1.vk,
                                   fx().b1.cs());

    Service::Result cold =
        proveOnce(*svc, id, fx().b1.assignment(), 77);
    ASSERT_TRUE(cold.status.isOk()) << cold.status.toString();
    EXPECT_FALSE(cold.cacheHit);

    Service::Result warm =
        proveOnce(*svc, id, fx().b1.assignment(), 77);
    ASSERT_TRUE(warm.status.isOk()) << warm.status.toString();
    EXPECT_TRUE(warm.cacheHit);

    Service::Stats st = svc->stats();
    EXPECT_GT(st.cache.hits, 0u);
    EXPECT_EQ(st.cache.builds, 1u); // preprocessing ran exactly once

    std::string cold_bytes =
        zkp::serializeProof<Bn254Family>(*cold.proof);
    std::string warm_bytes =
        zkp::serializeProof<Bn254Family>(*warm.proof);
    EXPECT_EQ(cold_bytes, warm_bytes);
    EXPECT_TRUE(zkp::verifyBn254(fx().k1.vk, *warm.proof, fx().pub1));

    // And a fresh cold service reproduces the same bytes.
    auto svc2 = service::makeBn254ProofService(opt);
    auto id2 = svc2->registerCircuit(fx().k1.pk, fx().k1.vk,
                                     fx().b1.cs());
    Service::Result cold2 =
        proveOnce(*svc2, id2, fx().b1.assignment(), 77);
    ASSERT_TRUE(cold2.status.isOk());
    EXPECT_EQ(cold_bytes,
              zkp::serializeProof<Bn254Family>(*cold2.proof));
}

TEST(ProofService, BatchSharesOneCacheResolution)
{
    auto opt = fastServiceOptions();
    opt.maxBatch = 8;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().k1.pk, fx().k1.vk,
                                   fx().b1.cs());
    std::vector<std::future<Service::Result>> futures;
    for (std::uint64_t i = 0; i < 4; ++i) {
        Service::Request req;
        req.circuit = id;
        req.witness = fx().b1.assignment();
        req.seed = 100 + i;
        auto admitted = svc->submit(std::move(req));
        ASSERT_TRUE(admitted.isOk());
        futures.push_back(std::move(*admitted));
    }
    EXPECT_EQ(svc->drainOnce(), 4u); // one batch
    for (auto &f : futures) {
        Service::Result res = f.get();
        EXPECT_TRUE(res.status.isOk()) << res.status.toString();
    }
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.batches, 1u);
    EXPECT_EQ(st.batchedRequests, 4u);
    EXPECT_EQ(st.cache.misses, 1u); // one resolution for the batch
    EXPECT_EQ(st.completed, 4u);
}

TEST(ProofService, AdmissionControlRejectsPastHighWatermark)
{
    auto opt = fastServiceOptions();
    opt.maxQueueDepth = 2;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().k1.pk, fx().k1.vk,
                                   fx().b1.cs());
    auto submit = [&](std::uint64_t seed) {
        Service::Request req;
        req.circuit = id;
        req.witness = fx().b1.assignment();
        req.seed = seed;
        return svc->submit(std::move(req));
    };
    auto f1 = submit(1);
    auto f2 = submit(2);
    ASSERT_TRUE(f1.isOk());
    ASSERT_TRUE(f2.isOk());
    auto f3 = submit(3);
    ASSERT_FALSE(f3.isOk());
    EXPECT_EQ(f3.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(svc->stats().rejected, 1u);
    EXPECT_EQ(svc->stats().peakQueueDepth, 2u);

    svc->drain();
    auto f4 = submit(4); // backpressure cleared
    ASSERT_TRUE(f4.isOk());
    svc->drain();
    EXPECT_TRUE(f4->get().status.isOk());
}

TEST(ProofService, InvalidRequestsRejectedTyped)
{
    auto svc = service::makeBn254ProofService(fastServiceOptions());
    auto id = svc->registerCircuit(fx().k1.pk, fx().k1.vk,
                                   fx().b1.cs());
    Service::Request unknown;
    unknown.circuit = id + 7;
    unknown.witness = fx().b1.assignment();
    auto r1 = svc->submit(std::move(unknown));
    ASSERT_FALSE(r1.isOk());
    EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

    Service::Request short_witness;
    short_witness.circuit = id;
    short_witness.witness.assign(3, Fr::one());
    auto r2 = svc->submit(std::move(short_witness));
    ASSERT_FALSE(r2.isOk());
    EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(svc->stats().rejected, 2u);
}

/**
 * PR 8 moved the already-expired-deadline failure from prove time to
 * admission time: a request that cannot possibly meet its deadline is
 * shed at submit() with the same typed code, before it costs a prove.
 */
TEST(ProofService, ExpiredDeadlineShedsAtAdmission)
{
    auto svc = service::makeBn254ProofService(fastServiceOptions());
    auto id = svc->registerCircuit(fx().k1.pk, fx().k1.vk,
                                   fx().b1.cs());
    Service::Request req;
    req.circuit = id;
    req.witness = fx().b1.assignment();
    req.seed = 5;
    req.timeout = std::chrono::milliseconds(-1); // already expired
    auto admitted = svc->submit(std::move(req));
    ASSERT_FALSE(admitted.isOk());
    EXPECT_EQ(admitted.status().code(), StatusCode::kDeadlineExceeded);
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.rejected, 1u);
    EXPECT_EQ(st.shedAdmission, 1u);
    EXPECT_EQ(st.accepted, 0u);
    EXPECT_EQ(svc->drain(), 0u); // nothing was queued
}

/**
 * A deadline that expires while the request waits (or proves) still
 * fails with the typed code and never delivers a proof: the late-drop
 * guarantee, at prove granularity.
 */
TEST(ProofService, DeadlineExpiryInFlightFailsTyped)
{
    auto svc = service::makeBn254ProofService(fastServiceOptions());
    auto id = svc->registerCircuit(fx().k1.pk, fx().k1.vk,
                                   fx().b1.cs());
    Service::Request req;
    req.circuit = id;
    req.witness = fx().b1.assignment();
    req.seed = 5;
    // Far too tight for a real prove (~100ms at 10 constraints), but
    // positive, so it passes the admission check on a cold cost model.
    req.timeout = std::chrono::milliseconds(1);
    auto admitted = svc->submit(std::move(req));
    ASSERT_TRUE(admitted.isOk());
    svc->drain();
    Service::Result res = admitted->get();
    ASSERT_FALSE(res.status.isOk());
    EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(res.proof.has_value());
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.deadlineExpired, 1u);
    EXPECT_EQ(st.failed, 1u);
}

/** shutdownNow() fulfils every queued future with kCancelled. */
TEST(ProofService, ShutdownNowCancelsQueuedRequests)
{
    auto svc = service::makeBn254ProofService(fastServiceOptions());
    auto id = svc->registerCircuit(fx().k1.pk, fx().k1.vk,
                                   fx().b1.cs());
    std::vector<std::future<Service::Result>> futures;
    for (std::uint64_t i = 0; i < 3; ++i) {
        Service::Request req;
        req.circuit = id;
        req.witness = fx().b1.assignment();
        req.seed = i;
        auto admitted = svc->submit(std::move(req));
        ASSERT_TRUE(admitted.isOk());
        futures.push_back(std::move(*admitted));
    }
    svc->shutdownNow();
    for (auto &f : futures) {
        Service::Result res = f.get();
        ASSERT_FALSE(res.status.isOk());
        EXPECT_EQ(res.status.code(), StatusCode::kCancelled);
    }
    EXPECT_EQ(svc->stats().cancelled, 3u);
}

/**
 * Miss-under-pressure: with a budget nothing fits, the service
 * bypasses the cache and still proves -- with the same bytes the
 * cached path would have produced.
 */
TEST(ProofService, MissUnderPressureBypassesCache)
{
    auto opt = fastServiceOptions();
    opt.cacheBytes = 1;
    opt.maxBatch = 1;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().k1.pk, fx().k1.vk,
                                   fx().b1.cs());
    Service::Result res = proveOnce(*svc, id, fx().b1.assignment(), 77);
    ASSERT_TRUE(res.status.isOk()) << res.status.toString();
    EXPECT_TRUE(res.cacheBypass);
    EXPECT_FALSE(res.cacheHit);
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.cacheBypasses, 1u);
    EXPECT_GE(st.cache.overBudget, 1u);
    EXPECT_EQ(st.cache.entries, 0u);

    // Bypassed proofs are byte-identical to cached ones: the cached
    // tables are a deterministic function of the key material.
    auto cached = service::makeBn254ProofService(fastServiceOptions());
    auto cid = cached->registerCircuit(fx().k1.pk, fx().k1.vk,
                                       fx().b1.cs());
    Service::Result ref =
        proveOnce(*cached, cid, fx().b1.assignment(), 77);
    ASSERT_TRUE(ref.status.isOk());
    EXPECT_EQ(zkp::serializeProof<Bn254Family>(*res.proof),
              zkp::serializeProof<Bn254Family>(*ref.proof));
}

/** The trace generator is a pure function of its parameters. */
TEST(ProofService, ServiceTraceDeterminism)
{
    auto t1 = testkit::serviceTrace(3, 4, 9);
    auto t2 = testkit::serviceTrace(3, 4, 9);
    ASSERT_EQ(t1.size(), 12u);
    ASSERT_EQ(t1.size(), t2.size());
    std::vector<std::size_t> per_circuit(3, 0);
    bool identical = true;
    for (std::size_t i = 0; i < t1.size(); ++i) {
        identical = identical && t1[i].circuit == t2[i].circuit &&
            t1[i].seed == t2[i].seed;
        ASSERT_LT(t1[i].circuit, 3u);
        ++per_circuit[t1[i].circuit];
    }
    EXPECT_TRUE(identical);
    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(per_circuit[c], 4u);

    auto t3 = testkit::serviceTrace(3, 4, 10);
    bool same_order = t3.size() == t1.size();
    for (std::size_t i = 0; same_order && i < t1.size(); ++i)
        same_order = t1[i].seed == t3[i].seed;
    EXPECT_FALSE(same_order); // a different seed reorders/reseeds
}

/**
 * The TSAN target: concurrent submitters against the background
 * scheduler. Aggregates must be deterministic -- every request
 * completes, single-flight pins builds to one per circuit -- and
 * every proof must be byte-identical to the same request proved
 * through a single-threaded service.
 */
TEST(ProofService, ConcurrentSubmittersDeterministicAggregates)
{
    constexpr std::size_t kThreads = 3;
    constexpr std::size_t kPerThread = 2;

    // Reference bytes from an inline (single-threaded) service.
    std::map<std::uint64_t, std::string> expected;
    {
        auto svc = service::makeBn254ProofService(fastServiceOptions());
        Service::CircuitId ids[2] = {
            svc->registerCircuit(fx().k1.pk, fx().k1.vk, fx().b1.cs()),
            svc->registerCircuit(fx().k2.pk, fx().k2.vk, fx().b2.cs()),
        };
        for (std::size_t t = 0; t < kThreads; ++t) {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                std::size_t which = (t + i) % 2;
                std::uint64_t seed = deriveSeed(0x77, t * 16 + i);
                const auto &w = which == 0 ? fx().b1.assignment()
                                           : fx().b2.assignment();
                Service::Result res =
                    proveOnce(*svc, ids[which], w, seed);
                ASSERT_TRUE(res.status.isOk());
                expected[seed] =
                    zkp::serializeProof<Bn254Family>(*res.proof);
            }
        }
    }

    auto svc = service::makeBn254ProofService(fastServiceOptions());
    Service::CircuitId ids[2] = {
        svc->registerCircuit(fx().k1.pk, fx().k1.vk, fx().b1.cs()),
        svc->registerCircuit(fx().k2.pk, fx().k2.vk, fx().b2.cs()),
    };
    svc->start();

    std::mutex mu;
    std::map<std::uint64_t, std::string> got;
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                std::size_t which = (t + i) % 2;
                std::uint64_t seed = deriveSeed(0x77, t * 16 + i);
                Service::Request req;
                req.circuit = ids[which];
                req.witness = which == 0 ? fx().b1.assignment()
                                         : fx().b2.assignment();
                req.seed = seed;
                auto admitted = svc->submit(std::move(req));
                ASSERT_TRUE(admitted.isOk())
                    << admitted.status().toString();
                Service::Result res = admitted->get();
                ASSERT_TRUE(res.status.isOk())
                    << res.status.toString();
                std::lock_guard<std::mutex> lk(mu);
                got[seed] =
                    zkp::serializeProof<Bn254Family>(*res.proof);
            }
        });
    }
    for (auto &th : submitters)
        th.join();
    svc->stop();

    Service::Stats st = svc->stats();
    EXPECT_EQ(st.accepted, kThreads * kPerThread);
    EXPECT_EQ(st.completed, kThreads * kPerThread);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.rejected, 0u);
    EXPECT_EQ(st.queueDepth, 0u);
    // Single-flight: preprocessing ran exactly once per circuit, no
    // matter how the submissions interleaved.
    EXPECT_EQ(st.cache.builds, 2u);
    EXPECT_EQ(st.cache.misses, 2u);
    EXPECT_EQ(st.cache.evictions, 0u);

    EXPECT_EQ(got, expected); // byte-identical under concurrency
}

// ------------------------------------------------- runtime plumbing

/** CancelToken parent links: service-wide shutdown reaches children. */
TEST(RuntimeCancel, ParentLinkPropagates)
{
    runtime::CancelToken parent, child;
    child.linkParent(&parent);
    EXPECT_TRUE(child.check().isOk());
    parent.cancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_EQ(child.check().code(), StatusCode::kCancelled);

    runtime::CancelToken parent2, child2;
    child2.linkParent(&parent2);
    parent2.setTimeout(std::chrono::milliseconds(-1));
    EXPECT_TRUE(child2.expired());
    EXPECT_EQ(child2.check().code(), StatusCode::kDeadlineExceeded);

    // The child's own state still works alongside the link.
    runtime::CancelToken parent3, child3;
    child3.linkParent(&parent3);
    child3.cancel();
    EXPECT_TRUE(child3.cancelled());
    EXPECT_FALSE(parent3.cancelled());
}

} // namespace
