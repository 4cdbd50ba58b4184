/**
 * @file
 * The serving layer's shared proving-artifact cache.
 *
 * GZKP's per-circuit setup cost is dominated by Algorithm-1
 * weighted-point preprocessing: the 2^(tk) (x) P_i tables for all five
 * prover MSMs, plus the NTT twiddle tables of the evaluation domain.
 * For a service proving many statements over a small set of circuits
 * that cost must be paid once per circuit, not once per proof, so the
 * cache holds one immutable CircuitArtifacts bundle per *content hash*
 * of the proving key and hands out shared_ptrs to it.
 *
 * Contract (asserted by tests/test_service.cc):
 *  - keyed by pkContentHash(): two registrations of byte-identical
 *    proving keys share one entry; a different key never aliases;
 *  - memory-budgeted: total resident bytes() of Ready entries never
 *    exceeds the budget given at construction (ProofService passes
 *    Options::cacheBytes, default kDefaultCacheBytes). Inserting
 *    past the budget evicts least-recently-used Ready entries first;
 *    in-flight readers keep evicted artifacts alive through their
 *    shared_ptr, so eviction never invalidates a running proof;
 *  - single-flight: concurrent getOrBuild() calls for one key run the
 *    builder exactly once; the others block on a condition variable
 *    and share the result. A *failed* build broadcasts its typed
 *    error to every waiter (no dog-pile of retries) and erases the
 *    placeholder, so a later getOrBuild() starts a fresh build;
 *  - miss-under-pressure: an artifact larger than the whole budget is
 *    never admitted -- getOrBuild() returns kResourceExhausted and the
 *    caller decides (ProofService proves uncached). The budget is fixed
 *    and the size follows from the key, so the cache remembers each
 *    over-budget key with its byte count: every later getOrBuild() of
 *    that key returns the same kResourceExhausted at once, counted as
 *    a miss and an overBudget, without running the builder;
 *  - deterministic: driven from one thread, the hit/miss/eviction
 *    sequence is a pure function of the access sequence and budget,
 *    independent of GZKP_THREADS (the builders run the deterministic
 *    runtime internally);
 *  - one access per request: ProofService calls getOrBuild() once for
 *    every request it proves, in its fair-share dequeue order. A hit
 *    or a remembered over-budget key costs one map lookup; a failed
 *    build is tried again by the next request for that circuit
 *    (ProofService defers the build while the GZKP breaker is open).
 */

#ifndef GZKP_SERVICE_ARTIFACT_CACHE_HH
#define GZKP_SERVICE_ARTIFACT_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "faultsim/faultsim.hh"
#include "ntt/domain.hh"
#include "status/status.hh"
#include "zkp/prover_pipeline.hh"
#include "zkp/serialize.hh"

namespace gzkp::service {

// ------------------------------------------------------- cache budget

/** The default artifact-cache budget: 256 MiB. */
inline constexpr std::uint64_t kDefaultCacheBytes = 256ull << 20;

/**
 * Parse a byte-count spec (service_driver --cache-bytes): a positive
 * decimal with an optional k/m/g suffix (binary multiples,
 * case-insensitive). 0 on a malformed spec.
 */
std::uint64_t parseCacheBytesSpec(const char *spec);

// ------------------------------------------------ per-circuit bundle

namespace detail {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t
fnv1a(std::uint64_t h, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

inline std::uint64_t
fnv1aU64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace detail

/**
 * Content hash of a proving key: FNV-1a over the canonical
 * serialization of every anchor point and query table, plus the
 * circuit-shape integers. Two structurally identical keys hash equal
 * regardless of how they were produced; any changed point changes the
 * hash (collision-resistant enough for cache keying -- this is an
 * identity for a trusted in-process cache, not an authenticator).
 */
template <typename Family>
std::uint64_t
pkContentHash(const typename zkp::Groth16<Family>::ProvingKey &pk)
{
    using G1Cfg = typename Family::G1Cfg;
    using G2Cfg = typename Family::G2Cfg;
    std::uint64_t h = detail::kFnvOffset;
    h = detail::fnv1aU64(h, pk.numVars);
    h = detail::fnv1aU64(h, pk.numPublic);
    h = detail::fnv1aU64(h, pk.domainLog);
    h = detail::fnv1a(h, zkp::serializePoint<G1Cfg>(pk.alphaG1));
    h = detail::fnv1a(h, zkp::serializePoint<G1Cfg>(pk.betaG1));
    h = detail::fnv1a(h, zkp::serializePoint<G1Cfg>(pk.deltaG1));
    h = detail::fnv1a(h, zkp::serializePoint<G2Cfg>(pk.betaG2));
    h = detail::fnv1a(h, zkp::serializePoint<G2Cfg>(pk.deltaG2));
    auto mixG1 = [&h](const std::vector<ec::AffinePoint<G1Cfg>> &q) {
        h = detail::fnv1aU64(h, q.size());
        for (const auto &p : q)
            h = detail::fnv1a(h, zkp::serializePoint<G1Cfg>(p));
    };
    mixG1(pk.aQuery);
    mixG1(pk.b1Query);
    mixG1(pk.lQuery);
    mixG1(pk.hQuery);
    h = detail::fnv1aU64(h, pk.b2Query.size());
    for (const auto &p : pk.b2Query)
        h = detail::fnv1a(h, zkp::serializePoint<G2Cfg>(p));
    return h;
}

/**
 * Everything the prover needs per circuit beyond the proving key:
 * the five Algorithm-1 MSM tables and the NTT domain with its
 * twiddle tables. Immutable once built; shared across every request
 * for the circuit.
 */
template <typename Family>
struct CircuitArtifacts {
    using G16 = zkp::Groth16<Family>;
    using Fr = typename Family::Fr;

    typename G16::MsmArtifacts msm;
    ntt::Domain<Fr> domain;

    explicit CircuitArtifacts(std::size_t domain_log)
        : domain(domain_log)
    {}

    /** Host-resident size charged against the cache budget. */
    std::uint64_t
    bytes() const
    {
        return msm.bytes() + domain.bytes();
    }
};

/**
 * Corruption probe for a cached table (site "service.cache.table"):
 * models a soft memory error hitting the resident Algorithm-1 table
 * *after* it was built and checked. One bit of one record's x
 * coordinate flips; every proof over the poisoned table then fails
 * the prover's self-check (kDataLoss) until the pipeline demotes to
 * a backend that ignores cached artifacts -- the chaos suite asserts
 * a bad proof is still never released.
 */
template <typename Family>
void
maybeCorruptCachedTable(CircuitArtifacts<Family> &art, std::uint64_t key)
{
    if (!faultsim::active())
        return;
    auto d = faultsim::decide(faultsim::FaultKind::Bucket,
                              "service.cache.table", key);
    if (!d.fire)
        return;
    auto &pre = art.msm.a.pre;
    if (pre.empty())
        return;
    faultsim::flipBit(pre[d.salt % pre.size()].x,
                      d.salt / (pre.size() + 1));
}

/**
 * Build one circuit's artifact bundle: all five MSM tables via
 * checkpoint/resume preprocessing plus the NTT domain. This is the
 * builder ArtifactCache runs under single-flight. The
 * "service.cache.build" alloc probe models a failed host allocation
 * while materialising the entry.
 */
template <typename Family>
StatusOr<std::shared_ptr<const CircuitArtifacts<Family>>>
buildCircuitArtifacts(const typename zkp::Groth16<Family>::ProvingKey &pk,
                      std::uint64_t key, std::size_t threads = 0)
{
    Status probe = statusGuardVoid("service.cache.build", [&] {
        faultsim::checkAlloc("service.cache.build", key);
    });
    GZKP_RETURN_IF_ERROR(probe);
    auto art = std::make_shared<CircuitArtifacts<Family>>(pk.domainLog);
    GZKP_ASSIGN_OR_RETURN(art->msm,
                          zkp::buildMsmArtifacts<Family>(pk, threads));
    maybeCorruptCachedTable(*art, key);
    return std::shared_ptr<const CircuitArtifacts<Family>>(std::move(art));
}

// ------------------------------------------------------------- cache

/**
 * Memory-budgeted LRU cache of CircuitArtifacts with single-flight
 * construction. Thread-safe; the builder runs with the cache unlocked
 * so independent circuits build concurrently.
 */
template <typename Family>
class ArtifactCache
{
  public:
    using Artifacts = CircuitArtifacts<Family>;
    using ArtifactPtr = std::shared_ptr<const Artifacts>;
    using Builder = std::function<StatusOr<ArtifactPtr>()>;

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t builds = 0;
        std::uint64_t buildFailures = 0;
        std::uint64_t singleFlightWaits = 0;
        std::uint64_t overBudget = 0; //!< rejected: larger than budget
        std::uint64_t bytesInUse = 0;
        std::size_t entries = 0;
    };

    explicit ArtifactCache(std::uint64_t budget_bytes = kDefaultCacheBytes)
        : budget_(budget_bytes)
    {}

    std::uint64_t budgetBytes() const { return budget_; }

    /**
     * The one entry point: return the cached artifacts for `key`,
     * building them with `build` on a miss (single-flight). `hit`
     * reports whether this call was served from cache. Build errors
     * and over-budget artifacts return the typed Status; nothing is
     * cached in either case, and an over-budget key is refused from
     * then on without a build.
     */
    StatusOr<ArtifactPtr>
    getOrBuild(std::uint64_t key, const Builder &build, bool *hit = nullptr)
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (auto ob = overBudget_.find(key); ob != overBudget_.end()) {
            ++stats_.misses;
            ++stats_.overBudget;
            if (hit)
                *hit = false;
            return overBudgetError(ob->second);
        }
        for (;;) {
            auto it = entries_.find(key);
            if (it == entries_.end())
                break;
            if (it->second.ready) {
                it->second.lastUse = ++clock_;
                ++stats_.hits;
                if (hit)
                    *hit = true;
                return it->second.ptr;
            }
            // Another caller is building this key: wait on its
            // BuildState (single-flight). Success re-loops into the
            // hit path; failure propagates the builder's typed error
            // to this waiter -- the placeholder is already erased, so
            // a *later* getOrBuild() starts a fresh build, but the
            // waiters of the failed flight never dog-pile a retry.
            ++stats_.singleFlightWaits;
            std::shared_ptr<BuildState> flight = it->second.flight;
            cv_.wait(lk, [&] { return flight->done; });
            if (!flight->status.isOk())
                return flight->status;
        }
        ++stats_.misses;
        if (hit)
            *hit = false;
        auto flight = std::make_shared<BuildState>();
        {
            Entry placeholder;
            placeholder.flight = flight; // !ready marks "building"
            entries_.emplace(key, std::move(placeholder));
        }
        lk.unlock();

        StatusOr<ArtifactPtr> built = build();

        lk.lock();
        if (!built.isOk()) {
            ++stats_.buildFailures;
            entries_.erase(key);
            flight->done = true;
            flight->status = built.status().withContext("service.cache");
            cv_.notify_all();
            return flight->status;
        }
        ++stats_.builds;
        std::uint64_t bytes = (*built)->bytes();
        if (bytes > budget_) {
            ++stats_.overBudget;
            overBudget_.emplace(key, bytes);
            entries_.erase(key);
            flight->done = true;
            flight->status = overBudgetError(bytes);
            cv_.notify_all();
            return flight->status;
        }
        evictUntilFits(bytes);
        Entry &e = entries_[key];
        e.ready = true;
        e.ptr = std::move(*built);
        e.bytes = bytes;
        e.lastUse = ++clock_;
        bytesInUse_ += bytes;
        flight->done = true;
        cv_.notify_all();
        return e.ptr;
    }

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        Stats s = stats_;
        s.bytesInUse = bytesInUse_;
        s.entries = entries_.size();
        return s;
    }

  private:
    /** One in-flight build, shared by the builder and its waiters. */
    struct BuildState {
        bool done = false;  //!< guarded by the cache mutex
        Status status;      //!< the build's outcome when done
        ArtifactPtr ptr;    //!< kept so the state outlives the entry
    };

    struct Entry {
        bool ready = false;
        ArtifactPtr ptr;
        std::uint64_t bytes = 0;
        std::uint64_t lastUse = 0;
        std::shared_ptr<BuildState> flight; //!< while !ready
    };

    Status
    overBudgetError(std::uint64_t bytes) const
    {
        return resourceExhaustedError(
            "service.cache: artifact of " + std::to_string(bytes) +
            " bytes exceeds cache budget of " + std::to_string(budget_) +
            " bytes");
    }

    /** Caller holds mu_. Evict LRU Ready entries until it fits. */
    void
    evictUntilFits(std::uint64_t incoming)
    {
        while (bytesInUse_ + incoming > budget_) {
            auto victim = entries_.end();
            for (auto it = entries_.begin(); it != entries_.end(); ++it) {
                if (!it->second.ready)
                    continue; // in-flight builds are not evictable
                if (victim == entries_.end() ||
                    it->second.lastUse < victim->second.lastUse)
                    victim = it;
            }
            if (victim == entries_.end())
                return;
            bytesInUse_ -= victim->second.bytes;
            entries_.erase(victim);
            ++stats_.evictions;
        }
    }

    const std::uint64_t budget_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::uint64_t, Entry> entries_;
    /** Keys whose artifacts exceed the whole budget, with their bytes. */
    std::map<std::uint64_t, std::uint64_t> overBudget_;
    std::uint64_t bytesInUse_ = 0;
    std::uint64_t clock_ = 0;
    Stats stats_;
};

} // namespace gzkp::service

#endif // GZKP_SERVICE_ARTIFACT_CACHE_HH
