/**
 * @file
 * ProofService: a multi-tenant, overload-hardened in-process proving
 * service.
 *
 * Front end for many concurrent proof requests over a set of
 * registered circuits, built from the pieces the rest of the tree
 * already provides:
 *
 *  - fair-share scheduling: requests carry a tenant id; a per-tenant
 *    deficit-round-robin queue (fair_queue.hh), FIFO within a tenant,
 *    is the one dequeue rule, so a burst tenant can fill its own share
 *    of the queue but not starve the others. Weights come from
 *    Options::tenantWeights. Each drain pops one request and proves
 *    it;
 *  - admission control & load shedding: a bounded queue rejects past
 *    the high-watermark with kResourceExhausted, and deadline-aware
 *    admission (admission.hh) rejects with kDeadlineExceeded when the
 *    online per-circuit cost model says the deadline cannot be met at
 *    the current backlog. Queued work is re-checked at dequeue so
 *    doomed requests are shed, not proved, and a proof that finishes
 *    after its deadline is dropped (typed error), never delivered --
 *    the service completes zero proofs past their deadline;
 *  - backend health: one breaker registry (breaker.hh) per service
 *    watches every prover attempt across all requests; open circuit
 *    breakers make SelfCheckingProver skip a browned-out backend
 *    outright instead of paying its retry budget on every request.
 *    Proof bytes depend only on (circuit, witness, seed) -- never on
 *    the backend -- so a demoted proof is byte-identical to the
 *    GZKP one;
 *  - shared artifacts: each request resolves its circuit through the
 *    ArtifactCache, so Algorithm-1 preprocessing and NTT twiddle
 *    tables are paid once per circuit, not once per proof. A cache
 *    miss-under-pressure downgrades to proving uncached -- never a
 *    failure. While the GZKP breaker is open a miss builds nothing,
 *    since only that tier reads the artifacts;
 *  - multi-device scheduling: with a device topology
 *    (Options::deviceSpec), each proof's POLY and MSM stages are
 *    placed onto a heterogeneous fleet of simulated GPUs and CPU
 *    workers (src/device/scheduler.hh) and then run on the draining
 *    thread, one request after another; each device is its own
 *    quarantine domain ("device.fail" / "device.mem" / "device.slow"
 *    fault sites), and the proof bytes are identical on every
 *    topology;
 *  - deadlines & cancellation: each request's CancelToken is
 *    parent-linked to the service-wide shutdown token, so
 *    shutdownNow() stops every in-flight proof at the next chunk
 *    boundary;
 *  - observability: stats() returns one consistent mutex-guarded
 *    snapshot -- counters, shed breakdowns, per-tenant aggregates,
 *    breaker states and the cache counters all copied under a single
 *    critical section (no field-by-field tearing).
 *
 * Determinism: the scheduler itself is sequential (one drain at a
 * time); parallelism lives inside each proof via the deterministic
 * runtime. The DRR dequeue order is a pure function of the push
 * sequence and the weights. Shedding decisions depend on measured
 * durations and are therefore timing-dependent -- but they only
 * select *which* typed error a request gets, never the bytes of a
 * delivered proof.
 *
 * Fault sites (see faultsim.hh): "service.queue" (admission
 * alloc/launch), "service.shed" (spurious admission shed),
 * "service.breaker" (lying health signal, see breaker.hh).
 */

#ifndef GZKP_SERVICE_PROOF_SERVICE_HH
#define GZKP_SERVICE_PROOF_SERVICE_HH

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "device/registry.hh"
#include "device/scheduler.hh"
#include "faultsim/faultsim.hh"
#include "runtime/runtime.hh"
#include "service/admission.hh"
#include "service/artifact_cache.hh"
#include "service/fair_queue.hh"
#include "status/status.hh"
#include "zkp/prover_pipeline.hh"

namespace gzkp::service {

/**
 * The request RNG. Deliberately the same generator as the testkit's
 * Rng so a seeded service request replays bit-identically against a
 * direct SelfCheckingProver call with the same seed.
 */
using ProofRng = std::mt19937_64;

template <typename Family>
class ProofService
{
  public:
    using G16 = zkp::Groth16<Family>;
    using Fr = typename Family::Fr;
    using Proof = typename G16::Proof;
    using ProvingKey = typename G16::ProvingKey;
    using VerifyingKey = typename G16::VerifyingKey;
    using Prover = zkp::SelfCheckingProver<Family>;
    using Verifier = typename Prover::Verifier;
    using Cache = ArtifactCache<Family>;
    using Scheduler = device::StageScheduler<Family>;
    using CircuitId = std::size_t;
    using Clock = std::chrono::steady_clock;

    struct Options {
        /** Admission high-watermark: submit() rejects past this. */
        std::size_t maxQueueDepth = 64;
        /** Per-tenant depth bound; 0 = only the shared bound. Needed
            for weighted fairness under saturation: it keeps one
            tenant's backlog from filling the shared queue and
            blinding admission to tenancy. */
        std::size_t maxQueuePerTenant = 0;
        std::size_t threads = 0;       //!< 0 = GZKP_THREADS default
        std::uint64_t cacheBytes = kDefaultCacheBytes; //!< cache budget

        /** Cross-request backend health: circuit breakers on the
            default BreakerOptions. */
        bool healthTracking = true;

        /** Tenant weights; an absent tenant weighs 1. */
        std::map<std::uint64_t, std::uint64_t> tenantWeights;

        /**
         * Multi-device scheduling: a device topology spec in the
         * registry.hh grammar (e.g. "v100:2,1080ti:1,cpu:4t"). Empty
         * means proofs run single-lane through SelfCheckingProver. A
         * malformed spec throws StatusError at construction. Proof
         * bytes are identical on every topology -- placement never
         * touches the (circuit, witness, seed) -> proof function.
         */
        std::string deviceSpec;
    };

    struct Request {
        CircuitId circuit = 0;
        std::vector<Fr> witness; //!< full assignment z (z[0] = 1)
        std::uint64_t seed = 0;  //!< seeds the proof's (r, s) draw
        /** 0 = no deadline; negative = already expired (rejected). */
        std::chrono::milliseconds timeout{0};
        std::uint64_t tenant = 0; //!< fair-share scheduling id
    };

    struct Result {
        Status status;
        std::optional<Proof> proof;
        bool cacheHit = false;
        bool cacheBypass = false; //!< proved uncached (miss under pressure)
        zkp::ProverBackend backendUsed = zkp::ProverBackend::Gzkp;
        double queueSeconds = 0;
        double proveSeconds = 0;
        std::uint64_t tenant = 0;

        /** Device-path placement (-1 = single-lane path). */
        int polyDevice = -1;
        int msmDevice = -1;
        std::size_t deviceStageRetries = 0;
    };

    struct TenantStats {
        std::uint64_t accepted = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0; //!< non-ok results (incl. shed)
        std::uint64_t shed = 0;   //!< queue-time + late sheds
    };

    struct Stats {
        std::uint64_t accepted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t deadlineExpired = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t batches = 0; //!< dequeued requests, shed ones too
        std::uint64_t cacheBypasses = 0;
        std::size_t queueDepth = 0;
        std::size_t peakQueueDepth = 0;
        double queueSecondsTotal = 0;
        double buildSecondsTotal = 0;
        double proveSecondsTotal = 0;
        typename Cache::Stats cache;

        /** Overload-control breakdown. */
        std::uint64_t shedAdmission = 0; //!< rejected at submit()
        std::uint64_t shedQueued = 0;    //!< dropped doomed at dequeue
        std::uint64_t shedLate = 0;      //!< finished past deadline
        std::uint64_t backendsSkipped = 0; //!< breaker-skipped tiers
        std::map<std::uint64_t, TenantStats> tenants;
        bool healthTracking = false;
        /** Per-backend breaker counters; zeros when tracking is off. */
        zkp::BackendBreakers::Snapshot health{
            std::vector<zkp::BackendBreakers::DomainSnapshot>(
                zkp::kProverBackendCount)};

        /** Multi-device scheduling (empty when disabled). */
        bool deviceScheduling = false;
        std::vector<device::DeviceGauges> devices;
        double deviceMakespan = 0; //!< modeled seconds, all devices
        std::uint64_t deviceStageRetries = 0;
    };

    explicit ProofService(Options opt = Options(),
                          Verifier verifier = Verifier())
        : opt_(opt), verifier_(std::move(verifier)), cache_(opt.cacheBytes)
    {
        if (opt_.healthTracking)
            health_ = std::make_unique<zkp::BackendBreakers>(
                zkp::kProverBackendCount, BreakerOptions(),
                "service.breaker");
        for (const auto &[tenant, weight] : opt_.tenantWeights)
            queue_.setWeight(tenant, weight);

        if (!opt_.deviceSpec.empty()) {
            auto parsed = device::parseTopology(opt_.deviceSpec);
            if (!parsed.isOk())
                throw StatusError(parsed.status());
            typename Scheduler::Options sopt;
            sopt.devices = std::move(*parsed);
            scheduler_ =
                std::make_unique<Scheduler>(std::move(sopt), verifier_);
        }
    }

    ~ProofService() { stop(); }

    ProofService(const ProofService &) = delete;
    ProofService &operator=(const ProofService &) = delete;

    /**
     * Register a circuit (proving/verifying key pair + constraint
     * system). Returns the id submit() takes. Registration is
     * append-only; ids stay valid for the service's lifetime.
     */
    CircuitId
    registerCircuit(ProvingKey pk, VerifyingKey vk, zkp::R1cs<Fr> cs)
    {
        std::uint64_t hash = pkContentHash<Family>(pk);
        std::lock_guard<std::mutex> lk(mu_);
        circuits_.push_back(Circuit{std::move(pk), std::move(vk),
                                    std::move(cs), hash});
        return circuits_.size() - 1;
    }

    /**
     * Pre-train the admission cost model (tests and benches: lets a
     * cold service make informed shed decisions immediately).
     */
    void
    trainCostModel(CircuitId circuit, double proveSeconds,
                   std::size_t samples = 1)
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (std::size_t i = 0; i < samples; ++i)
            estimator_.record(circuit, proveSeconds);
    }

    /**
     * Admit a request. Returns the future that will carry its Result,
     * or a typed rejection: kInvalidArgument for an unknown circuit /
     * wrong witness size, kResourceExhausted past the queue
     * high-watermark or on an injected "service.queue"/"service.shed"
     * fault, kDeadlineExceeded when the deadline has already passed or
     * the cost model says it cannot be met at the current backlog.
     */
    StatusOr<std::future<Result>>
    submit(Request req)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (req.circuit >= circuits_.size()) {
            ++stats_.rejected;
            return invalidArgumentError(
                "service.submit: unknown circuit id " +
                std::to_string(req.circuit));
        }
        if (req.witness.size() != circuits_[req.circuit].pk.numVars) {
            ++stats_.rejected;
            return invalidArgumentError(
                "service.submit: witness size " +
                std::to_string(req.witness.size()) + " != numVars " +
                std::to_string(circuits_[req.circuit].pk.numVars));
        }
        if (req.timeout.count() < 0) {
            // Already expired at the door: shed instead of queueing a
            // prove that can only produce a late error.
            ++stats_.rejected;
            ++stats_.shedAdmission;
            ++stats_.tenants[req.tenant].shed;
            return deadlineExceededError(
                "service.shed: deadline already expired at admission");
        }
        if (queue_.size() >= opt_.maxQueueDepth) {
            ++stats_.rejected;
            return resourceExhaustedError(
                "service.queue: depth " + std::to_string(queue_.size()) +
                " at high-watermark " +
                std::to_string(opt_.maxQueueDepth) + "; retry later");
        }
        if (opt_.maxQueuePerTenant > 0 &&
            queue_.tenantDepth(req.tenant) >= opt_.maxQueuePerTenant) {
            // Per-tenant backpressure: without it, one tenant's
            // backlog fills the shared queue and admission goes
            // tenant-blind -- the DRR weights then have nothing to
            // schedule. Bounding each tenant keeps every backlogged
            // tenant present in the ring, which is what makes the
            // weight ratio show up in goodput.
            ++stats_.rejected;
            ++stats_.tenants[req.tenant].shed;
            return resourceExhaustedError(
                "service.queue: tenant " + std::to_string(req.tenant) +
                " at per-tenant high-watermark " +
                std::to_string(opt_.maxQueuePerTenant) + "; retry later");
        }
        double est = estimator_.estimate(req.circuit);
        if (req.timeout.count() > 0 && est > 0) {
            // Feasibility: the backlog ahead of this request plus its
            // own estimated prove must fit in the deadline budget. A
            // never-observed circuit estimates 0 (optimistic cold
            // start: admit and learn).
            double budget =
                std::chrono::duration<double>(req.timeout).count();
            double eta = queuedCost_ + inFlightCost_ + est;
            if (eta > budget) {
                ++stats_.rejected;
                ++stats_.shedAdmission;
                ++stats_.tenants[req.tenant].shed;
                return deadlineExceededError(
                    "service.shed: infeasible deadline (eta " +
                    std::to_string(eta) + "s > budget " +
                    std::to_string(budget) + "s at current backlog)");
            }
        }
        std::uint64_t idx = seq_++;
        // Injected spurious shed: overload control lying under fault.
        Status shedProbe = statusGuardVoid("service.shed", [&] {
            faultsim::checkAlloc("service.shed", idx);
        });
        if (!shedProbe.isOk()) {
            ++stats_.rejected;
            ++stats_.shedAdmission;
            ++stats_.tenants[req.tenant].shed;
            return shedProbe;
        }
        // The queue fault sites: a failed enqueue allocation (alloc)
        // or a failed dispatch (launch), indexed by admission order.
        Status probe = statusGuardVoid("service.queue", [&] {
            faultsim::checkAlloc("service.queue", idx);
            faultsim::checkLaunch("service.queue", idx);
        });
        if (!probe.isOk()) {
            ++stats_.rejected;
            return probe;
        }
        Pending p;
        p.circuit = req.circuit;
        p.witness = std::move(req.witness);
        p.seed = req.seed;
        p.tenant = req.tenant;
        p.admitted = Clock::now();
        if (req.timeout.count() != 0) {
            p.hasDeadline = true;
            p.deadline = p.admitted + req.timeout;
        }
        p.costEstimate = est;
        queuedCost_ += est;
        std::future<Result> fut = p.promise.get_future();
        queue_.push(req.tenant, std::move(p));
        ++stats_.accepted;
        ++stats_.tenants[req.tenant].accepted;
        stats_.queueDepth = queue_.size();
        stats_.peakQueueDepth =
            std::max(stats_.peakQueueDepth, queue_.size());
        cv_.notify_one();
        return fut;
    }

    /**
     * Resolve one request synchronously on the calling thread: pop it
     * by fair share, shed it if its deadline is already hopeless,
     * resolve its circuit through the cache, then prove it. Returns
     * the number of requests resolved: 1, or 0 when the queue was
     * empty.
     */
    std::size_t
    drainOnce()
    {
        typename Queue::Item item;
        const Circuit *circuit = nullptr;
        bool doomed = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!queue_.pop(item))
                return 0;
            const Pending &p = item.value;
            circuit = &circuits_[p.circuit]; // deque: stable under push_back
            ++stats_.batches;
            // Queue-time re-check, right before this request's own
            // prove: work whose deadline has passed or can no longer
            // fit its prove is shed here, before it costs one.
            if (p.hasDeadline) {
                double remaining = seconds(p.deadline - Clock::now());
                doomed = remaining <= 0 ||
                    estimator_.estimate(p.circuit) > remaining;
            }
            queuedCost_ = std::max(0.0, queuedCost_ - p.costEstimate);
            if (!doomed)
                inFlightCost_ += p.costEstimate;
            stats_.queueDepth = queue_.size();
        }
        Pending &p = item.value;
        if (doomed) {
            resolveShed(std::move(p),
                        deadlineExceededError(
                            "service.shed: deadline hopeless at "
                            "dequeue; dropped without proving"));
            return 1;
        }

        // Only the GZKP tier reads the artifacts, so while its breaker
        // is open a miss builds nothing: a build failing under the same
        // brown-out is not retried on every request.
        bool defer = health_ != nullptr &&
            health_->state(zkp::ProverBackend::Gzkp) == BreakerState::Open;
        auto t0 = Clock::now();
        bool hit = false;
        typename Cache::ArtifactPtr art;
        auto got = cache_.getOrBuild(
            circuit->hash,
            [&]() -> StatusOr<typename Cache::ArtifactPtr> {
                if (defer) // the cache adds its "service.cache" context
                    return unavailableError(
                        "build deferred: gzkp breaker open");
                return buildCircuitArtifacts<Family>(
                    circuit->pk, circuit->hash, opt_.threads);
            },
            &hit);
        double build_s = seconds(Clock::now() - t0);
        if (got.isOk())
            art = std::move(*got);
        {
            std::lock_guard<std::mutex> lk(mu_);
            stats_.buildSecondsTotal += build_s;
        }
        processOne(p, *circuit, art, hit);
        return 1;
    }

    /** Drain until the queue is empty; total requests processed. */
    std::size_t
    drain()
    {
        std::size_t total = 0;
        while (drainOnce() != 0)
            ++total;
        return total;
    }

    /** Start the background scheduler thread (idempotent). */
    void
    start()
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (worker_.joinable())
            return;
        stopping_ = false;
        worker_ = std::thread([this] { drainLoop(); });
    }

    /**
     * Graceful stop: the scheduler finishes everything already queued
     * (fast when shutdownNow() cancelled them), then joins. No-op
     * when the scheduler is not running.
     */
    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!worker_.joinable())
                return;
            stopping_ = true;
        }
        cv_.notify_all();
        worker_.join();
        worker_ = std::thread();
    }

    /**
     * Cancel everything: in-flight proofs stop at the next chunk
     * boundary, queued requests resolve with kCancelled (their futures
     * are always fulfilled, never abandoned).
     */
    void
    shutdownNow()
    {
        shutdown_.cancel();
        bool running;
        {
            std::lock_guard<std::mutex> lk(mu_);
            running = worker_.joinable();
        }
        if (running)
            stop();
        else
            drain(); // flush queued promises with kCancelled
    }

    /**
     * One consistent snapshot: every counter, the per-tenant
     * aggregates and the cache stats are copied under a single
     * critical section; breaker states are sampled from the health
     * registry's own lock immediately after.
     */
    Stats
    stats() const
    {
        Stats s;
        {
            std::lock_guard<std::mutex> lk(mu_);
            s = stats_;
            s.queueDepth = queue_.size();
        }
        s.cache = cache_.stats();
        if (health_ != nullptr) {
            s.healthTracking = true;
            s.health = health_->snapshot();
        }
        if (scheduler_ != nullptr) {
            s.deviceScheduling = true;
            typename Scheduler::Stats ds = scheduler_->stats();
            s.devices = std::move(ds.devices);
            s.deviceMakespan = ds.modeledMakespan;
            s.deviceStageRetries = ds.stageRetries;
        }
        return s;
    }

    Cache &cache() { return cache_; }

    /** The device scheduler (nullptr when no topology configured). */
    Scheduler *deviceScheduler() { return scheduler_.get(); }

  private:
    struct Pending;
    using Queue = FairShareQueue<Pending>;

    struct Circuit {
        ProvingKey pk;
        VerifyingKey vk;
        zkp::R1cs<Fr> cs;
        std::uint64_t hash = 0;
    };

    struct Pending {
        CircuitId circuit = 0;
        std::vector<Fr> witness;
        std::uint64_t seed = 0;
        std::uint64_t tenant = 0;
        Clock::time_point admitted;
        bool hasDeadline = false;
        Clock::time_point deadline;
        double costEstimate = 0;
        std::promise<Result> promise;
    };

    static double
    seconds(Clock::duration d)
    {
        return std::chrono::duration<double>(d).count();
    }

    /** Resolve a request shed at dequeue (never proved). */
    void
    resolveShed(Pending p, Status why)
    {
        Result res;
        res.status = std::move(why);
        res.tenant = p.tenant;
        res.queueSeconds = seconds(Clock::now() - p.admitted);
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.failed;
            ++stats_.shedQueued;
            ++stats_.deadlineExpired;
            TenantStats &t = stats_.tenants[p.tenant];
            ++t.failed;
            ++t.shed;
            stats_.queueSecondsTotal += res.queueSeconds;
        }
        p.promise.set_value(std::move(res));
    }

    /**
     * Prove one request: through the device scheduler when a topology
     * is configured, else through the prover ladder.
     */
    void
    processOne(Pending &p, const Circuit &c,
               const typename Cache::ArtifactPtr &art, bool hit)
    {
        Result res;
        res.cacheHit = hit && art != nullptr;
        res.cacheBypass = art == nullptr;
        res.tenant = p.tenant;
        auto start = Clock::now();
        res.queueSeconds = seconds(start - p.admitted);

        runtime::CancelToken token;
        token.linkParent(&shutdown_);
        if (p.hasDeadline)
            token.setDeadline(p.deadline);

        typename Prover::Report rep;
        if (scheduler_ != nullptr) {
            typename Scheduler::Job job;
            job.pk = &c.pk;
            job.vk = &c.vk;
            job.cs = &c.cs;
            job.witness = std::move(p.witness);
            job.seed = p.seed;
            if (art) {
                job.artifacts = &art->msm;
                job.domain = &art->domain;
            }
            job.cancel = &token;
            typename Scheduler::Result r =
                scheduler_->prove(std::move(job));
            res.status = std::move(r.status);
            res.proof = std::move(r.proof);
            res.polyDevice = r.polyDevice;
            res.msmDevice = r.msmDevice;
            res.deviceStageRetries = r.stageRetries;
        } else {
            typename Prover::Options popt;
            popt.threads = opt_.threads;
            popt.cancel = &token;
            popt.breakers = health_.get();
            if (art) {
                popt.artifacts = &art->msm;
                popt.domain = &art->domain;
            }
            Prover prover(popt, verifier_);
            ProofRng rng(p.seed);
            StatusOr<Proof> r =
                prover.prove(c.pk, c.vk, c.cs, p.witness, rng, &rep);
            if (r.isOk())
                res.proof = std::move(*r);
            else
                res.status = r.status();
            res.backendUsed = rep.backendUsed;
        }
        res.proveSeconds = seconds(Clock::now() - start);
        finishResult(p, std::move(res), rep);
    }

    /**
     * The tail of processOne: the late drop, the stats bookkeeping,
     * and the promise fulfilment.
     *
     * Late drop: a proof that finished after its deadline is a typed
     * error, never a delivered proof -- the service hands out zero
     * post-deadline proofs, structurally.
     */
    void
    finishResult(Pending &p, Result res,
                 const typename Prover::Report &rep)
    {
        bool late = false;
        if (res.status.isOk() && p.hasDeadline &&
            Clock::now() > p.deadline) {
            late = true;
            res.proof.reset();
            res.status = deadlineExceededError(
                "service.shed: proof completed after its deadline; "
                "dropped");
        }

        {
            std::lock_guard<std::mutex> lk(mu_);
            TenantStats &t = stats_.tenants[p.tenant];
            if (res.status.isOk()) {
                ++stats_.completed;
                ++t.completed;
                estimator_.record(p.circuit, res.proveSeconds);
            } else {
                ++stats_.failed;
                ++t.failed;
                if (res.status.code() == StatusCode::kDeadlineExceeded)
                    ++stats_.deadlineExpired;
                if (res.status.code() == StatusCode::kCancelled)
                    ++stats_.cancelled;
                if (late) {
                    ++stats_.shedLate;
                    ++t.shed;
                }
            }
            stats_.backendsSkipped += rep.backendsSkipped;
            if (res.cacheBypass)
                ++stats_.cacheBypasses;
            stats_.queueSecondsTotal += res.queueSeconds;
            stats_.proveSecondsTotal += res.proveSeconds;
            inFlightCost_ =
                std::max(0.0, inFlightCost_ - p.costEstimate);
        }
        p.promise.set_value(std::move(res));
    }

    void
    drainLoop()
    {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
            if (queue_.empty() && stopping_)
                return;
            lk.unlock();
            drainOnce();
            lk.lock();
        }
    }

    Options opt_;
    Verifier verifier_;
    Cache cache_;
    runtime::CancelToken shutdown_;
    std::unique_ptr<zkp::BackendBreakers> health_;
    std::unique_ptr<Scheduler> scheduler_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Circuit> circuits_; //!< deque: references stay valid
    Queue queue_;
    CostEstimator estimator_;
    double queuedCost_ = 0;   //!< estimated seconds queued
    double inFlightCost_ = 0; //!< estimated seconds being proved
    std::uint64_t seq_ = 0;
    bool stopping_ = false;
    std::thread worker_;
    Stats stats_;
};

/**
 * The production configuration: a BN254 service whose self-check is
 * the real pairing verifier. (unique_ptr because the service owns a
 * mutex and a thread and is therefore immovable.)
 */
inline std::unique_ptr<ProofService<zkp::Bn254Family>>
makeBn254ProofService(
    typename ProofService<zkp::Bn254Family>::Options opt = {})
{
    return std::make_unique<ProofService<zkp::Bn254Family>>(
        opt, zkp::verifyBn254);
}

} // namespace gzkp::service

#endif // GZKP_SERVICE_PROOF_SERVICE_HH
