/**
 * @file
 * Proving-service benchmark: seeded closed-loop traffic from one
 * client on behalf of two deadline-bearing tenants against one BN254
 * ProofService, plus an outside-in breakdown of where a proof's time
 * goes.
 *
 *     provebench --workload NAME --seed N --seconds S --trace 0|1
 *                [--trace-out FILE]
 *
 * Every input is a pure function of --seed: a Poseidon hash-chain
 * circuit (see kServiceLinks), its Groth16 keys, and a pool of
 * distinct witnesses for that one constraint system (the chain's
 * structure does not depend on its values). Request i proves witness
 * i mod pool with proof seed deriveSeed(seed, i) for tenant i mod 2.
 * As in the baseline mix of bench/bench_service_soak.cc, each request
 * carries a deadline of 8x the calibrated prove time (at least 1 s),
 * the admission cost model trained with that time. One request is in
 * flight at a time, so every batch is one request: with more, batch
 * sizes would hang on how resubmissions race the service's dequeue,
 * and change from run to run. In both workloads the service's cache
 * keeps the circuit's artifacts, so the GZKP tier proves over cached
 * Algorithm-1 tables; they differ in circuit size and service
 * configuration:
 *
 *   brownout    the device scheduler places each proof's POLY and MSM
 *               stages on a simulated v100 + 1080ti fleet, with a
 *               seeded fault plan failing every stage launch on the
 *               v100: its breaker quarantines it and the 1080ti serves.
 *               Breaker cooldowns count denials, not wall time, so the
 *               brown-out replays identically at any speed.
 *   sapling     no devices, on a circuit the size of the paper's
 *               smallest application (Table 3 Sapling Output, 2^13
 *               domain) proved on four threads: NTT and MSM, not the
 *               pairing self-check, dominate a proof.
 *
 * A third workload, the brown-out's circuit on one thread without
 * devices, was dropped: its throughput swung by 30% between runs
 * minutes apart on a shared 4-vCPU host, and without it the two left
 * get longer runs in the same total time.
 *
 * A run has two parts:
 *   1. the window: a closed-loop client submitting the next request
 *      when the previous result arrives, for the measured seconds,
 *      alternating tenants, in kColdStarts segments. Before each
 *      segment, a set-up: a fresh service registers the circuit and
 *      delivers its first proof, artifact build included. setup_s is
 *      the median set-up; the cold proofs must be byte-identical.
 *      proofs_per_s is the proofs delivered over the segments' time,
 *      each segment ending with its last result; latency_mean_ms the
 *      mean submit-to-result time, a failed request counting as an
 *      infinitely late one. The mean, not a quantile: on a shared host
 *      the prove time switches between a fast and a slow level for
 *      seconds at a time, so a quantile jumps between the two levels
 *      from run to run, where the mean moves with the share of slow
 *      time only.
 *   2. checks: every witness satisfies the registered circuit, every
 *      delivered proof passes the pairing verifier, and the service's
 *      counters show the workload took the path it exists for.
 *
 * --trace 1 halves the window, records a span per request (with the
 * service's queue and prove intervals as children), then times the
 * workload's proving path layer by layer from the outside, with the
 * thread budget that path runs on: the self-checking prover, the
 * Groth16 stages (POLY, MSM, assemble, verify), one NTT and one G1 MSM
 * kernel, and Fr multiplication. Per-layer metrics are medians over
 * spans of one name, plus the window's p90 latency and service and
 * device counters; --trace-out writes every span as Chrome trace-event
 * JSON.
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. Exit 0 once it is printed, 1 on an
 * internal error, 2 on bad usage.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "device/registry.hh"
#include "faultsim/faultsim.hh"
#include "ff/fp.hh"
#include "ntt/ntt_cpu.hh"
#include "service/proof_service.hh"
#include "testkit/rng.hh"
#include "workload/workloads.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/serialize.hh"

namespace {

using namespace gzkp;
using Family = zkp::Bn254Family;
using G16 = zkp::Groth16<Family>;
using Service = service::ProofService<Family>;
using Fr = ff::Bn254Fr;
using Clock = std::chrono::steady_clock;
using testkit::deriveSeed;

/** Tenants the client's requests alternate between. */
constexpr std::size_t kTenants = 2;
/** Distinct witnesses per run, all for the one registered circuit. */
constexpr std::size_t kWitnesses = 4;
/** Cold starts per run; setup_s is their median. */
constexpr std::size_t kColdStarts = 3;
/** Sequential requests before the window; all but one calibrate. */
constexpr std::size_t kWarmups = 3;
/** Runtime threads inside one single-lane proof. */
constexpr std::size_t kThreads = 1;
/** Request deadline, in calibrated prove times, and its floor. */
constexpr double kDeadlineFactor = 8;
constexpr double kMinDeadlineSeconds = 1;
/** Threads re-verifying delivered proofs after the window. */
constexpr std::size_t kVerifyThreads = 4;
/** Fr elements per timed field-multiplication batch. */
constexpr std::size_t kFieldBatch = 4096;

/**
 * Poseidon chain lengths (~244 constraints a link). The brown-out
 * workload proves a 2-link chain (2^9 domain), so a window holds
 * hundreds of proofs; the sapling workload proves 33 links, the
 * size of the paper's smallest application (Table 3 Sapling Output,
 * N = 8191, 2^13 domain), on kWideThreads threads.
 */
constexpr std::size_t kServiceLinks = 2;
constexpr std::size_t kSaplingOutputLinks = 33;
/** Runtime threads inside one sapling-size proof. */
constexpr std::size_t kWideThreads = 4;

// deriveSeed() streams, so each input kind draws independently.
constexpr std::uint64_t kCircuitStream = 1;
constexpr std::uint64_t kKeyStream = 2;
constexpr std::uint64_t kProofStream = 3;
constexpr std::uint64_t kFaultStream = 4;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** Nearest-rank quantile; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t idx = std::min(
        v.size() - 1, std::size_t(q * double(v.size() - 1) + 0.5));
    return v[idx];
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Arithmetic mean; 0 for an empty sample. */
double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / double(v.size());
}

// ------------------------------------------------------------- spans

/**
 * In-memory span log, written out when the run ends. A span is one
 * timed call into a layer: name, parent span, request id, start and
 * stop. Off, begin() and end() cost one branch each.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

    /** Open a span; returns its id (0 when off). */
    std::uint64_t
    begin(const char *name, std::uint64_t parent = 0,
          std::uint64_t request = 0)
    {
        if (!on_)
            return 0;
        auto now = Clock::now();
        return add(name, now, now, parent, request);
    }

    void
    end(std::uint64_t id)
    {
        if (id == 0)
            return;
        double stop = seconds(Clock::now() - origin_);
        std::lock_guard<std::mutex> lk(mu_);
        spans_[id - 1].stop = stop;
    }

    /** Record a span whose interval is already known. */
    std::uint64_t
    add(const char *name, Clock::time_point start, Clock::time_point stop,
        std::uint64_t parent = 0, std::uint64_t request = 0)
    {
        if (!on_)
            return 0;
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back({name, spans_.size() + 1, parent, request,
                          seconds(start - origin_),
                          seconds(stop - origin_)});
        return spans_.back().id;
    }

    /** Durations in seconds of every span called `name`. */
    std::vector<double>
    durations(const char *name) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::vector<double> out;
        for (const Span &s : spans_)
            if (std::strcmp(s.name, name) == 0)
                out.push_back(s.stop - s.start);
        return out;
    }

    /** Median duration of spans called `name`, in milliseconds. */
    double
    medianMs(const char *name) const
    {
        return median(durations(name)) * 1e3;
    }

    /** Chrome trace-event JSON; one track per request id. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::lock_guard<std::mutex> lk(mu_);
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %llu, \"parent\": %llu}}%s\n",
                         s.name, (unsigned long long)s.request,
                         s.start * 1e6, (s.stop - s.start) * 1e6,
                         (unsigned long long)s.id,
                         (unsigned long long)s.parent,
                         i + 1 == spans_.size() ? "" : ",");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span {
        const char *name; //!< string literal
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t request;
        double start; //!< seconds since the log was created
        double stop;
    };

    const bool on_;
    const Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; //!< guarded by mu_
};

// --------------------------------------------------------- workloads

struct Workload {
    std::string name;
    Service::Options opt;
    /** Poseidon links of the circuit. */
    std::size_t links = kServiceLinks;
    bool brownout = false;
    /** Threads a proof's stages run on along the serving path. */
    std::size_t stageThreads = kThreads;
};

std::optional<Workload>
workloadNamed(const std::string &name)
{
    Workload w;
    w.name = name;
    w.opt.threads = kThreads;
    w.opt.cacheBytes = 256ull << 20;
    if (name == "brownout") {
        w.opt.deviceSpec = "v100:1,1080ti:1";
        w.brownout = true;
        // The devices run their stages on their own host threads.
        auto topology = device::parseTopology(w.opt.deviceSpec);
        w.stageThreads = (*topology)[0].threads;
    } else if (name == "sapling") {
        w.links = kSaplingOutputLinks;
        w.opt.threads = kWideThreads;
        w.stageThreads = kWideThreads;
    } else {
        return std::nullopt;
    }
    return w;
}

/**
 * The brown-out: the fleet's fastest card fails every stage launch,
 * persistently. Its breaker quarantines it, failed stages are re-placed
 * on the other card, and each half-open probe fails again.
 */
faultsim::FaultPlan
brownoutPlan(std::uint64_t seed)
{
    faultsim::FaultPlan plan;
    plan.seed = deriveSeed(seed, 0, kFaultStream);
    plan.arms.push_back(
        {faultsim::FaultKind::Launch, "device.fail.v100.0", 1, 0});
    return plan;
}

// ------------------------------------------------------------ inputs

struct Inputs {
    std::uint64_t seed = 0;
    zkp::R1cs<Fr> cs;
    G16::Keys keys;
    std::vector<std::vector<Fr>> witnesses;
};

Inputs
makeInputs(std::uint64_t seed, const Workload &w)
{
    Inputs in;
    in.seed = seed;
    for (std::size_t i = 0; i < kWitnesses; ++i) {
        testkit::Rng rng(deriveSeed(seed, i + 1, kCircuitStream));
        auto b = workload::makePoseidonChainCircuit<Fr>(w.links, rng);
        if (i == 0)
            in.cs = b.cs();
        in.witnesses.push_back(b.assignment());
    }
    testkit::Rng krng(deriveSeed(seed, 0, kKeyStream));
    in.keys = G16::setup(in.cs, krng);
    return in;
}

Service::Request
makeRequest(const Inputs &in, Service::CircuitId id, std::uint64_t i,
            std::uint64_t tenant, double deadline)
{
    Service::Request r;
    r.circuit = id;
    r.witness = in.witnesses[i % kWitnesses];
    r.seed = deriveSeed(in.seed, i, kProofStream);
    r.tenant = tenant;
    r.timeout = std::chrono::milliseconds(std::int64_t(deadline * 1e3));
    return r;
}

std::vector<Fr>
publicInputs(const Inputs &in, std::uint64_t i)
{
    return Service::Prover::publicInputs(in.keys.pk,
                                         in.witnesses[i % kWitnesses]);
}

/** Counts and correctness verdict of one run. */
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    void
    check(bool ok, const char *what)
    {
        if (!ok && correct)
            std::fprintf(stderr, "provebench: CHECK FAILED: %s\n", what);
        correct = correct && ok;
    }
};

std::unique_ptr<Service>
openService(const Inputs &in, const Workload &w, Service::CircuitId &id)
{
    auto svc = service::makeBn254ProofService(w.opt);
    id = svc->registerCircuit(in.keys.pk, in.keys.vk, in.cs);
    svc->start();
    return svc;
}

// ------------------------------------------------------------ set-up

/**
 * One cold start: a fresh service is constructed, registers the
 * circuit and delivers request 0 (no deadline: the service has no
 * cost estimate yet). Returns the seconds that took; `bytes` receives
 * the serialized proof (empty on failure).
 */
double
coldStart(const Inputs &in, const Workload &w, Tally &tally,
          std::string &bytes)
{
    ++tally.attempted;
    auto t0 = Clock::now();
    Service::CircuitId id = 0;
    auto svc = openService(in, w, id);
    auto admitted = svc->submit(makeRequest(in, id, 0, 0, 0));
    std::optional<Service::Result> res;
    if (admitted.isOk())
        res = admitted->get();
    double s = seconds(Clock::now() - t0);
    if (!res || !res->status.isOk() || !res->proof) {
        ++tally.failed;
        return s;
    }
    bytes = zkp::serializeProof<Family>(*res->proof);
    return s;
}

// ------------------------------------------------------------ window

struct Outcome {
    std::uint64_t index = 0;
    double latency = 0; //!< submit to result, seconds
    double queue = 0;   //!< the service's queue wait
    double prove = 0;   //!< the service's prove time
    int polyDevice = -1;
    std::optional<G16::Proof> proof;
};

/** Service counters over the measured window. */
struct ServiceDelta {
    double completed = 0;
    double batches = 0;
    double cacheHits = 0;
    double cacheMisses = 0;
    double cacheBypasses = 0;
    double proverAttempts = 0;
    double stageRetries = 0;
    double breakerOpens = 0;
    double modeledSeconds = 0;
    double deviceBusySeconds = 0;
    double deviceFailures = 0;

    ServiceDelta(const Service::Stats &a, const Service::Stats &b)
    {
        completed = double(a.completed - b.completed);
        batches = double(a.batches - b.batches);
        cacheHits = double(a.cache.hits - b.cache.hits);
        cacheMisses = double(a.cache.misses - b.cache.misses);
        cacheBypasses = double(a.cacheBypasses - b.cacheBypasses);
        for (std::size_t i = 0; i < zkp::kProverBackendCount; ++i)
            proverAttempts += double(a.health.backend[i].attempts -
                                     b.health.backend[i].attempts);
        stageRetries = double(a.deviceStageRetries - b.deviceStageRetries);
        breakerOpens = double(a.health.totalOpens - b.health.totalOpens);
        for (std::size_t i = 0; i < a.devices.size(); ++i) {
            const device::DeviceGauges &x = a.devices[i];
            const device::DeviceGauges &y = b.devices[i];
            breakerOpens += double(x.quarantines - y.quarantines);
            deviceBusySeconds += x.modeledBusySeconds - y.modeledBusySeconds;
            deviceFailures += double(x.failures - y.failures);
        }
        modeledSeconds = a.deviceMakespan - b.deviceMakespan;
    }
};

struct WindowResult {
    std::vector<Outcome> outcomes;
    double elapsed = 0;  //!< per segment, start to last result; summed
    double deadline = 0; //!< seconds each window request carried
    Service::Stats before; //!< service counters at the window's start
    Service::Stats after;  //!< ... and once every result arrived
};

Clock::duration
toDuration(double s)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
}

/** One closed-loop request: submit, wait for the result, record it. */
Outcome
request(Service &svc, const Inputs &in, Service::CircuitId id,
        std::uint64_t index, double deadline, SpanLog &log)
{
    Outcome o;
    o.index = index;
    auto t0 = Clock::now();
    std::uint64_t span = log.begin("request", 0, index);
    auto admitted =
        svc.submit(makeRequest(in, id, index, index % kTenants, deadline));
    if (admitted.isOk()) {
        Service::Result res = admitted->get();
        o.queue = res.queueSeconds;
        o.prove = res.proveSeconds;
        o.polyDevice = res.polyDevice;
        if (res.status.isOk())
            o.proof = std::move(res.proof);
    }
    auto t1 = Clock::now();
    log.end(span);
    auto q = t0 + toDuration(o.queue);
    log.add("service.queue", t0, q, span, index);
    log.add("service.prove", q, q + toDuration(o.prove), span, index);
    o.latency = seconds(t1 - t0);
    return o;
}

/**
 * The measured window: one closed-loop client on one service for
 * `budget` seconds, after kWarmups requests. The warm-ups fill the
 * artifact cache and show the breaker the brown-out; all but the first
 * (which builds the artifacts) calibrate the prove time the deadlines
 * and the admission cost model build on. The window is cut into
 * kColdStarts equal segments with `between()` called before each, so
 * the cold starts it runs are spread over the run: the host's slow
 * spells last seconds, and set-ups taken back to back would all land
 * in the same one.
 */
template <class Between>
WindowResult
runWindow(const Inputs &in, const Workload &w, double budget,
          SpanLog &log, Between between)
{
    Service::CircuitId id = 0;
    auto svc = openService(in, w, id);
    std::uint64_t next = 1; // request 0 is the cold-start request
    std::vector<double> warm;
    for (std::size_t k = 0; k < kWarmups; ++k) {
        auto t0 = Clock::now();
        std::uint64_t i = next++;
        auto admitted = svc->submit(makeRequest(in, id, i, i % kTenants, 0));
        if (admitted.isOk())
            admitted->get();
        if (k > 0)
            warm.push_back(seconds(Clock::now() - t0));
    }
    double mu = median(warm);
    svc->trainCostModel(id, mu, 4);

    WindowResult r;
    r.deadline = std::max(kMinDeadlineSeconds, kDeadlineFactor * mu);
    r.before = svc->stats();
    for (std::size_t seg = 0; seg < kColdStarts; ++seg) {
        between();
        auto start = Clock::now();
        auto stopAt = start + toDuration(budget / double(kColdStarts));
        while (Clock::now() < stopAt)
            r.outcomes.push_back(request(*svc, in, id, next++, r.deadline,
                                         log));
        r.elapsed += seconds(Clock::now() - start);
    }
    r.after = svc->stats();
    return r;
}

/** Re-verify every delivered proof with the pairing verifier. */
bool
verifyAll(const Inputs &in, const std::vector<Outcome> &outcomes)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ok{true};
    {
        std::vector<std::jthread> workers;
        for (std::size_t t = 0; t < kVerifyThreads; ++t) {
            workers.emplace_back([&] {
                for (std::size_t i = next++; i < outcomes.size();
                     i = next++) {
                    const Outcome &o = outcomes[i];
                    if (o.proof &&
                        !zkp::verifyBn254(in.keys.vk, *o.proof,
                                          publicInputs(in, o.index)))
                        ok = false;
                }
            });
        }
    }
    return ok;
}

/**
 * Check from the service's counters that the window exercised what
 * the workload exists for, so a workload that silently fell onto
 * another path fails instead of measuring that path under its name.
 */
void
checkPath(const Workload &w, const WindowResult &win, Tally &tally)
{
    ServiceDelta d(win.after, win.before);
    tally.check(d.completed > 0, "the window delivered no proof");
    tally.check(win.after.shedAdmission + win.after.shedQueued +
                        win.after.shedLate ==
                    0,
                "a request was shed under closed-loop load");
    if (w.opt.deviceSpec.empty()) {
        tally.check(!win.after.deviceScheduling,
                    "single-lane workload went through the devices");
    } else {
        tally.check(win.after.deviceScheduling,
                    "the device scheduler is off");
        for (const Outcome &o : win.outcomes)
            tally.check(!o.proof || o.polyDevice >= 0,
                        "a proof bypassed the device scheduler");
    }
    tally.check(d.cacheHits == d.batches && d.cacheBypasses == 0,
                "a batch missed the artifact cache");
    if (w.brownout) {
        std::uint64_t quarantines = 0;
        for (const device::DeviceGauges &g : win.after.devices)
            if (g.name.rfind("v100", 0) == 0)
                quarantines += g.quarantines;
        tally.check(quarantines > 0 && win.after.deviceStageRetries > 0,
                    "the brown-out never quarantined the v100");
    }
}

// --------------------------------------------------- layer breakdown

/** The h-query MSM (MSM 5) alone, over the cached tables. */
G16::G1
msmKernel(const Workload &w, const G16::MsmArtifacts &art,
          const std::vector<Fr> &h)
{
    msm::GzkpMsm<Family::G1Cfg>::Options o;
    o.threads = w.stageThreads;
    return msm::GzkpMsm<Family::G1Cfg>(o).run(art.h, h);
}

/**
 * Time the workload's proving path layer by layer, from the outside,
 * for `budget` seconds (at least three repetitions): the self-checking
 * prover, then the same proof rebuilt stage by stage, which must match
 * it byte for byte, then one NTT, one MSM and one Fr batch.
 */
void
layerBreakdown(const Inputs &in, const Workload &w, double budget,
               SpanLog &log, Tally &tally)
{
    const G16::ProvingKey &pk = in.keys.pk;
    auto deadline = Clock::now() + toDuration(budget);

    std::uint64_t span = log.begin("layer.preprocess");
    auto art = zkp::buildMsmArtifacts<Family>(pk, w.opt.threads);
    log.end(span);
    tally.check(art.isOk(), "Algorithm-1 preprocessing failed");
    if (!art.isOk())
        return;
    ntt::Domain<Fr> dom(pk.domainLog);

    Service::Prover::Options popt;
    popt.threads = w.stageThreads;
    popt.artifacts = &*art;
    popt.domain = &dom;
    auto prover = zkp::makeBn254SelfCheckingProver(popt);

    testkit::Rng frng(deriveSeed(in.seed, 1, kKeyStream));
    std::vector<Fr> fa(kFieldBatch), fb(kFieldBatch), fc(kFieldBatch);
    for (std::size_t i = 0; i < kFieldBatch; ++i) {
        fa[i] = Fr::random(frng);
        fb[i] = Fr::random(frng);
    }

    for (std::uint64_t rep = 0; rep < 3 || Clock::now() < deadline;
         ++rep) {
        const std::vector<Fr> &z = in.witnesses[rep % kWitnesses];
        std::vector<Fr> pub = publicInputs(in, rep);
        std::uint64_t root = log.begin("layer.rep", 0, rep);

        service::ProofRng prng(deriveSeed(in.seed, rep, kProofStream));
        span = log.begin("layer.pipeline", root, rep);
        auto proved = prover.prove(pk, in.keys.vk, in.cs, z, prng);
        log.end(span);
        tally.check(proved.isOk(), "self-checking prover failed");

        span = log.begin("layer.poly", root, rep);
        std::vector<Fr> h = G16::polyStage(pk, in.cs, z, dom);
        log.end(span);

        service::ProofRng rng(deriveSeed(in.seed, rep, kProofStream));
        Fr r = Fr::random(rng);
        Fr s = Fr::random(rng);
        span = log.begin("layer.msm", root, rep);
        G16::MsmOutputs m =
            G16::msmStageWithArtifacts(pk, *art, z, h, w.stageThreads);
        log.end(span);

        span = log.begin("layer.assemble", root, rep);
        G16::Proof proof = G16::assembleProof(pk, m, r, s);
        log.end(span);

        span = log.begin("layer.verify", root, rep);
        bool valid = zkp::verifyBn254(in.keys.vk, proof, pub);
        log.end(span);
        tally.check(valid, "staged proof failed verification");
        tally.check(proved.isOk() &&
                        zkp::serializeProof<Family>(*proved) ==
                            zkp::serializeProof<Family>(proof),
                    "the stages do not reassemble the pipeline's proof");

        std::vector<Fr> v = h;
        v.resize(dom.size(), Fr::zero());
        span = log.begin("kernel.ntt", root, rep);
        ntt::nttInPlace(dom, v, false);
        log.end(span);
        ntt::nttInPlace(dom, v, true);
        v.resize(h.size());
        tally.check(v == h, "NTT round trip changed its input");

        span = log.begin("kernel.msm", root, rep);
        G16::G1 hm = msmKernel(w, *art, h);
        log.end(span);
        tally.check(hm == m.h, "h-query MSM disagrees with the MSM stage");

        span = log.begin("field.mul", root, rep);
        ff::mulBatch(fc.data(), fa.data(), fb.data(), kFieldBatch);
        log.end(span);
        std::size_t k = rep % kFieldBatch;
        tally.check(fc[k] == fa[k] * fb[k], "batched Fr mul is wrong");
        fa[k] = fc[k];

        log.end(root);
    }
}

// ------------------------------------------------------------ output

struct Metric {
    const char *name;
    double value;
    const char *unit;
};

void
printResult(const Tally &t, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                t.correct ? "true" : "false",
                (unsigned long long)t.attempted,
                (unsigned long long)t.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        // JSON has no infinity; a latency of failed requests prints as
        // the largest double, never as a good-looking 0.
        double v = std::isfinite(metrics[i].value)
            ? metrics[i].value
            : std::numeric_limits<double>::max();
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name, v,
                    metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Submit-to-result seconds; a failed request is infinitely late. */
std::vector<double>
latencies(const WindowResult &win)
{
    std::vector<double> out;
    for (const Outcome &o : win.outcomes)
        out.push_back(o.proof ? o.latency
                              : std::numeric_limits<double>::infinity());
    return out;
}

std::vector<Metric>
layerMetrics(const WindowResult &win, const SpanLog &log)
{
    ServiceDelta d(win.after, win.before);
    std::vector<double> queue, prove;
    for (const Outcome &o : win.outcomes) {
        queue.push_back(o.queue);
        prove.push_back(o.prove);
    }
    double fieldNs = median(log.durations("field.mul")) * 1e9 /
        double(kFieldBatch);
    return {
        {"latency_p90_ms", quantile(latencies(win), 0.9) * 1e3, "ms"},
        {"service_queue_ms", median(queue) * 1e3, "ms"},
        {"service_prove_ms", median(prove) * 1e3, "ms"},
        {"cache_hit_ratio",
         ratio(d.cacheHits, d.cacheHits + d.cacheMisses), "ratio"},
        {"prover_attempts_per_proof", ratio(d.proverAttempts, d.completed),
         "ratio"},
        {"stage_retries_per_proof", ratio(d.stageRetries, d.completed),
         "ratio"},
        {"breaker_opens", d.breakerOpens, "count"},
        {"modeled_s_per_proof", ratio(d.modeledSeconds, d.completed), "s"},
        {"device_busy_s_per_proof", ratio(d.deviceBusySeconds, d.completed),
         "s"},
        {"device_stage_failures", d.deviceFailures, "count"},
        {"pipeline_prove_ms", log.medianMs("layer.pipeline"), "ms"},
        {"poly_stage_ms", log.medianMs("layer.poly"), "ms"},
        {"msm_stage_ms", log.medianMs("layer.msm"), "ms"},
        {"assemble_ms", log.medianMs("layer.assemble"), "ms"},
        {"verify_ms", log.medianMs("layer.verify"), "ms"},
        {"ntt_kernel_ms", log.medianMs("kernel.ntt"), "ms"},
        {"msm_kernel_ms", log.medianMs("kernel.msm"), "ms"},
        {"preprocess_ms", log.medianMs("layer.preprocess"), "ms"},
        {"fr_mul_ns", fieldNs, "ns"},
    };
}

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            haveSeed = *val != '\0' && *end == '\0';
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            haveSeconds = *end == '\0' && a.seconds > 0 &&
                a.seconds <= 120;
        } else if (key == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                return false;
            a.trace = val[0] == '1';
        } else if (key == "--trace-out") {
            a.traceOut = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && haveWorkload && haveSeed && haveSeconds;
}

int
run(const Args &args, const Workload &w)
{
    Tally tally;
    Inputs in = makeInputs(args.seed, w);
    for (const auto &z : in.witnesses)
        tally.check(in.cs.isSatisfied(z),
                    "a witness does not satisfy the circuit");

    std::optional<faultsim::ScopedFaultPlan> brownout;
    if (w.brownout)
        brownout.emplace(brownoutPlan(args.seed));

    SpanLog log(args.trace);
    double windowSeconds = args.trace ? args.seconds / 2 : args.seconds;
    std::vector<double> setups;
    std::vector<std::string> cold;
    WindowResult win = runWindow(in, w, windowSeconds, log, [&] {
        cold.emplace_back();
        setups.push_back(coldStart(in, w, tally, cold.back()));
    });
    for (const std::string &b : cold)
        tally.check(!b.empty() && b == cold[0],
                    "cold-start proofs differ across set-ups");
    std::size_t delivered = 0;
    for (const Outcome &o : win.outcomes) {
        ++tally.attempted;
        if (o.proof)
            ++delivered;
        else
            ++tally.failed;
    }
    tally.check(verifyAll(in, win.outcomes),
                "a delivered proof failed verification");
    checkPath(w, win, tally);

    std::vector<Metric> metrics;
    if (args.trace) {
        layerBreakdown(in, w, args.seconds - windowSeconds, log, tally);
        metrics = layerMetrics(win, log);
        if (!args.traceOut.empty() && !log.write(args.traceOut))
            std::fprintf(stderr, "provebench: cannot write %s\n",
                         args.traceOut.c_str());
    } else {
        metrics = {
            {"proofs_per_s", double(delivered) / win.elapsed, "1/s"},
            {"latency_mean_ms", mean(latencies(win)) * 1e3, "ms"},
            {"setup_s", median(setups), "s"},
        };
    }
    std::fprintf(stderr,
                 "provebench: %s seed=%llu constraints=%zu domain=2^%zu "
                 "proofs=%zu in %.2fs deadline=%.2fs setups=[",
                 w.name.c_str(), (unsigned long long)args.seed,
                 in.cs.numConstraints(), in.keys.pk.domainLog, delivered,
                 win.elapsed, win.deadline);
    for (double v : setups)
        std::fprintf(stderr, " %.3f", v);
    std::fprintf(stderr, " ]s latency_ms=[");
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9})
        std::fprintf(stderr, " %.1f", quantile(latencies(win), q) * 1e3);
    std::fprintf(stderr, " ]\n");
    printResult(tally, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::optional<Workload> w;
    if (parseArgs(argc, argv, args))
        w = workloadNamed(args.workload);
    if (!w) {
        std::fprintf(stderr,
                     "usage: provebench --workload "
                     "brownout|sapling --seed N "
                     "--seconds S --trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    try {
        return run(args, *w);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "provebench: %s\n", e.what());
        return 1;
    }
}
