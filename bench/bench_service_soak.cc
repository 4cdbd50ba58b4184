/**
 * @file
 * Overload soak bench: open-loop mixed-tenant traffic against the
 * hardened ProofService.
 *
 *     bench_service_soak [--seconds=6] [--constraints=10] [--smoke]
 *                        [--out=BENCH_service_soak.json]
 *
 * Four scenarios, each an independent service. The first three are
 * fed seeded-exponential open-loop arrivals (the arrival clock does
 * not wait for completions, so queue pressure is real):
 *
 *   baseline          healthy backends, deadlines ~8x the calibrated
 *                     prove cost.
 *   brownout_health   the gzkp backend persistently fails (faultsim
 *                     launch@msm.gzkp); health tracking ON -- the
 *                     breaker opens and later requests skip the dead
 *                     tier and prove on serial directly. Both
 *                     brown-out scenarios are offered 0.7x the
 *                     capacity calibrated under that fault plan, the
 *                     path they prove on.
 *   brownout_nohealth same brown-out, health tracking OFF -- every
 *                     request re-pays the failed gzkp attempts before
 *                     demoting to serial. The p99 gap between these
 *                     two scenarios is the graceful-degradation
 *                     acceptance number.
 *   fairness          two tenants with 10:1 weights and no
 *                     deadlines, each kept saturated: every
 *                     millisecond both queues are topped up until
 *                     their per-tenant bound rejects, so neither
 *                     runs dry whatever the calibrated cost. The
 *                     completed-proof ratio must land within 2x of
 *                     the weight ratio (in [5, 20]).
 *
 * Per scenario: p50/p99/p999 end-to-end latency, goodput, shed rate,
 * per-tenant goodput, breaker opens, skipped backends -- one JSON file
 * for EXPERIMENTS.md. Every scenario also self-checks the hard
 * invariant that no proof is delivered past its deadline.
 *
 * --smoke shortens the arrival windows for CI and keeps the
 * self-checking assertions on (nonzero exit on violation). Plain
 * main, not google-benchmark: the queue state is the system under
 * test, so framework iteration reordering would corrupt it.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "faultsim/faultsim.hh"
#include "service/proof_service.hh"
#include "testkit/testkit.hh"

using namespace gzkp;
using Service = service::ProofService<zkp::Bn254Family>;
using Fr = ff::Bn254Fr;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantileOf(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t idx = std::min(
        v.size() - 1, std::size_t(q * double(v.size() - 1) + 0.5));
    return v[idx];
}

struct ScenarioResult {
    std::string name;
    std::size_t arrivals = 0;
    std::size_t completed = 0;
    std::size_t failedTyped = 0;  //!< admitted, typed error back
    std::size_t shedSubmit = 0;   //!< rejected at submit()
    std::size_t latePastDeadline = 0; //!< must stay 0
    double p50 = 0, p99 = 0, p999 = 0;
    double goodputPerSec = 0;
    double shedRate = 0;
    std::map<std::uint64_t, std::size_t> perTenant;
    std::uint64_t breakerOpens = 0;
    std::uint64_t backendsSkipped = 0;
};

struct ScenarioSpec {
    std::string name;
    double seconds = 6;
    double ratePerSec = 10;     //!< total open-loop arrival rate
    double deadlineSeconds = 0; //!< 0 = no deadline
    std::size_t tenants = 2;
    Service::Options opt;
    double trainSeconds = 0; //!< prime the cost model when > 0
    /** Measure goodput at the end of the arrival window and discard
        the backlog (shutdownNow) instead of draining it. The
        saturation scenarios want the steady-state service rate; a
        full drain would serve every queued request and wash the
        tenant weights back out of the totals. */
    bool windowStats = false;
    /** Replace the open-loop arrivals with saturation: every
        kSaturatePoll, submit to each tenant until its per-tenant
        bound rejects. At 50/50 open-loop arrivals a tenant weighted
        10:1 is offered about its own service share, so when the
        calibration overstates the prove cost its queue runs empty
        and the other tenant takes the slack. */
    bool saturate = false;
};

struct Workload {
    workload::Builder<Fr> builder;
    zkp::Groth16<zkp::Bn254Family>::Keys keys;

    explicit Workload(std::size_t constraints)
        : builder(testkit::randomCircuit<Fr>(0x50AC, constraints))
    {
        testkit::Rng krng(testkit::deriveSeed(0x50AC, 1));
        keys = zkp::Groth16<zkp::Bn254Family>::setup(builder.cs(),
                                                     krng);
    }
};

/** The brown-out: every gzkp MSM launch fails. */
faultsim::FaultPlan
brownoutPlan()
{
    faultsim::FaultPlan plan;
    plan.seed = 0xD1;
    plan.arms.push_back({faultsim::FaultKind::Launch, "msm.gzkp", 1, 0});
    return plan;
}

/**
 * Warm per-prove seconds on a throwaway service with `threads`
 * threads: five proves in sequence, the first (which pays the
 * artifact build) not counted. The worker drains requests one at a
 * time (threads parallelize inside one prove), so open-loop capacity
 * is the inverse. Under a fault plan it times the path the plan
 * leaves the requests proving on. Returns 0 if a request is refused.
 */
double
warmProveSeconds(const Workload &w, std::size_t threads)
{
    Service::Options opt;
    opt.threads = threads;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(w.keys.pk, w.keys.vk, w.builder.cs());
    double first = 0;
    for (std::uint64_t i = 0; i < 5; ++i) {
        Service::Request req;
        req.circuit = id;
        req.witness = w.builder.assignment();
        req.seed = 100 + i;
        auto admitted = svc->submit(std::move(req));
        if (!admitted.isOk())
            return 0;
        svc->drain();
        admitted->get();
        if (i == 0)
            first = svc->stats().proveSecondsTotal;
    }
    return (svc->stats().proveSecondsTotal - first) / 4.0;
}

/** Poll interval of a saturating scenario: well under one prove, so a
    tenant's queue of several requests never drains between polls. */
constexpr std::chrono::milliseconds kSaturatePoll{1};

/** Seeded open-loop run: exponential inter-arrivals, round-robin-ish
    random tenant choice, hard deadline per request when configured;
    or, with spec.saturate, every tenant kept at its queue bound. */
ScenarioResult
runScenario(const Workload &w, const ScenarioSpec &spec,
            std::uint64_t seed)
{
    auto svc = service::makeBn254ProofService(spec.opt);
    auto id = svc->registerCircuit(w.keys.pk, w.keys.vk,
                                   w.builder.cs());
    if (spec.trainSeconds > 0)
        svc->trainCostModel(id, spec.trainSeconds, 4);
    svc->start();

    // Warm the artifact cache outside the measured window (with a
    // tenant id no traffic uses): the first prove otherwise pays the
    // one-time preprocessing build inside the arrival window.
    {
        Service::Request warm;
        warm.circuit = id;
        warm.witness = w.builder.assignment();
        warm.seed = 0xBEEF;
        warm.tenant = spec.tenants + 1;
        auto admitted = svc->submit(std::move(warm));
        if (admitted.isOk()) {
            svc->drain();
            admitted->get();
        }
    }

    std::vector<std::future<Service::Result>> inflight;
    ScenarioResult out;
    out.name = spec.name;

    testkit::Rng rng(testkit::deriveSeed(seed, 0x0A11));
    auto uniform = [&] {
        return (double(rng() >> 11) + 0.5) / 9007199254740992.0;
    };
    double t0 = now();
    double nextArrival = t0;
    std::uint64_t reqSeed = 0;
    // Submits one request; false when admission rejects it.
    auto arrive = [&](std::uint64_t tenant) {
        Service::Request req;
        req.circuit = id;
        req.witness = w.builder.assignment();
        req.seed = testkit::deriveSeed(seed, ++reqSeed);
        req.tenant = tenant;
        if (spec.deadlineSeconds > 0)
            req.timeout = std::chrono::milliseconds(
                std::int64_t(spec.deadlineSeconds * 1e3));
        ++out.arrivals;
        auto admitted = svc->submit(std::move(req));
        if (!admitted.isOk()) {
            ++out.shedSubmit;
            return false;
        }
        inflight.push_back(std::move(*admitted));
        return true;
    };
    if (spec.saturate) {
        while (now() - t0 <= spec.seconds) {
            for (std::uint64_t t = 0; t < spec.tenants; ++t)
                while (arrive(t)) {
                }
            std::this_thread::sleep_for(kSaturatePoll);
        }
    } else {
        while (true) {
            nextArrival += -std::log(uniform()) / spec.ratePerSec;
            if (nextArrival - t0 > spec.seconds)
                break;
            double sleep = nextArrival - now();
            if (sleep > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(sleep));
            arrive(rng() % spec.tenants);
        }
    }
    Service::Stats atWindowEnd = svc->stats();
    if (spec.windowStats)
        svc->shutdownNow();
    else
        svc->drain();

    std::vector<double> latencies;
    for (auto &f : inflight) {
        Service::Result res = f.get();
        if (res.status.isOk()) {
            ++out.completed;
            ++out.perTenant[res.tenant];
            double total = res.queueSeconds + res.proveSeconds;
            latencies.push_back(total);
            if (spec.deadlineSeconds > 0 &&
                total > spec.deadlineSeconds + 0.1)
                ++out.latePastDeadline;
        } else {
            ++out.failedTyped;
        }
    }
    double elapsed = now() - t0;
    if (spec.windowStats) {
        out.completed = atWindowEnd.completed;
        out.failedTyped = atWindowEnd.failed;
        out.perTenant.clear();
        for (const auto &[tenant, ts] : atWindowEnd.tenants)
            out.perTenant[tenant] = ts.completed;
        elapsed = spec.seconds;
    }
    out.p50 = quantileOf(latencies, 0.50);
    out.p99 = quantileOf(latencies, 0.99);
    out.p999 = quantileOf(latencies, 0.999);
    out.goodputPerSec = double(out.completed) / elapsed;
    out.shedRate = out.arrivals == 0
        ? 0
        : double(out.shedSubmit + out.failedTyped) /
            double(out.arrivals);
    Service::Stats st = svc->stats();
    out.breakerOpens = st.healthTracking ? st.health.totalOpens : 0;
    out.backendsSkipped = st.backendsSkipped;
    svc->stop();
    return out;
}

void
printScenario(std::FILE *f, const ScenarioResult &r, bool last)
{
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"arrivals\": %zu, "
                 "\"completed\": %zu, \"failed_typed\": %zu, "
                 "\"shed_submit\": %zu, \"late_past_deadline\": %zu,\n"
                 "     \"p50_s\": %.4f, \"p99_s\": %.4f, "
                 "\"p999_s\": %.4f, \"goodput_per_s\": %.2f, "
                 "\"shed_rate\": %.3f,\n"
                 "     \"breaker_opens\": %llu, "
                 "\"backends_skipped\": %llu, \"per_tenant\": {",
                 r.name.c_str(), r.arrivals, r.completed,
                 r.failedTyped, r.shedSubmit, r.latePastDeadline,
                 r.p50, r.p99, r.p999, r.goodputPerSec, r.shedRate,
                 (unsigned long long)r.breakerOpens,
                 (unsigned long long)r.backendsSkipped);
    bool first = true;
    for (const auto &[tenant, n] : r.perTenant) {
        std::fprintf(f, "%s\"%llu\": %zu", first ? "" : ", ",
                     (unsigned long long)tenant, n);
        first = false;
    }
    std::fprintf(f, "}}%s\n", last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    double seconds = 6;
    std::size_t constraints = 10;
    bool smoke = false;
    std::string outPath = "BENCH_service_soak.json";
    for (int i = 1; i < argc; ++i) {
        auto get = [&](const char *key) -> const char * {
            std::size_t n = std::strlen(key);
            if (std::strncmp(argv[i], key, n) == 0 && argv[i][n] == '=')
                return argv[i] + n + 1;
            return nullptr;
        };
        if (const char *v = get("--seconds"))
            seconds = std::strtod(v, nullptr);
        else if (const char *v = get("--constraints"))
            constraints = std::strtoull(v, nullptr, 0);
        else if (const char *v = get("--out"))
            outPath = v;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }
    if (smoke)
        seconds = std::min(seconds, 2.5);

    Workload w(constraints);

    const std::size_t kThreads = 2;
    // Calibrate the per-prove cost with the soak configuration, on the
    // healthy path and under the brown-out, whose requests prove on
    // serial. Each open-loop scenario is offered 0.7x the capacity of
    // the path it proves on, so the brown-out's load relative to its
    // backend does not move with the healthy path's speed.
    const double mu = warmProveSeconds(w, kThreads);
    double muBrownout;
    {
        faultsim::ScopedFaultPlan guard(brownoutPlan());
        muBrownout = warmProveSeconds(w, kThreads);
    }
    if (mu <= 0 || muBrownout <= 0)
        return 1;
    const double capacity = 1.0 / mu;
    const double deadline = std::max(1.0, 8 * mu);
    std::fprintf(stderr,
                 "calibrated mu=%.3fs capacity=%.1f proofs/s "
                 "deadline=%.2fs window=%.1fs; brown-out mu=%.3fs "
                 "capacity=%.1f proofs/s\n",
                 mu, capacity, deadline, seconds, muBrownout,
                 1.0 / muBrownout);

    std::vector<ScenarioResult> results;

    auto common = [&] {
        Service::Options opt;
        opt.threads = kThreads;
        opt.maxQueueDepth = 64;
        opt.cacheBytes = 256ull << 20;
        return opt;
    };

    { // baseline: healthy, below capacity, with deadlines
        ScenarioSpec s;
        s.name = "baseline";
        s.seconds = seconds;
        s.ratePerSec = 0.7 * capacity;
        s.deadlineSeconds = deadline;
        s.opt = common();
        s.trainSeconds = mu;
        results.push_back(runScenario(w, s, 0xB0));
    }
    { // brown-out with the learned breaker
        faultsim::ScopedFaultPlan guard(brownoutPlan());
        ScenarioSpec s;
        s.name = "brownout_health";
        s.seconds = seconds;
        s.ratePerSec = 0.7 / muBrownout;
        s.deadlineSeconds = deadline;
        s.opt = common();
        s.trainSeconds = mu;
        results.push_back(runScenario(w, s, 0xB1));
    }
    { // same brown-out, no health tracking: the degradation baseline
        faultsim::ScopedFaultPlan guard(brownoutPlan());
        ScenarioSpec s;
        s.name = "brownout_nohealth";
        s.seconds = seconds;
        s.ratePerSec = 0.7 / muBrownout;
        s.deadlineSeconds = deadline;
        s.opt = common();
        s.opt.healthTracking = false;
        s.trainSeconds = mu;
        results.push_back(runScenario(w, s, 0xB1));
    }
    { // 10:1 fair share, both tenants saturated, no deadlines
        ScenarioSpec s;
        s.name = "fairness";
        s.seconds = seconds;
        s.saturate = true;
        s.deadlineSeconds = 0;
        s.opt = common();
        s.opt.maxQueueDepth = 64;
        s.opt.maxQueuePerTenant = 8;
        s.windowStats = true;
        s.opt.tenantWeights = {{0, 10}, {1, 1}};
        results.push_back(runScenario(w, s, 0xB2));
    }

    const ScenarioResult &base = results[0];
    const ScenarioResult &health = results[1];
    const ScenarioResult &nohealth = results[2];
    const ScenarioResult &fair = results[3];

    double t0good = double(fair.perTenant.count(0)
                               ? fair.perTenant.at(0)
                               : 0);
    double t1good = double(fair.perTenant.count(1)
                               ? fair.perTenant.at(1)
                               : 0);
    double fairnessRatio = t0good / std::max(1.0, t1good);
    bool fairnessWithin2x = fairnessRatio >= 5.0 &&
        fairnessRatio <= 20.0;
    double p99Ratio = nohealth.p99 > 0 ? health.p99 / nohealth.p99 : 1;
    std::size_t lateTotal = 0;
    for (const auto &r : results)
        lateTotal += r.latePastDeadline;

    std::FILE *f = std::fopen(outPath.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"service_soak\",\n"
                 "  \"constraints\": %zu,\n"
                 "  \"calibrated_prove_s\": %.4f,\n"
                 "  \"calibrated_brownout_prove_s\": %.4f,\n"
                 "  \"threads\": %zu,\n"
                 "  \"window_s\": %.1f,\n"
                 "  \"smoke\": %s,\n"
                 "  \"scenarios\": [\n",
                 constraints, mu, muBrownout, kThreads, seconds,
                 smoke ? "true" : "false");
    for (std::size_t i = 0; i < results.size(); ++i)
        printScenario(f, results[i], i + 1 == results.size());
    std::fprintf(f,
                 "  ],\n  \"checks\": {\n"
                 "    \"zero_proofs_past_deadline\": %s,\n"
                 "    \"brownout_breaker_opened\": %s,\n"
                 "    \"brownout_p99_health_over_nohealth\": %.3f,\n"
                 "    \"fairness_goodput_ratio\": %.2f,\n"
                 "    \"fairness_within_2x_of_10\": %s\n  }\n}\n",
                 lateTotal == 0 ? "true" : "false",
                 health.breakerOpens >= 1 ? "true" : "false",
                 p99Ratio, fairnessRatio,
                 fairnessWithin2x ? "true" : "false");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", outPath.c_str());

    // Self-checking acceptance gates (always on; --smoke only
    // shortens the windows).
    int rc = 0;
    auto check = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "CHECK FAILED: %s\n", what);
            rc = 1;
        }
    };
    check(lateTotal == 0, "a proof was delivered past its deadline");
    check(base.completed > 0, "baseline completed no proofs");
    check(health.completed > 0, "brownout_health completed no proofs");
    check(health.breakerOpens >= 1,
          "brown-out never opened the breaker");
    check(health.backendsSkipped >= 1,
          "breaker never skipped the dead backend");
    check(nohealth.breakerOpens == 0,
          "health tracking was supposed to be off");
    check(health.p99 <= nohealth.p99 * 2.0 + 0.05,
          "health-tracked p99 regressed past the no-health baseline");
    check(fair.shedSubmit + fair.failedTyped > 0,
          "fairness scenario never saturated");
    check(fairnessRatio >= (smoke ? 4.0 : 5.0) &&
              fairnessRatio <= (smoke ? 25.0 : 20.0),
          "10:1 weights did not yield a ~10x goodput ratio");
    return rc;
}
