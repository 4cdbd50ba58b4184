/**
 * @file
 * Multi-tenant proving-service driver.
 *
 *     service_driver [--circuits=3] [--per-circuit=6] [--seed=1]
 *                    [--constraints=10] [--queue-depth=64]
 *                    [--threads=0] [--cache-bytes=SPEC]
 *                    [--deadline-ms=N] [--tenant-weights=SPEC]
 *                    [--devices=SPEC] [--background] [--verify]
 *                    [--verbose]
 *
 * Replays a synthetic multi-tenant trace (testkit::serviceTrace:
 * `circuits` tenants x `per-circuit` requests each, seeded arrival
 * order) through a BN254 ProofService and prints the service and
 * cache statistics. The request's tenant id is its circuit index, so
 * --tenant-weights (`tenant:weight` pairs, e.g. "0:10,1:1")
 * skews the fair-share scheduler between circuits; the service proves
 * one request per dequeue, in that fair-share order. --deadline-ms
 * attaches a deadline to every request (0 = none), which arms the
 * admission controller's shedding. --background runs the service's
 * own scheduler thread instead of draining inline; --verify
 * re-checks every released proof with the independent pairing
 * verifier. --cache-bytes sets the artifact-cache budget (a byte
 * count with an optional k/m/g suffix, e.g. 64m; default 256m).
 * --devices takes a device topology (e.g. "v100:2,1080ti:1,cpu:4t")
 * and routes every proof through the multi-device stage scheduler;
 * the end-of-run report then includes a per-device utilization
 * breakdown. GZKP_FAULTS is honored (like the fuzz driver), so a
 * seeded plan such as `launch@device.fail.v100.0:1` replays a
 * device brown-out through the whole service.
 *
 * Numeric flags must parse in full as unsigned integers (decimal, 0x
 * hex or 0-prefixed octal); --circuits, --per-circuit and
 * --queue-depth must also be positive. A bad value is a usage error
 * (exit 2), like a malformed spec, rather than a run that proves
 * nothing.
 *
 * The replay summary breaks rejected and failed requests down by
 * their typed status code. A deliberate shed -- kDeadlineExceeded or
 * kResourceExhausted from overload control -- is reported but is NOT
 * a driver failure; the exit code is nonzero only for *unexpected*
 * failures (any other status code, or a released proof the verifier
 * rejects), so the CI can run overloaded traces as smoke tests.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "faultsim/faultsim.hh"
#include "parse_count.hh"
#include "service/proof_service.hh"
#include "testkit/testkit.hh"

namespace {

using namespace gzkp;
using Service = service::ProofService<zkp::Bn254Family>;
using Fr = ff::Bn254Fr;

struct Args {
    std::size_t circuits = 3;
    std::size_t perCircuit = 6;
    std::uint64_t seed = 1;
    std::size_t constraints = 10;
    std::size_t queueDepth = 64;
    std::size_t threads = 0;
    std::string cacheBytes;
    std::uint64_t deadlineMs = 0;
    std::string tenantWeights;
    std::string devices;
    bool background = false;
    bool verify = false;
    bool verbose = false;
};

/** A shed is overload control doing its job, not a driver failure. */
bool
deliberateShed(gzkp::StatusCode code)
{
    return code == gzkp::StatusCode::kDeadlineExceeded ||
        code == gzkp::StatusCode::kResourceExhausted;
}

using tools::Parse;
using tools::parseCount;

Parse
parseOne(Args &a, const std::string &arg)
{
    auto val = [&](const char *key) -> const char * {
        std::size_t n = std::strlen(key);
        if (arg.compare(0, n, key) == 0 && arg.size() > n &&
            arg[n] == '=')
            return arg.c_str() + n + 1;
        return nullptr;
    };
    if (const char *v = val("--circuits"))
        return parseCount(v, true, a.circuits);
    if (const char *v = val("--per-circuit"))
        return parseCount(v, true, a.perCircuit);
    if (const char *v = val("--seed"))
        return parseCount(v, false, a.seed);
    if (const char *v = val("--constraints"))
        return parseCount(v, false, a.constraints);
    if (const char *v = val("--queue-depth"))
        return parseCount(v, true, a.queueDepth);
    if (const char *v = val("--threads"))
        return parseCount(v, false, a.threads);
    if (const char *v = val("--deadline-ms"))
        return parseCount(v, false, a.deadlineMs);
    if (const char *v = val("--cache-bytes"))
        a.cacheBytes = v;
    else if (const char *v = val("--tenant-weights"))
        a.tenantWeights = v;
    else if (const char *v = val("--devices"))
        a.devices = v;
    else if (arg == "--background")
        a.background = true;
    else if (arg == "--verify")
        a.verify = true;
    else if (arg == "--verbose")
        a.verbose = true;
    else
        return Parse::Unknown;
    return Parse::Ok;
}

/** One registered tenant: circuit, keys, and its public inputs. */
struct Tenant {
    workload::Builder<Fr> builder;
    zkp::Groth16<zkp::Bn254Family>::Keys keys;
    std::vector<Fr> publicInputs;
    Service::CircuitId id = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        switch (parseOne(args, argv[i])) {
        case Parse::Ok: break;
        case Parse::Unknown:
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        case Parse::BadValue:
            std::fprintf(stderr,
                         "bad value: %s (expected an unsigned integer; "
                         "--circuits, --per-circuit and --queue-depth "
                         "must be > 0)\n",
                         argv[i]);
            return 2;
        }
    }
    // Honor GZKP_FAULTS like the fuzz driver does, so seeded fault
    // plans (e.g. a persistent device.fail.<name>) can be replayed
    // through the whole service from the command line.
    if (auto s = faultsim::installFromEnv(); !s.isOk()) {
        std::fprintf(stderr, "bad GZKP_FAULTS: %s\n",
                     s.toString().c_str());
        return 2;
    }
    Service::Options opt;
    opt.maxQueueDepth = args.queueDepth;
    opt.threads = args.threads;
    if (!args.cacheBytes.empty()) {
        opt.cacheBytes =
            service::parseCacheBytesSpec(args.cacheBytes.c_str());
        if (opt.cacheBytes == 0) {
            std::fprintf(stderr, "bad --cache-bytes spec: %s\n",
                         args.cacheBytes.c_str());
            return 2;
        }
    }
    if (!args.tenantWeights.empty()) {
        auto weights =
            service::parseTenantWeightsSpec(args.tenantWeights.c_str());
        if (!weights.isOk()) {
            std::fprintf(stderr, "bad --tenant-weights spec: %s\n",
                         weights.status().toString().c_str());
            return 2;
        }
        opt.tenantWeights = std::move(*weights);
    }
    if (!args.devices.empty()) {
        // Validate up front for a clean CLI error (the service ctor
        // throws a typed StatusError on a malformed spec).
        auto topo = device::parseTopology(args.devices);
        if (!topo.isOk()) {
            std::fprintf(stderr, "bad --devices spec: %s\n",
                         topo.status().toString().c_str());
            return 2;
        }
        opt.deviceSpec = args.devices;
    }
    auto svc = service::makeBn254ProofService(opt);

    // Distinct tenants: each circuit gets its own seed, so its own
    // constraint structure, keys, and therefore its own cache entry.
    std::vector<Tenant> tenants;
    tenants.reserve(args.circuits);
    for (std::size_t c = 0; c < args.circuits; ++c) {
        Tenant t{testkit::randomCircuit<Fr>(
                     testkit::deriveSeed(args.seed, 0xC + c),
                     args.constraints),
                 {},
                 {},
                 0};
        testkit::Rng rng(testkit::deriveSeed(args.seed, 0x5E + c));
        t.keys =
            zkp::Groth16<zkp::Bn254Family>::setup(t.builder.cs(), rng);
        const auto &z = t.builder.assignment();
        t.publicInputs.assign(
            z.begin() + 1, z.begin() + 1 + t.builder.cs().numPublic());
        t.id = svc->registerCircuit(t.keys.pk, t.keys.vk,
                                    t.builder.cs());
        tenants.push_back(std::move(t));
    }

    auto trace =
        testkit::serviceTrace(args.circuits, args.perCircuit, args.seed);
    if (args.background)
        svc->start();

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::pair<std::size_t, std::future<Service::Result>>>
        inflight;
    std::map<StatusCode, std::size_t> rejectedByCode;
    std::map<StatusCode, std::size_t> failedByCode;
    std::size_t rejected = 0;
    for (const auto &entry : trace) {
        const Tenant &t = tenants[entry.circuit];
        Service::Request req;
        req.circuit = t.id;
        req.witness = t.builder.assignment();
        req.seed = entry.seed;
        req.tenant = entry.circuit; // tenant id = circuit index
        if (args.deadlineMs != 0)
            req.timeout = std::chrono::milliseconds(args.deadlineMs);
        auto admitted = svc->submit(std::move(req));
        if (!admitted.isOk()) {
            ++rejected;
            ++rejectedByCode[admitted.status().code()];
            if (args.verbose)
                std::fprintf(stderr, "rejected: %s\n",
                             admitted.status().toString().c_str());
            continue;
        }
        inflight.emplace_back(entry.circuit, std::move(*admitted));
        // Inline mode drains opportunistically at the high-watermark
        // so a long trace still fits a small queue.
        if (!args.background &&
            inflight.size() % args.queueDepth == 0)
            svc->drain();
    }
    if (!args.background)
        svc->drain();

    std::size_t ok = 0, failed = 0, badProofs = 0, cacheHits = 0;
    for (auto &[tenant_idx, fut] : inflight) {
        Service::Result res = fut.get();
        if (!res.status.isOk()) {
            ++failed;
            ++failedByCode[res.status.code()];
            if (args.verbose)
                std::fprintf(stderr, "failed: %s\n",
                             res.status.toString().c_str());
            continue;
        }
        ++ok;
        if (res.cacheHit)
            ++cacheHits;
        if (args.verify) {
            const Tenant &t = tenants[tenant_idx];
            if (!zkp::verifyBn254(t.keys.vk, *res.proof,
                                  t.publicInputs))
                ++badProofs;
        }
    }
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    if (args.background)
        svc->stop();

    Service::Stats st = svc->stats();
    std::printf("service_driver: circuits=%zu per_circuit=%zu seed=%llu "
                "mode=%s\n",
                args.circuits, args.perCircuit,
                (unsigned long long)args.seed,
                args.background ? "background" : "inline");
    std::printf("  requests: accepted=%llu rejected=%llu completed=%llu "
                "failed=%llu\n",
                (unsigned long long)st.accepted,
                (unsigned long long)st.rejected,
                (unsigned long long)st.completed,
                (unsigned long long)st.failed);
    std::printf("  queue: dequeued=%llu peak_queue_depth=%zu\n",
                (unsigned long long)st.batches, st.peakQueueDepth);
    std::printf("  cache: hits=%llu misses=%llu builds=%llu "
                "evictions=%llu bypasses=%llu bytes_in_use=%llu "
                "budget=%llu\n",
                (unsigned long long)st.cache.hits,
                (unsigned long long)st.cache.misses,
                (unsigned long long)st.cache.builds,
                (unsigned long long)st.cache.evictions,
                (unsigned long long)st.cacheBypasses,
                (unsigned long long)st.cache.bytesInUse,
                (unsigned long long)svc->cache().budgetBytes());
    std::printf("  latency: queue_s=%.3f build_s=%.3f prove_s=%.3f "
                "wall_s=%.3f throughput=%.2f proofs/s\n",
                st.queueSecondsTotal, st.buildSecondsTotal,
                st.proveSecondsTotal, wall,
                wall > 0 ? double(ok) / wall : 0.0);
    std::printf("  overload: shed_admission=%llu shed_queued=%llu "
                "shed_late=%llu backends_skipped=%llu\n",
                (unsigned long long)st.shedAdmission,
                (unsigned long long)st.shedQueued,
                (unsigned long long)st.shedLate,
                (unsigned long long)st.backendsSkipped);
    if (st.deviceScheduling) {
        std::printf("  devices: makespan_s=%.4f stage_retries=%llu\n",
                    st.deviceMakespan,
                    (unsigned long long)st.deviceStageRetries);
        for (const auto &g : st.devices) {
            double util = st.deviceMakespan > 0
                ? g.modeledBusySeconds / st.deviceMakespan
                : 0.0;
            std::printf("    %-12s %-9s poly=%llu msm=%llu "
                        "busy_s=%.4f util=%5.1f%% fail=%llu "
                        "quarantine=%llu slow=%llu breaker=%s\n",
                        g.name.c_str(), device::name(g.kind),
                        (unsigned long long)g.polyCompleted,
                        (unsigned long long)g.msmCompleted,
                        g.modeledBusySeconds, 100.0 * util,
                        (unsigned long long)g.failures,
                        (unsigned long long)g.quarantines,
                        (unsigned long long)g.slowHits,
                        service::name(g.breaker));
        }
    }

    // The typed breakdown: deliberate sheds are reported, unexpected
    // codes fail the run.
    std::size_t unexpectedRejected = 0, unexpectedFailed = 0;
    for (const auto &[code, n] : rejectedByCode) {
        bool shed = deliberateShed(code);
        std::printf("  rejected[%s]=%zu%s\n", statusCodeName(code), n,
                    shed ? " (deliberate shed)" : " (UNEXPECTED)");
        if (!shed)
            unexpectedRejected += n;
    }
    for (const auto &[code, n] : failedByCode) {
        bool shed = deliberateShed(code);
        std::printf("  failed[%s]=%zu%s\n", statusCodeName(code), n,
                    shed ? " (deliberate shed)" : " (UNEXPECTED)");
        if (!shed)
            unexpectedFailed += n;
    }
    if (args.verify)
        std::printf("  verify: ok=%zu bad=%zu\n", ok - badProofs,
                    badProofs);

    if (badProofs != 0 || unexpectedFailed != 0 ||
        unexpectedRejected != 0) {
        std::fprintf(stderr,
                     "service_driver: FAILED (unexpected_failed=%zu "
                     "unexpected_rejected=%zu bad_proofs=%zu)\n",
                     unexpectedFailed, unexpectedRejected, badProofs);
        return 1;
    }
    std::printf("service_driver: OK (%zu proofs, %zu shed, "
                "%zu cache hits)\n",
                ok, rejected + failed, cacheHits);
    return 0;
}
