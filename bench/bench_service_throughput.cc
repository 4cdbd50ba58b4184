/**
 * @file
 * Serving-layer throughput bench: cold-cache vs warm-cache proofs/sec
 * through the ProofService, and the amortized cost of Algorithm-1
 * preprocessing across a request batch.
 *
 *     bench_service_throughput [--constraints=10] [--requests=8]
 *                              [--reps=1] [--threads=0]
 *
 * Cold = a fresh service proves `requests` proofs, paying the
 * artifact build (all five weighted-point tables + NTT domain) on the
 * first one. Warm = the same service proves `requests` more, every
 * one a cache hit. One JSON line per rep feeds EXPERIMENTS.md
 * directly (same convention as bench_parallel_scaling).
 *
 * Plain main (not google-benchmark): each timing spans whole service
 * drains, and the cache state *is* the variable under test, so
 * framework-driven iteration reordering would corrupt it.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

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

/** Submit `n` seeded requests and drain them; seconds elapsed. */
double
proveBatch(Service &svc, Service::CircuitId id,
           const std::vector<Fr> &witness, std::size_t n,
           std::uint64_t seed_base)
{
    std::vector<std::future<Service::Result>> futures;
    futures.reserve(n);
    double t0 = now();
    for (std::size_t i = 0; i < n; ++i) {
        Service::Request req;
        req.circuit = id;
        req.witness = witness;
        req.seed = seed_base + i;
        auto admitted = svc.submit(std::move(req));
        if (!admitted.isOk()) {
            std::fprintf(stderr, "submit failed: %s\n",
                         admitted.status().toString().c_str());
            std::exit(1);
        }
        futures.push_back(std::move(*admitted));
    }
    svc.drain();
    for (auto &f : futures) {
        Service::Result res = f.get();
        if (!res.status.isOk()) {
            std::fprintf(stderr, "prove failed: %s\n",
                         res.status.toString().c_str());
            std::exit(1);
        }
    }
    return now() - t0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t constraints = 10, requests = 8, reps = 1, threads = 0;
    for (int i = 1; i < argc; ++i) {
        auto get = [&](const char *key) -> const char * {
            std::size_t n = std::strlen(key);
            if (std::strncmp(argv[i], key, n) == 0 && argv[i][n] == '=')
                return argv[i] + n + 1;
            return nullptr;
        };
        if (const char *v = get("--constraints"))
            constraints = std::strtoull(v, nullptr, 0);
        else if (const char *v = get("--requests"))
            requests = std::strtoull(v, nullptr, 0);
        else if (const char *v = get("--reps"))
            reps = std::strtoull(v, nullptr, 0);
        else if (const char *v = get("--threads"))
            threads = std::strtoull(v, nullptr, 0);
        else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    auto builder = testkit::randomCircuit<Fr>(0xBE7C4, constraints);
    testkit::Rng krng(testkit::deriveSeed(0xBE7C4, 1));
    auto keys =
        zkp::Groth16<zkp::Bn254Family>::setup(builder.cs(), krng);

    for (std::size_t rep = 0; rep < reps; ++rep) {
        Service::Options opt;
        opt.maxQueueDepth = requests;
        opt.threads = threads;
        auto svc = service::makeBn254ProofService(opt);
        auto id = svc->registerCircuit(keys.pk, keys.vk, builder.cs());

        double cold_s = proveBatch(*svc, id, builder.assignment(),
                                   requests, 1000 * (rep + 1));
        double build_s = svc->stats().buildSecondsTotal;
        double warm_s = proveBatch(*svc, id, builder.assignment(),
                                   requests, 2000 * (rep + 1));
        Service::Stats st = svc->stats();

        std::printf(
            "{\"bench\":\"service_throughput\",\"constraints\":%zu,"
            "\"requests\":%zu,\"threads\":%zu,\"rep\":%zu,"
            "\"cold_s\":%.4f,\"warm_s\":%.4f,"
            "\"cold_proofs_per_s\":%.3f,\"warm_proofs_per_s\":%.3f,"
            "\"warm_speedup\":%.3f,\"build_s\":%.4f,"
            "\"amortized_build_per_proof_s\":%.5f,"
            "\"cache_hits\":%llu,\"cache_misses\":%llu,"
            "\"artifact_bytes\":%llu}\n",
            constraints, requests, threads, rep, cold_s, warm_s,
            double(requests) / cold_s, double(requests) / warm_s,
            cold_s / warm_s, build_s, build_s / double(requests),
            (unsigned long long)st.cache.hits,
            (unsigned long long)st.cache.misses,
            (unsigned long long)st.cache.bytesInUse);
    }
    return 0;
}
