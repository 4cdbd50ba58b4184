/**
 * @file
 * Multi-device scaling bench: aggregate proof throughput of the
 * per-stage placement scheduler at 1 -> 4 devices, plus the
 * heterogeneous fleet row.
 *
 *     bench_multi_device [--proofs=N] [--depth=D] [--smoke]
 *                        [--out=BENCH_multi_device.json]
 *
 * The workload is a Poseidon Merkle-membership circuit (the suite's
 * realistic prover shape). Each topology proves the same M seeded
 * instances through a StageScheduler; throughput is M divided by the
 * *modeled* makespan -- the planned schedule against the gpusim
 * roofline clocks, which is what a real fleet's wall clock would
 * track (this host has no GPUs; functional execution runs on CPU and
 * is identical for every topology).
 *
 * Self-checking (nonzero exit on violation, --smoke is the CI gate):
 *  - every proof verifies, on every topology;
 *  - proof bytes are identical across all topologies (placement is
 *    routing-only);
 *  - v100:4 reaches >= 2x the v100:1 throughput, and the scaling
 *    curve is monotone 1 -> 4;
 *  - the heterogeneous row beats a lone V100 (extra silicon is never
 *    a regression).
 *
 * Plain main, not google-benchmark: the scheduler's virtual clocks
 * are the measurement, so framework iteration would add nothing.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "device/registry.hh"
#include "device/scheduler.hh"
#include "testkit/testkit.hh"
#include "workload/workloads.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/serialize.hh"

using namespace gzkp;
using Fr = ff::Bn254Fr;
using G16 = zkp::Groth16<zkp::Bn254Family>;
using Scheduler = device::StageScheduler<zkp::Bn254Family>;
using testkit::deriveSeed;

namespace {

struct TopologyResult {
    std::string spec;
    std::size_t devices = 0;
    std::size_t proofs = 0;
    double makespan = 0;
    double proofsPerSec = 0;
    double speedup = 0;
    std::vector<std::string> bytes;
};

TopologyResult
runTopology(const std::string &spec, const workload::Builder<Fr> &b,
            const G16::Keys &keys, std::size_t proofs)
{
    TopologyResult out;
    out.spec = spec;
    out.proofs = proofs;
    auto topo = device::parseTopology(spec);
    if (!topo.isOk()) {
        std::fprintf(stderr, "bad topology %s: %s\n", spec.c_str(),
                     topo.status().toString().c_str());
        std::exit(1);
    }
    out.devices = topo->size();
    Scheduler::Options opt;
    opt.devices = std::move(*topo);
    Scheduler sched(std::move(opt), zkp::verifyBn254);

    std::vector<Fr> pub(
        b.assignment().begin() + 1,
        b.assignment().begin() + 1 + b.cs().numPublic());
    for (std::size_t i = 0; i < proofs; ++i) {
        Scheduler::Job job;
        job.pk = &keys.pk;
        job.vk = &keys.vk;
        job.cs = &b.cs();
        job.witness = b.assignment();
        job.seed = deriveSeed(0xD0D0, i);
        Scheduler::Result res = sched.prove(std::move(job));
        if (!res.status.isOk() || !res.proof.has_value() ||
            !zkp::verifyBn254(keys.vk, *res.proof, pub)) {
            std::fprintf(stderr, "bad proof on %s: %s\n", spec.c_str(),
                         res.status.toString().c_str());
            std::exit(1);
        }
        out.bytes.push_back(
            zkp::serializeProof<zkp::Bn254Family>(*res.proof));
    }
    out.makespan = sched.stats().modeledMakespan;
    out.proofsPerSec =
        out.makespan > 0 ? double(proofs) / out.makespan : 0;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t proofs = 10;
    std::size_t depth = 4;
    bool smoke = false;
    std::string outPath = "BENCH_multi_device.json";
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--proofs=", 9) == 0)
            proofs = std::size_t(std::atoi(a + 9));
        else if (std::strncmp(a, "--depth=", 8) == 0)
            depth = std::size_t(std::atoi(a + 8));
        else if (std::strcmp(a, "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(a, "--out=", 6) == 0)
            outPath = a + 6;
        else {
            std::fprintf(stderr, "unknown flag %s\n", a);
            return 2;
        }
    }
    if (smoke) {
        proofs = 4;
        depth = 3;
    }

    testkit::Rng rng(deriveSeed(0xD0D0, 99));
    auto b = workload::makePoseidonMerkleCircuit<Fr>(depth, 2, 1, rng);
    testkit::Rng setupRng(deriveSeed(0xD0D0, 100));
    G16::Keys keys = G16::setup(b.cs(), setupRng);
    std::printf("poseidon-merkle depth=%zu: %zu constraints, "
                "domain 2^%zu\n",
                depth, b.cs().numConstraints(), keys.pk.domainLog);

    const std::vector<std::string> topologies = {
        "v100:1", "v100:2", "v100:3", "v100:4",
        "v100:2,1080ti:1,cpu:4t",
    };
    std::vector<TopologyResult> rows;
    for (const auto &spec : topologies) {
        rows.push_back(runTopology(spec, b, keys, proofs));
        rows.back().speedup = rows[0].makespan > 0
            ? rows[0].makespan / rows.back().makespan
            : 0;
        std::printf("%-24s %zu devices  makespan %8.4fs  "
                    "%7.2f proofs/s  speedup %5.2fx\n",
                    rows.back().spec.c_str(), rows.back().devices,
                    rows.back().makespan, rows.back().proofsPerSec,
                    rows.back().speedup);
    }

    bool ok = true;
    for (std::size_t i = 1; i < rows.size(); ++i)
        if (rows[i].bytes != rows[0].bytes) {
            std::fprintf(stderr,
                         "FAIL: proof bytes differ between %s and %s\n",
                         rows[0].spec.c_str(), rows[i].spec.c_str());
            ok = false;
        }
    // rows[0..3] are v100:1..4 -- the scaling curve must be monotone
    // and reach 2x at 4 devices; the heterogeneous row must beat a
    // lone V100.
    for (std::size_t i = 1; i < 4; ++i)
        if (rows[i].speedup < rows[i - 1].speedup - 1e-9) {
            std::fprintf(stderr,
                         "FAIL: speedup not monotone at %s "
                         "(%.2f < %.2f)\n",
                         rows[i].spec.c_str(), rows[i].speedup,
                         rows[i - 1].speedup);
            ok = false;
        }
    if (rows[3].speedup < 2.0) {
        std::fprintf(stderr, "FAIL: v100:4 speedup %.2f < 2.0\n",
                     rows[3].speedup);
        ok = false;
    }
    if (rows[4].speedup < 1.0) {
        std::fprintf(stderr,
                     "FAIL: heterogeneous speedup %.2f < 1.0\n",
                     rows[4].speedup);
        ok = false;
    }

    std::FILE *f = std::fopen(outPath.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"multi_device\",\n");
    std::fprintf(f, "  \"workload\": \"poseidon_merkle\",\n");
    std::fprintf(f, "  \"depth\": %zu,\n", depth);
    std::fprintf(f, "  \"constraints\": %zu,\n",
                 b.cs().numConstraints());
    std::fprintf(f, "  \"domain_log\": %zu,\n", keys.pk.domainLog);
    std::fprintf(f, "  \"proofs\": %zu,\n", proofs);
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"topologies\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const TopologyResult &r = rows[i];
        std::fprintf(f,
                     "    {\"topology\": \"%s\", \"devices\": %zu, "
                     "\"proofs\": %zu, \"modeled_makespan_s\": %.6f, "
                     "\"proofs_per_s\": %.3f, "
                     "\"speedup_vs_1\": %.3f}%s\n",
                     r.spec.c_str(), r.devices, r.proofs, r.makespan,
                     r.proofsPerSec, r.speedup,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"checks\": {\n");
    std::fprintf(f, "    \"bytes_identical_across_topologies\": %s,\n",
                 ok ? "true" : "false");
    std::fprintf(f, "    \"v100x4_speedup\": %.3f,\n",
                 rows[3].speedup);
    std::fprintf(f, "    \"heterogeneous_speedup\": %.3f\n",
                 rows[4].speedup);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", outPath.c_str());
    return ok ? 0 : 1;
}
