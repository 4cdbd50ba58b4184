/**
 * @file
 * Realistic workload suite bench (Table-8-style comparison): measured
 * end-to-end Groth16 prove wall-clock for every workload circuit
 * under every MSM engine, plus an MSM-only section sweeping the
 * scalar-distribution regimes (uniform / sparse01 / clustered /
 * adversarial-collision) across the accumulator x GLV strategy
 * registry. One JSON line per configuration.
 *
 *     bench_table_workloads [--smoke|--full] [--reps=N]
 *                           [--out=BENCH_workloads.json]
 *
 * --smoke runs scaled-down shapes for CI; --full is the committed
 * BENCH_workloads.json run (prove circuits in the 2^12..2^13 domain
 * range; regime MSMs at 2^14, the scale where the batch-affine+GLV
 * vs jacobian+GLV single-thread wrinkle documented in EXPERIMENTS.md
 * lives). Correctness is asserted throughout: the engines must
 * produce byte-identical proofs and identical MSM results, so a
 * speedup can never come from a wrong answer.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "msm/msm_bellperson.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "testkit/testkit.hh"
#include "zkp/serialize.hh"

using namespace gzkp;
using Cfg = ec::Bn254G1Cfg;
using Family = zkp::Bn254Family;
using G16 = zkp::Groth16<Family>;
using Fr = Family::Fr;

namespace {

std::vector<std::string> g_records;

/** Groth16 MSM policy: the bellperson-like paper baseline. */
struct BellpersonMsmPolicy {
    template <typename C>
    static ec::ECPoint<C>
    msm(const std::vector<ec::AffinePoint<C>> &pts,
        const std::vector<typename C::Scalar> &scs,
        std::size_t threads = 0)
    {
        return msm::BellpersonMsm<C>(10, 0, threads).run(pts, scs);
    }
};

void
record(const std::string &line)
{
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    g_records.push_back(line);
}

// ------------------------------------------- prove-time per workload

void
emitProve(const std::string &workload, std::size_t constraints,
          const char *engine, std::size_t threads, double ns,
          double serial_ns)
{
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"workloads\",\"section\":\"prove\","
        "\"workload\":\"%s\",\"constraints\":%zu,\"engine\":\"%s\","
        "\"threads\":%zu,\"ns\":%.0f,\"speedup_vs_serial\":%.3f}",
        workload.c_str(), constraints, engine, threads, ns,
        serial_ns / ns);
    record(buf);
}

/**
 * Time G16::prove under one MSM policy with identically-seeded
 * prover randomness; returns (median seconds, serialized bytes).
 */
template <typename Policy>
std::pair<double, std::string>
timeProve(const typename G16::Keys &keys,
          const workload::Builder<Fr> &b, std::uint64_t seed,
          std::size_t threads, std::size_t reps)
{
    std::string bytes;
    double s = bench::medianSeconds(
        [&] {
            testkit::Rng prng(testkit::deriveSeed(seed, 2));
            auto proof = G16::prove<Policy>(
                keys.pk, b.cs(), b.assignment(), prng, nullptr,
                zkp::CpuNttEngine<Fr>(), threads);
            bytes = zkp::serializeProof<Family>(proof);
        },
        reps);
    return {s, bytes};
}

void
benchWorkload(const std::string &name, const workload::Builder<Fr> &b,
              std::uint64_t seed, std::size_t threads,
              std::size_t reps)
{
    if (!b.cs().isSatisfied(b.assignment())) {
        std::fprintf(stderr, "%s: circuit unsatisfied\n",
                     name.c_str());
        std::exit(1);
    }
    testkit::Rng rng(testkit::deriveSeed(seed, 1));
    auto keys = G16::setup(b.cs(), rng);

    auto [serial_s, serial_bytes] = timeProve<zkp::SerialMsmPolicy>(
        keys, b, seed, threads, reps);
    emitProve(name, b.cs().numConstraints(), "serial", threads,
              serial_s * 1e9, serial_s * 1e9);
    auto [bell_s, bell_bytes] = timeProve<BellpersonMsmPolicy>(
        keys, b, seed, threads, reps);
    auto [gzkp_s, gzkp_bytes] = timeProve<zkp::GzkpMsmPolicy>(
        keys, b, seed, threads, reps);
    if (bell_bytes != serial_bytes || gzkp_bytes != serial_bytes) {
        std::fprintf(stderr, "%s: engines produced different proofs\n",
                     name.c_str());
        std::exit(1);
    }
    emitProve(name, b.cs().numConstraints(), "bellperson", threads,
              bell_s * 1e9, serial_s * 1e9);
    emitProve(name, b.cs().numConstraints(), "gzkp", threads,
              gzkp_s * 1e9, serial_s * 1e9);
}

// ----------------------------------------- MSM regimes x strategies

void
emitMsm(const char *engine, testkit::ScalarMix regime,
        msm::Accumulator acc, msm::GlvMode glv, std::size_t log_n,
        std::size_t threads, double ns, double baseline_ns)
{
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"workloads\",\"section\":\"msm-regime\","
        "\"engine\":\"%s\",\"regime\":\"%s\",\"accumulator\":\"%s\","
        "\"glv\":\"%s\",\"log_n\":%zu,\"threads\":%zu,\"ns\":%.0f,"
        "\"speedup_vs_jacobian\":%.3f}",
        engine, testkit::name(regime),
        acc == msm::Accumulator::BatchAffine ? "batchaffine"
                                             : "jacobian",
        glv == msm::GlvMode::On ? "on" : "off", log_n, threads, ns,
        baseline_ns / ns);
    record(buf);
}

struct Variant {
    msm::Accumulator acc;
    msm::GlvMode glv;
};

const Variant kVariants[] = {
    {msm::Accumulator::Jacobian, msm::GlvMode::Off},
    {msm::Accumulator::BatchAffine, msm::GlvMode::Off},
    {msm::Accumulator::Jacobian, msm::GlvMode::On},
    {msm::Accumulator::BatchAffine, msm::GlvMode::On},
};

void
benchRegime(testkit::ScalarMix regime, std::size_t log_n,
            std::size_t threads, std::size_t reps)
{
    std::size_t n = std::size_t(1) << log_n;
    auto in = testkit::msmInstance<Cfg>(n, regime, 4242 + log_n);

    double serial_base = 0, gzkp_base = 0;
    ec::ECPoint<Cfg> expect;
    bool have_expect = false;
    for (const Variant &v : kVariants) {
        msm::PippengerSerial<Cfg> engine(0, threads, v.acc, v.glv);
        auto got = engine.run(in.points, in.scalars);
        if (!have_expect) {
            expect = got;
            have_expect = true;
        } else if (got != expect) {
            std::fprintf(stderr, "serial regime variant diverged\n");
            std::exit(1);
        }
        double s = bench::medianSeconds(
            [&] { engine.run(in.points, in.scalars); }, reps);
        if (v.acc == msm::Accumulator::Jacobian &&
            v.glv == msm::GlvMode::Off)
            serial_base = s;
        emitMsm("serial", regime, v.acc, v.glv, log_n, threads,
                s * 1e9, serial_base * 1e9);
    }
    for (const Variant &v : kVariants) {
        typename msm::GzkpMsm<Cfg>::Options opt;
        opt.k = 13;
        opt.checkpointM = msm::windowCount(Cfg::Scalar::bits(), opt.k);
        opt.threads = threads;
        opt.accumulator = v.acc;
        opt.glv = v.glv;
        msm::GzkpMsm<Cfg> engine(opt);
        auto pp = engine.preprocess(in.points);
        auto got = engine.run(pp, in.scalars);
        if (got != expect) {
            std::fprintf(stderr, "gzkp regime variant diverged\n");
            std::exit(1);
        }
        double s = bench::medianSeconds(
            [&] { engine.run(pp, in.scalars); }, reps);
        if (v.acc == msm::Accumulator::Jacobian &&
            v.glv == msm::GlvMode::Off)
            gzkp_base = s;
        emitMsm("gzkp", regime, v.acc, v.glv, log_n, threads, s * 1e9,
                gzkp_base * 1e9);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::size_t reps = 3;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--full")
            full = true;
        else if (a == "--smoke")
            full = false;
        else if (a.rfind("--reps=", 0) == 0)
            reps = std::strtoull(a.c_str() + 7, nullptr, 0);
        else if (a.rfind("--out=", 0) == 0)
            out = a.substr(6);
        else {
            std::fprintf(
                stderr,
                "usage: bench_table_workloads [--smoke|--full] "
                "[--reps=N] [--out=PATH]\n");
            return 2;
        }
    }

    bench::header("Workload suite: end-to-end prove per engine");
    std::size_t threads = full ? 8 : 2;
    {
        testkit::Rng rng(11);
        benchWorkload("poseidon-chain",
                      workload::makePoseidonChainCircuit<Fr>(
                          full ? 16 : 2, rng),
                      11, threads, reps);
    }
    {
        testkit::Rng rng(13);
        std::size_t depth = full ? 8 : 3;
        benchWorkload(
            "poseidon-merkle-d" + std::to_string(depth) + "-a2",
            workload::makePoseidonMerkleCircuit<Fr>(depth, 2, 5, rng),
            13, threads, reps);
    }
    {
        testkit::Rng rng(17);
        std::size_t depth = full ? 4 : 2;
        benchWorkload(
            "poseidon-merkle-d" + std::to_string(depth) + "-a4",
            workload::makePoseidonMerkleCircuit<Fr>(depth, 4, 9, rng),
            17, threads, reps);
    }
    {
        testkit::Rng rng(19);
        std::size_t depth = full ? 32 : 8;
        benchWorkload("mimc-merkle-d" + std::to_string(depth),
                      workload::makeMerkleCircuit<Fr>(depth, rng),
                      19, threads, reps);
    }
    {
        testkit::Rng rng(23);
        benchWorkload("synthetic",
                      workload::makeSyntheticCircuit<Fr>(
                          full ? 4096 : 256, 0.4, rng),
                      23, threads, reps);
    }

    bench::header("MSM scalar regimes x strategy registry");
    // Single-threaded at 2^14 in --full: the exact configuration of
    // the batch-affine+GLV vs jacobian+GLV wrinkle.
    std::size_t log_n = full ? 14 : 10;
    for (auto regime :
         {testkit::ScalarMix::Dense, testkit::ScalarMix::Sparse01,
          testkit::ScalarMix::Clustered,
          testkit::ScalarMix::Collision})
        benchRegime(regime, log_n, 1, reps);

    if (!out.empty()) {
        std::FILE *f = std::fopen(out.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", out.c_str());
            return 1;
        }
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < g_records.size(); ++i)
            std::fprintf(f, "  %s%s\n", g_records[i].c_str(),
                         i + 1 < g_records.size() ? "," : "");
        std::fprintf(f, "]\n");
        std::fclose(f);
    }
    return 0;
}
