/**
 * @file
 * CPU MSM hot-path bench: measured wall-clock for every engine under
 * both bucket-accumulation strategies (Jacobian mixed adds vs the
 * batch-affine shared-inversion scheduler) and, on BN254 G1, with and
 * without GLV decomposition. One JSON line per (engine, accumulator,
 * glv, size, threads) with the median-of-N nanoseconds and the
 * speedup against that engine's Jacobian/no-GLV baseline at the same
 * (size, threads). Preprocess rows time GzkpMsm::preprocess(), the
 * Algorithm-1 table build, at 2^13 on 1 and 4 threads with the
 * engine's default window and checkpoint interval (the tables the
 * prover caches). Cached-run rows time run() alone over such a table
 * at the provebench shapes, dense and with every third base the
 * identity.
 *
 *     bench_msm_hotpath [--smoke|--full] [--reps=N]
 *                       [--out=BENCH_msm_hotpath.json]
 *
 * --smoke runs one small size, the BN254 G2 preprocess rows and the
 * 2^9 cached-run rows for CI; --full covers 2^14..2^16 at threads
 * {1, 8} plus the BN254 G1 and G2 preprocess rows and the 2^9 and
 * 2^13 cached-run rows. --out additionally writes the emitted
 * records as a JSON array (the committed BENCH_msm_hotpath.json at
 * the repo root is a --full run). Every timed configuration is also
 * checked for result equality against the baseline (the cached-run
 * rows against serial Pippenger), and every preprocessed GLV table
 * for the layout pre[c*nb + n + j] == phi(pre[c*nb + j]) in each
 * block c, so a speedup can never come from a wrong answer.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "ff/simd/dispatch.hh"
#include "msm/msm_bellperson.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "runtime/runtime.hh"
#include "testkit/testkit.hh"

using namespace gzkp;
using Cfg = ec::Bn254G1Cfg;

namespace {

std::vector<std::string> g_records;

void
emit(const char *engine, msm::Accumulator acc, msm::GlvMode glv,
     std::size_t log_n, std::size_t threads, double ns,
     double baseline_ns)
{
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"msm-hotpath\",\"engine\":\"%s\","
        "\"accumulator\":\"%s\",\"glv\":\"%s\",\"isa\":\"%s\","
        "\"log_n\":%zu,"
        "\"threads\":%zu,\"ns\":%.0f,\"speedup_vs_jacobian\":%.3f}",
        engine,
        acc == msm::Accumulator::BatchAffine ? "batchaffine"
                                             : "jacobian",
        glv == msm::GlvMode::On ? "on" : "off",
        ff::simd::name(ff::simd::activeIsa()), log_n, threads, ns,
        baseline_ns / ns);
    std::printf("%s\n", buf);
    std::fflush(stdout);
    g_records.push_back(buf);
}

struct Variant {
    msm::Accumulator acc;
    msm::GlvMode glv;
};

const Variant kSerialVariants[] = {
    {msm::Accumulator::Jacobian, msm::GlvMode::Off},
    {msm::Accumulator::BatchAffine, msm::GlvMode::Off},
    {msm::Accumulator::Jacobian, msm::GlvMode::On},
    {msm::Accumulator::BatchAffine, msm::GlvMode::On},
};

void
benchSerial(std::size_t log_n, std::size_t threads, std::size_t reps)
{
    std::size_t n = std::size_t(1) << log_n;
    auto in = bench::msmInstance<Cfg>(n, 42 + log_n);
    double baseline = 0;
    ec::ECPoint<Cfg> expect;
    for (const Variant &v : kSerialVariants) {
        msm::PippengerSerial<Cfg> engine(0, threads, v.acc, v.glv);
        auto got = engine.run(in.points, in.scalars);
        double s = bench::medianSeconds(
            [&] { engine.run(in.points, in.scalars); }, reps);
        if (v.acc == msm::Accumulator::Jacobian &&
            v.glv == msm::GlvMode::Off) {
            baseline = s;
            expect = got;
        } else if (got != expect) {
            std::fprintf(stderr, "serial variant diverged\n");
            std::exit(1);
        }
        emit("serial", v.acc, v.glv, log_n, threads, s * 1e9,
             baseline * 1e9);
    }
}

void
benchBellperson(std::size_t log_n, std::size_t threads,
                std::size_t reps)
{
    std::size_t n = std::size_t(1) << log_n;
    auto in = bench::msmInstance<Cfg>(n, 142 + log_n);
    double baseline = 0;
    ec::ECPoint<Cfg> expect;
    for (msm::Accumulator acc :
         {msm::Accumulator::Jacobian, msm::Accumulator::BatchAffine}) {
        msm::BellpersonMsm<Cfg> engine(10, 0, threads, acc);
        auto got = engine.run(in.points, in.scalars);
        double s = bench::medianSeconds(
            [&] { engine.run(in.points, in.scalars); }, reps);
        if (acc == msm::Accumulator::Jacobian) {
            baseline = s;
            expect = got;
        } else if (got != expect) {
            std::fprintf(stderr, "bellperson variant diverged\n");
            std::exit(1);
        }
        emit("bellperson", acc, msm::GlvMode::Off, log_n, threads,
             s * 1e9, baseline * 1e9);
    }
}

void
benchGzkp(std::size_t log_n, std::size_t threads, std::size_t reps)
{
    std::size_t n = std::size_t(1) << log_n;
    auto in = bench::msmInstance<Cfg>(n, 242 + log_n);
    double baseline = 0;
    ec::ECPoint<Cfg> expect;
    for (const Variant &v : kSerialVariants) {
        // Fixed window, single checkpoint: the timed run() phase is
        // the bucket hot path (preprocessing is per-proving-key).
        typename msm::GzkpMsm<Cfg>::Options opt;
        opt.k = 13;
        opt.checkpointM = msm::windowCount(Cfg::Scalar::bits(), opt.k);
        opt.threads = threads;
        opt.accumulator = v.acc;
        opt.glv = v.glv;
        msm::GzkpMsm<Cfg> engine(opt);
        auto pp = engine.preprocess(in.points);
        auto got = engine.run(pp, in.scalars);
        double s = bench::medianSeconds(
            [&] { engine.run(pp, in.scalars); }, reps);
        if (v.acc == msm::Accumulator::Jacobian &&
            v.glv == msm::GlvMode::Off) {
            baseline = s;
            expect = got;
        } else if (got != expect) {
            std::fprintf(stderr, "gzkp variant diverged\n");
            std::exit(1);
        }
        emit("gzkp", v.acc, v.glv, log_n, threads, s * 1e9,
             baseline * 1e9);
    }
}

void
emitPreprocess(const char *curve, std::size_t log_n, std::size_t threads,
               std::size_t entries, double ns)
{
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"msm-hotpath\",\"engine\":\"gzkp\","
        "\"op\":\"preprocess\",\"curve\":\"%s\",\"glv\":\"on\","
        "\"isa\":\"%s\",\"log_n\":%zu,\"threads\":%zu,"
        "\"entries\":%zu,\"ns\":%.0f}",
        curve, ff::simd::name(ff::simd::activeIsa()), log_n, threads,
        entries, ns);
    std::printf("%s\n", buf);
    std::fflush(stdout);
    g_records.push_back(buf);
}

/**
 * The cheap bases G, 2G, ..., nG: a table's cost and a run's depend
 * only on the point count, not on which points they are.
 */
template <typename C>
std::vector<ec::AffinePoint<C>>
cheapPoints(std::size_t n)
{
    std::vector<ec::ECPoint<C>> jac(n);
    jac[0] = ec::ECPoint<C>::generator();
    for (std::size_t i = 1; i < n; ++i)
        jac[i] = jac[i - 1] + jac[0];
    return ec::batchToAffine<C>(jac);
}

/** Preprocess rows for one curve. */
template <typename C>
void
benchPreprocess(std::size_t log_n, std::size_t reps)
{
    std::size_t n = std::size_t(1) << log_n;
    auto points = cheapPoints<C>(n);

    for (std::size_t threads : {1, 4}) {
        typename msm::GzkpMsm<C>::Options opt;
        opt.threads = threads;
        msm::GzkpMsm<C> engine(opt);
        auto pp = engine.preprocess(points);
        bool ok = pp.glv && pp.live == n &&
            pp.pre.size() == pp.checkpoints * pp.nb();
        for (std::size_t c = 0; ok && c < pp.checkpoints; ++c)
            for (std::size_t j = 0; ok && j < n; ++j)
                ok = pp.pre[c * pp.nb() + n + j].affine() ==
                    ec::Glv<C>::endo(pp.pre[c * pp.nb() + j].affine());
        if (!ok) {
            std::fprintf(stderr, "%s preprocess table layout broken\n",
                         C::name());
            std::exit(1);
        }
        double s = bench::medianSeconds(
            [&] { engine.preprocess(points); }, reps, 0);
        emitPreprocess(C::name(), log_n, threads, pp.pre.size(),
                       s * 1e9);
    }
}

void
emitCached(const char *curve, std::size_t log_n, std::size_t k,
           std::size_t stride, std::size_t live, std::uint64_t bytes,
           double ns, double serial_ns)
{
    char buf[448];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"msm-hotpath\",\"engine\":\"gzkp\","
        "\"op\":\"cached-run\",\"curve\":\"%s\",\"glv\":\"on\","
        "\"isa\":\"%s\",\"impl\":\"%s\",\"log_n\":%zu,\"k\":%zu,"
        "\"m\":1,\"threads\":1,\"identity_every\":%zu,\"live\":%zu,"
        "\"table_bytes\":%llu,\"ns\":%.0f,\"serial_ns\":%.0f,"
        "\"speedup_vs_serial\":%.3f}",
        curve, ff::simd::name(ff::simd::activeIsa()),
        ff::simd::kernels4().impl, log_n, k, stride, live,
        (unsigned long long)bytes, ns, serial_ns, serial_ns / ns);
    std::printf("%s\n", buf);
    std::fflush(stdout);
    g_records.push_back(buf);
}

/**
 * Cached-table rows: run() alone over a table built once, at the
 * provebench shapes (GLV on, M = 1, one thread), on a dense query and
 * on one whose every third base is the identity (the share of the
 * Groth16 b1 and b2 queries; `identity_every` 0 is dense). Each
 * result is checked against serial Pippenger (Jacobian, no GLV), and
 * `serial_ns` times serial Pippenger at its defaults on the same
 * query, the engine a cached table has to beat.
 */
template <typename C>
void
benchCached(std::size_t log_n, std::size_t k, std::size_t reps)
{
    std::size_t n = std::size_t(1) << log_n;
    auto dense = cheapPoints<C>(n);
    auto scalars =
        bench::scalarVector<typename C::Scalar>(n, 342 + log_n);
    for (std::size_t stride : {0, 3}) {
        auto points = dense;
        for (std::size_t i = 0; stride != 0 && i < n; i += stride)
            points[i] = ec::AffinePoint<C>::identity();
        typename msm::GzkpMsm<C>::Options opt;
        opt.k = k;
        opt.checkpointM = 1;
        opt.threads = 1;
        msm::GzkpMsm<C> engine(opt);
        auto pp = engine.preprocess(points);
        auto expect = msm::PippengerSerial<C>(0, 1,
                                              msm::Accumulator::Jacobian,
                                              msm::GlvMode::Off)
                          .run(points, scalars);
        msm::PippengerSerial<C> serial(0, 1);
        if (engine.run(pp, scalars) != expect ||
            serial.run(points, scalars) != expect) {
            std::fprintf(stderr, "%s cached run diverged\n", C::name());
            std::exit(1);
        }
        double s = bench::medianSeconds(
            [&] { engine.run(pp, scalars); }, reps);
        double serial_s = bench::medianSeconds(
            [&] { serial.run(points, scalars); }, reps);
        emitCached(C::name(), log_n, k, stride, pp.live, pp.bytes(),
                   s * 1e9, serial_s * 1e9);
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
            std::fprintf(stderr,
                         "usage: bench_msm_hotpath [--smoke|--full] "
                         "[--reps=N] [--out=PATH]\n");
            return 2;
        }
    }

    std::vector<std::size_t> logs = full
        ? std::vector<std::size_t>{14, 16}
        : std::vector<std::size_t>{12};
    std::vector<std::size_t> thread_counts =
        full ? std::vector<std::size_t>{1, 8}
             : std::vector<std::size_t>{2};

    for (std::size_t log_n : logs) {
        for (std::size_t t : thread_counts) {
            benchSerial(log_n, t, reps);
            benchBellperson(log_n, t, reps);
            benchGzkp(log_n, t, reps);
        }
    }
    if (full)
        benchPreprocess<ec::Bn254G1Cfg>(13, reps);
    benchPreprocess<ec::Bn254G2Cfg>(13, reps);
    // The provebench shapes: brownout's 2^9 tables at k = 10,
    // sapling's 2^13 at k = 13.
    benchCached<ec::Bn254G1Cfg>(9, 10, reps);
    benchCached<ec::Bn254G2Cfg>(9, 10, reps);
    if (full) {
        benchCached<ec::Bn254G1Cfg>(13, 13, reps);
        benchCached<ec::Bn254G2Cfg>(13, 13, reps);
    }

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
