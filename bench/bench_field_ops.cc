/**
 * @file
 * Finite-field micro-benchmarks (google-benchmark), plus the
 * per-ISA dispatch table.
 *
 * Grounds the paper's Section 1 cost claims on this host: "each
 * modular multiplication takes 230 ns and each large integer
 * addition 43 ns" (381-bit, on the paper's Xeon). The CPU roofline
 * model (gpusim::CpuConfig) is anchored on the paper's numbers; the
 * measurements here document how this host compares.
 *
 * Table mode:
 *     bench_field_ops --table [--reps=N] [--out=BENCH_ff_dispatch.json]
 * times every batch field entry point (mul/sqr/mulc/add/sub/pow/
 * inverse) under every SIMD ISA arm this host supports, reporting
 * medianSeconds and the speedup over the portable arm. Before an arm
 * is timed its output is compared limb-for-limb against portable, so
 * a speedup can never come from a wrong answer. The committed
 * BENCH_ff_dispatch.json at the repo root is an --out run.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "ec/curves.hh"
#include "ff/field_tags.hh"
#include "ff/fpu_backend.hh"
#include "ff/simd/dispatch.hh"
#include "ntt/butterfly.hh"
#include "ntt/domain.hh"

using namespace gzkp;
using namespace gzkp::ff;

namespace {

template <typename F>
void
BM_FieldMul(benchmark::State &state)
{
    std::mt19937_64 rng(1);
    F a = F::random(rng), b = F::random(rng);
    for (auto _ : state) {
        a = a * b;
        benchmark::DoNotOptimize(a);
    }
}

template <typename F>
void
BM_FieldAdd(benchmark::State &state)
{
    std::mt19937_64 rng(2);
    F a = F::random(rng), b = F::random(rng);
    for (auto _ : state) {
        a = a + b;
        benchmark::DoNotOptimize(a);
    }
}

template <typename F>
void
BM_FieldMulFpuBackend(benchmark::State &state)
{
    std::mt19937_64 rng(3);
    F a = F::random(rng), b = F::random(rng);
    for (auto _ : state) {
        a = fpuMul(a, b);
        benchmark::DoNotOptimize(a);
    }
}

template <typename F>
void
BM_FieldInverse(benchmark::State &state)
{
    std::mt19937_64 rng(4);
    F a = F::random(rng);
    for (auto _ : state) {
        a = (a + F::one()).inverse();
        benchmark::DoNotOptimize(a);
    }
}

template <typename Cfg>
void
BM_PointAddMixed(benchmark::State &state)
{
    std::mt19937_64 rng(5);
    using Pt = ec::ECPoint<Cfg>;
    using Sc = typename Cfg::Scalar;
    auto p = Pt::generator().mul(Sc::random(rng));
    auto q = Pt::generator().mul(Sc::random(rng)).toAffine();
    for (auto _ : state) {
        p = p.addMixed(q);
        benchmark::DoNotOptimize(p);
    }
}

template <typename Cfg>
void
BM_PointDouble(benchmark::State &state)
{
    std::mt19937_64 rng(6);
    using Pt = ec::ECPoint<Cfg>;
    using Sc = typename Cfg::Scalar;
    auto p = Pt::generator().mul(Sc::random(rng));
    for (auto _ : state) {
        p = p.dbl();
        benchmark::DoNotOptimize(p);
    }
}

template <typename Cfg>
void
BM_PointMul(benchmark::State &state)
{
    std::mt19937_64 rng(7);
    using Pt = ec::ECPoint<Cfg>;
    auto p = Pt::generator();
    auto s = Cfg::Scalar::random(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(p.mul(s));
    }
}

template <typename F>
void
BM_Butterfly(benchmark::State &state)
{
    std::mt19937_64 rng(8);
    F u = F::random(rng), v = F::random(rng), w = F::random(rng);
    for (auto _ : state) {
        F t = v * w;
        v = u - t;
        u = u + t;
        benchmark::DoNotOptimize(u);
        benchmark::DoNotOptimize(v);
    }
}

// ------------------------------------------------- per-ISA dispatch table

namespace table {

using TFr = Bn254Fr;
namespace simd = gzkp::ff::simd;

std::vector<std::string> g_records;

void
emit(const char *isa, const char *impl, const char *op, std::size_t n,
     double median_s, double portable_s)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"ff-dispatch\",\"isa\":\"%s\",\"impl\":\"%s\","
        "\"op\":\"%s\",\"n\":%zu,\"medianSeconds\":%.3e,"
        "\"ns_per_op\":%.2f,\"speedup_vs_portable\":%.3f}",
        isa, impl, op, n, median_s, median_s * 1e9 / double(n),
        portable_s / median_s);
    std::printf("%s\n", buf);
    std::fflush(stdout);
    g_records.push_back(buf);
}

struct Op {
    const char *name;
    void (*run)(std::vector<TFr> &out, const std::vector<TFr> &a,
                const std::vector<TFr> &b);
};

const BigInt<2> kPowExp = BigInt<2>::fromHex("1f3a9");

const Op kOps[] = {
    {"mul",
     [](std::vector<TFr> &out, const std::vector<TFr> &a,
        const std::vector<TFr> &b) {
         mulBatch(out.data(), a.data(), b.data(), a.size());
     }},
    {"sqr",
     [](std::vector<TFr> &out, const std::vector<TFr> &a,
        const std::vector<TFr> &) {
         sqrBatch(out.data(), a.data(), a.size());
     }},
    {"mulc",
     [](std::vector<TFr> &out, const std::vector<TFr> &a,
        const std::vector<TFr> &b) {
         mulcBatch(out.data(), a.data(), b[0], a.size());
     }},
    {"add",
     [](std::vector<TFr> &out, const std::vector<TFr> &a,
        const std::vector<TFr> &b) {
         addBatch(out.data(), a.data(), b.data(), a.size());
     }},
    {"sub",
     [](std::vector<TFr> &out, const std::vector<TFr> &a,
        const std::vector<TFr> &b) {
         subBatch(out.data(), a.data(), b.data(), a.size());
     }},
    // One NTT layer over n lane pairs (u in `out`, v/scratch in
    // static buffers): the shape nttInPlace runs per iteration.
    {"butterfly",
     [](std::vector<TFr> &out, const std::vector<TFr> &a,
        const std::vector<TFr> &b) {
         static std::vector<TFr> v, scratch;
         out = a;
         v = b;
         scratch.resize(a.size());
         ntt::butterflyRows(out.data(), v.data(), a.data(), a.size(),
                            scratch.data());
     }},
    {"pow",
     [](std::vector<TFr> &out, const std::vector<TFr> &a,
        const std::vector<TFr> &) {
         powBatch(out.data(), a.data(), kPowExp, a.size());
     }},
    {"inverse",
     [](std::vector<TFr> &out, const std::vector<TFr> &a,
        const std::vector<TFr> &) {
         out = a;
         batchInverse(out);
     }},
};

bool
limbsEqual(const std::vector<TFr> &x, const std::vector<TFr> &y)
{
    for (std::size_t i = 0; i < x.size(); ++i)
        if (!(x[i] == y[i]))
            return false;
    return true;
}

int
run(std::size_t reps, const std::string &out_path)
{
    const auto arms = simd::supportedIsas(); // portable first
    const std::size_t sizes[] = {256, 4096, 65536};

    std::printf("# ff dispatch table: arms =");
    for (simd::Isa isa : arms)
        std::printf(" %s", simd::name(isa));
    std::printf(" (host default: %s)\n", simd::describeActiveIsa());

    for (std::size_t n : sizes) {
        auto a = gzkp::bench::scalarVector<TFr>(n, 11 + n);
        auto b = gzkp::bench::scalarVector<TFr>(n, 17 + n);
        for (const Op &op : kOps) {
            std::vector<TFr> ref(n), got(n);
            double portable_s = 0;
            for (simd::Isa isa : arms) {
                simd::setActiveIsa(isa);
                const char *impl = simd::kernels4(isa).impl;
                op.run(got, a, b);
                if (isa == simd::Isa::Portable) {
                    ref = got;
                } else if (!limbsEqual(got, ref)) {
                    std::fprintf(stderr,
                                 "FAIL: %s/%s diverges from portable "
                                 "at n=%zu\n",
                                 simd::name(isa), op.name, n);
                    simd::clearActiveIsa();
                    return 1;
                }
                double s = gzkp::bench::medianSeconds(
                    [&] { op.run(got, a, b); }, reps);
                if (isa == simd::Isa::Portable)
                    portable_s = s;
                emit(simd::name(isa), impl, op.name, n, s, portable_s);
                simd::clearActiveIsa();
            }
        }
    }

    if (!out_path.empty()) {
        std::FILE *f = std::fopen(out_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         out_path.c_str());
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

} // namespace table

} // namespace

// 256-bit (ALT-BN128), 381-bit (BLS12-381), 753-bit (MNT4753-sim).
BENCHMARK(BM_FieldMul<Bn254Fr>);
BENCHMARK(BM_FieldMul<Bls381Fq>);
BENCHMARK(BM_FieldMul<Mnt4753Fq>);
BENCHMARK(BM_FieldAdd<Bn254Fr>);
BENCHMARK(BM_FieldAdd<Bls381Fq>);
BENCHMARK(BM_FieldAdd<Mnt4753Fq>);
BENCHMARK(BM_FieldMulFpuBackend<Bls381Fq>);
BENCHMARK(BM_FieldMulFpuBackend<Mnt4753Fq>);
BENCHMARK(BM_FieldInverse<Bn254Fr>);
BENCHMARK(BM_FieldInverse<Bls381Fq>);
BENCHMARK(BM_Butterfly<Bn254Fr>);
BENCHMARK(BM_Butterfly<Mnt4753Fr>);
BENCHMARK(BM_PointAddMixed<ec::Bn254G1Cfg>);
BENCHMARK(BM_PointAddMixed<ec::Bls381G1Cfg>);
BENCHMARK(BM_PointAddMixed<ec::Mnt4753G1Cfg>);
BENCHMARK(BM_PointDouble<ec::Bn254G1Cfg>);
BENCHMARK(BM_PointDouble<ec::Mnt4753G1Cfg>);
BENCHMARK(BM_PointMul<ec::Bn254G1Cfg>);
BENCHMARK(BM_PointMul<ec::Mnt4753G1Cfg>);

int
main(int argc, char **argv)
{
    bool want_table = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--table") == 0)
            want_table = true;

    if (want_table) {
        std::size_t reps = 5;
        std::string out;
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "--table")
                continue;
            if (a.rfind("--reps=", 0) == 0)
                reps = std::strtoull(a.c_str() + 7, nullptr, 0);
            else if (a.rfind("--out=", 0) == 0)
                out = a.substr(6);
            else {
                std::fprintf(stderr,
                             "usage: bench_field_ops --table "
                             "[--reps=N] [--out=PATH]\n");
                return 2;
            }
        }
        return table::run(reps, out);
    }

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
