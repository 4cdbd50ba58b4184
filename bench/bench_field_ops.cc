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
 * medianSeconds and the speedup over the portable arm (add and sub
 * time every rep on fresh random operands, so a data-dependent branch
 * cannot hide behind a learned row). Before an arm
 * is timed its output is compared limb-for-limb against portable, so
 * a speedup can never come from a wrong answer. It then times the
 * scalar ops under every curve operation -- BN254 Fq mul, squared,
 * add, sub and inverse, G1 and G2 dbl and addMixed, and
 * Glv::decompose -- as dependent chains, interleaved: each rep runs
 * every op once, so host drift lands on all ops alike, and the row is
 * the median over reps. Before timing, each scalar chain is replayed
 * on the generic oracle (simd::montMulLimbs, modAdd and modSub on raw
 * limbs, with makeMontParams' constants) and must match limb for
 * limb; a divergence exits 1. The committed BENCH_ff_dispatch.json at
 * the repo root is an --out run.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "ec/curves.hh"
#include "ec/glv.hh"
#include "ff/field_tags.hh"
#include "ff/fpu_backend.hh"
#include "ff/simd/dispatch.hh"
#include "ff/simd/mont_scalar.hh"
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
    /** Time every rep on fresh random operands: a kernel that branches
     *  on its data would otherwise have the predictor learn a row it
     *  saw the rep before. */
    bool freshRows = false;
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
     },
     true},
    {"sub",
     [](std::vector<TFr> &out, const std::vector<TFr> &a,
        const std::vector<TFr> &b) {
         subBatch(out.data(), a.data(), b.data(), a.size());
     },
     true},
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

// ------------------------------------------- scalar rows and their oracle

/**
 * A field with Fp's interface whose arithmetic is the generic oracle:
 * simd::montMulLimbs, modAdd and modSub on raw limbs, with the run-time
 * constants of makeMontParams. Curve formulas instantiated on it
 * replay a chain without touching Fp's kernels.
 */
template <typename F>
struct Oracle {
    using Repr = typename F::Repr;
    static constexpr std::size_t kLimbs = F::kLimbs;
    Repr v;

    static const MontParams<kLimbs> &pp() { return F::params(); }
    static Oracle of(const F &x) { return {x.raw()}; }
    static Oracle zero() { return {}; }
    static Oracle one() { return {pp().r1}; }

    bool isZero() const { return v.isZero(); }
    bool operator==(const Oracle &o) const { return v == o.v; }
    bool operator!=(const Oracle &o) const { return v != o.v; }
    Oracle operator+(const Oracle &o) const
    {
        return {modAdd(v, o.v, pp().modulus)};
    }
    Oracle operator-(const Oracle &o) const
    {
        return {modSub(v, o.v, pp().modulus)};
    }
    Oracle operator-() const { return {modSub(Repr(), v, pp().modulus)}; }
    Oracle
    operator*(const Oracle &o) const
    {
        Oracle r;
        simd::montMulLimbs<kLimbs>(r.v.limbs.data(), v.limbs.data(),
                                   o.v.limbs.data(),
                                   pp().modulus.limbs.data(), pp().inv);
        return r;
    }
    Oracle &operator+=(const Oracle &o) { return *this = *this + o; }
    Oracle squared() const { return *this * *this; }
    Oracle dbl() const { return *this + *this; }
    Oracle
    inverse() const // Fermat, square-and-multiply
    {
        Oracle r = one();
        const Repr &e = pp().pMinus2;
        for (std::size_t i = e.numBits(); i-- > 0;) {
            r = r.squared();
            if (e.bit(i))
                r = r * *this;
        }
        return r;
    }
};

using OFq = Oracle<Bn254Fq>;

struct OracleFp2Cfg {
    using Fq = OFq;
    static OFq mulByBeta(const OFq &a) { return -a; } // beta = -1
};
using OFp2 = Fp2T<OracleFp2Cfg>;

/** Cfg's curve over the oracle field (Field = OFq or OFp2). */
template <typename Cfg, typename OField>
struct OracleCurve {
    using Field = OField;
    using Scalar = typename Cfg::Scalar;
    static constexpr bool kAZero = Cfg::kAZero;
    static_assert(kAZero, "the oracle curves never read a()");
};

OFq toOracle(const Bn254Fq &x) { return OFq::of(x); }
OFp2 toOracle(const Bn254Fp2 &x) { return {OFq::of(x.c0), OFq::of(x.c1)}; }

bool sameLimbs(const Bn254Fq &x, const OFq &o) { return x.raw() == o.v; }
bool
sameLimbs(const Bn254Fp2 &x, const OFp2 &o)
{
    return sameLimbs(x.c0, o.c0) && sameLimbs(x.c1, o.c1);
}

/** One scalar op, timed as a chain of `iters` dependent applications.
 *  `check` replays a short chain on the oracle; false on divergence. */
struct ScalarOp {
    const char *name;
    std::size_t iters;
    std::function<void(std::size_t)> run;
    std::function<bool()> check;
};

constexpr std::size_t kCheckIters = 64;

/** A field-op row: `step` on Bn254Fq and `ostep` on the oracle. */
template <typename Step, typename OStep>
ScalarOp
fieldOp(const char *name, std::size_t iters, Bn254Fq start, Step step,
        OStep ostep)
{
    auto a = std::make_shared<Bn254Fq>(start);
    return {name, iters,
            [a, step](std::size_t n) {
                for (std::size_t i = 0; i < n; ++i)
                    *a = step(*a);
                benchmark::DoNotOptimize(*a);
            },
            [start, step, ostep] {
                Bn254Fq x = start;
                OFq o = OFq::of(start);
                for (std::size_t i = 0; i < kCheckIters; ++i) {
                    x = step(x);
                    o = ostep(o);
                    if (!sameLimbs(x, o))
                        return false;
                }
                return true;
            }};
}

/** The dbl and addMixed chains for `Cfg`, over `OField` as oracle. */
template <typename Cfg, typename OField>
std::vector<ScalarOp>
pointOps(const char *dbl_name, const char *madd_name, std::size_t iters)
{
    using Pt = ec::ECPoint<Cfg>;
    using OCfg = OracleCurve<Cfg, OField>;
    using OPt = ec::ECPoint<OCfg>;
    const Pt start = Pt::generator().mul(std::uint64_t(5));
    const auto q = Pt::generator().mul(std::uint64_t(7)).toAffine();
    const ec::AffinePoint<OCfg> oq(toOracle(q.x), toOracle(q.y));
    auto same = [](const Pt &x, const OPt &o) {
        return sameLimbs(x.X, o.X) && sameLimbs(x.Y, o.Y) &&
            sameLimbs(x.Z, o.Z);
    };
    // Replays `step` on both sides from `start`, comparing each link.
    auto replay = [start, same](auto step) {
        Pt x = start;
        OPt o(toOracle(start.X), toOracle(start.Y), toOracle(start.Z));
        for (std::size_t i = 0; i < kCheckIters; ++i) {
            x = step(x);
            o = step(o);
            if (!same(x, o))
                return false;
        }
        return true;
    };
    auto p = std::make_shared<Pt>(start);
    return {
        {dbl_name, iters,
         [p](std::size_t n) {
             for (std::size_t i = 0; i < n; ++i)
                 *p = p->dbl();
             benchmark::DoNotOptimize(*p);
         },
         [replay] { return replay([](const auto &x) { return x.dbl(); }); }},
        {madd_name, iters,
         [p, q](std::size_t n) {
             for (std::size_t i = 0; i < n; ++i)
                 *p = p->addMixed(q);
             benchmark::DoNotOptimize(*p);
         },
         [replay, q, oq] {
             return replay([&](const auto &x) {
                 if constexpr (std::is_same_v<std::decay_t<decltype(x)>,
                                              Pt>)
                     return x.addMixed(q);
                 else
                     return x.addMixed(oq);
             });
         }},
    };
}

/** Glv::decompose chain; the check replays the scalar updates on the
 *  oracle and confirms k = +-k1 + lambda (+-k2) mod r on each link. */
ScalarOp
glvOp(std::size_t iters, const TFr &start)
{
    using Glv = ec::Glv<ec::Bn254G1Cfg>;
    using OFr = Oracle<TFr>;
    auto k = std::make_shared<TFr>(start);
    auto toMont = [](const TFr::Repr &x) {
        return OFr{x} * OFr{OFr::pp().r2};
    };
    return {"glv.decompose", iters,
            [k](std::size_t n) {
                for (std::size_t i = 0; i < n; ++i) {
                    auto d = Glv::decompose(*k);
                    *k += TFr::fromUint64(d.k1.limbs[0] | 1);
                }
                benchmark::DoNotOptimize(*k);
            },
            [start, toMont] {
                const OFr lambda = toMont(Glv::params().lambdaRepr);
                TFr x = start;
                OFr o = OFr::of(start);
                for (std::size_t i = 0; i < kCheckIters; ++i) {
                    auto d = Glv::decompose(x);
                    OFr k1 = toMont(d.k1), k2 = toMont(d.k2);
                    OFr sum = (d.neg1 ? -k1 : k1) +
                        lambda * (d.neg2 ? -k2 : k2);
                    if (sum != o)
                        return false;
                    x += TFr::fromUint64(d.k1.limbs[0] | 1);
                    o = o + toMont(TFr::Repr::fromUint64(
                                d.k1.limbs[0] | 1));
                    if (x.raw() != o.v)
                        return false;
                }
                return true;
            }};
}

void
emitScalar(const char *op, std::size_t reps, double median_s,
           std::size_t iters)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"bench\":\"scalar-ops\",\"op\":\"%s\","
                  "\"reps\":%zu,\"ns_per_op\":%.2f}",
                  op, reps, median_s * 1e9 / double(iters));
    std::printf("%s\n", buf);
    std::fflush(stdout);
    g_records.push_back(buf);
}

/** Check every scalar chain against the oracle, then time them
 *  interleaved. Returns 1 on a divergence. */
int
scalarRows(std::size_t reps)
{
    using Fq = Bn254Fq;
    std::mt19937_64 rng(9);
    const Fq a = Fq::random(rng);
    const Fq b = Fq::random(rng);
    const OFq ob = OFq::of(b);
    std::vector<ScalarOp> ops = {
        fieldOp(
            "fq.mul", 1 << 16, a, [b](const Fq &x) { return x * b; },
            [ob](const OFq &x) { return x * ob; }),
        fieldOp(
            "fq.squared", 1 << 16, a,
            [](const Fq &x) { return x.squared(); },
            [](const OFq &x) { return x.squared(); }),
        fieldOp(
            "fq.add", 1 << 16, a, [b](const Fq &x) { return x + b; },
            [ob](const OFq &x) { return x + ob; }),
        fieldOp(
            "fq.sub", 1 << 16, a, [b](const Fq &x) { return x - b; },
            [ob](const OFq &x) { return x - ob; }),
        fieldOp(
            "fq.inverse", 1 << 8, a,
            [](const Fq &x) { return (x + Fq::one()).inverse(); },
            [](const OFq &x) { return (x + OFq::one()).inverse(); }),
    };
    for (auto &op : pointOps<ec::Bn254G1Cfg, OFq>("g1.dbl", "g1.addMixed",
                                                  1 << 12))
        ops.push_back(op);
    for (auto &op : pointOps<ec::Bn254G2Cfg, OFp2>(
             "g2.dbl", "g2.addMixed", 1 << 10))
        ops.push_back(op);
    // Each scalar depends on the previous decomposition.
    ops.push_back(glvOp(1 << 12, TFr::random(rng)));

    for (auto &op : ops) {
        if (!op.check()) {
            std::fprintf(stderr,
                         "FAIL: scalar %s diverges from the generic "
                         "oracle\n",
                         op.name);
            return 1;
        }
    }

    std::size_t r = std::max<std::size_t>(reps, 1);
    std::vector<std::vector<double>> t(ops.size(),
                                       std::vector<double>(r));
    for (auto &op : ops) // warm-up
        op.run(op.iters);
    for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t o = 0; o < ops.size(); ++o) {
            gzkp::bench::Timer tm;
            ops[o].run(ops[o].iters);
            t[o][i] = tm.seconds();
        }
    }
    for (std::size_t o = 0; o < ops.size(); ++o) {
        std::sort(t[o].begin(), t[o].end());
        double med = r % 2 ? t[o][r / 2]
                           : 0.5 * (t[o][r / 2 - 1] + t[o][r / 2]);
        emitScalar(ops[o].name, r, med, ops[o].iters);
    }
    return 0;
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
        // Operand pairs for the freshRows ops, taken in turn by the
        // timed calls (the warm-up included): no rep repeats the rep
        // before, and at most 8 pairs bound the memory at large reps.
        std::vector<std::pair<std::vector<TFr>, std::vector<TFr>>> fresh;
        for (std::size_t r = 0;
             r < std::min<std::size_t>(std::max<std::size_t>(reps, 1) + 1, 8);
             ++r)
            fresh.emplace_back(
                gzkp::bench::scalarVector<TFr>(n, 1000 * (r + 1) + n),
                gzkp::bench::scalarVector<TFr>(n, 2000 * (r + 1) + n));
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
                std::size_t call = 0;
                double s = gzkp::bench::medianSeconds(
                    [&] {
                        if (!op.freshRows)
                            return op.run(got, a, b);
                        const auto &[x, y] = fresh[call++ % fresh.size()];
                        op.run(got, x, y);
                    },
                    reps);
                if (isa == simd::Isa::Portable)
                    portable_s = s;
                emit(simd::name(isa), impl, op.name, n, s, portable_s);
                simd::clearActiveIsa();
            }
        }
    }

    if (scalarRows(reps) != 0)
        return 1;

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
