/**
 * @file
 * Deterministic differential-fuzzing driver.
 *
 * Sweep mode (default):
 *     fuzz_driver --iterations=1000 --seed=1 [--seconds=60]
 *                 [--only=msm|ntt|groth16|fault|workload|ffdispatch]
 *                 [--max-size=40] [--verbose]
 * runs the bounded fuzz loop over MSM, NTT, Groth16 and the gpusim
 * accounting invariants, printing a shrunk repro line for every
 * divergence and exiting nonzero if any was found.
 *
 * Replay mode: paste a repro line printed by a failing run,
 *     fuzz_driver --seed=S --size=N --kind=K
 * and the driver rebuilds exactly that instance and runs the full
 * differential registry on it.
 *
 * Numeric flags must parse in full (--iterations as a positive
 * integer, --seconds as a non-negative number) and --only must name
 * a target. A bad value is a usage error (exit 2), not a run that
 * checks nothing and still reports zero divergences.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "gpusim/perf_model.hh"
#include "parse_count.hh"
#include "testkit/testkit.hh"

namespace {

using namespace gzkp;

struct Args {
    std::uint64_t seed = 1;
    std::uint64_t iterations = 100;
    double seconds = 0;
    std::size_t maxSize = 40;
    long long replaySize = -1; //!< >= 0 switches to replay mode
    std::string kind = "adversarial";
    std::string only;
    bool verbose = false;
};

using tools::Parse;
using tools::parseCount;

/** The sweep targets --only can select, and the option each enables. */
constexpr struct {
    const char *name;
    bool testkit::FuzzOptions::*enabled;
} kOnlyTargets[] = {
    {"msm", &testkit::FuzzOptions::msm},
    {"ntt", &testkit::FuzzOptions::ntt},
    {"groth16", &testkit::FuzzOptions::groth16},
    {"fault", &testkit::FuzzOptions::fault},
    {"workload", &testkit::FuzzOptions::workload},
    {"ffdispatch", &testkit::FuzzOptions::ffdispatch},
};

/** Parse all of `v` as a finite, non-negative number of seconds. */
Parse
parseSeconds(const char *v, double &out)
{
    char *end = nullptr;
    errno = 0;
    double d = std::strtod(v, &end);
    if (end == v || *end != '\0' || errno != 0 || !std::isfinite(d) ||
        d < 0)
        return Parse::BadValue;
    out = d;
    return Parse::Ok;
}

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
    if (const char *v = val("--seed"))
        return parseCount(v, false, a.seed);
    if (const char *v = val("--iterations"))
        return parseCount(v, true, a.iterations);
    if (const char *v = val("--seconds"))
        return parseSeconds(v, a.seconds);
    if (const char *v = val("--max-size"))
        return parseCount(v, false, a.maxSize);
    if (const char *v = val("--size"))
        return parseCount(v, false, a.replaySize);
    if (const char *v = val("--only")) {
        for (const auto &t : kOnlyTargets) {
            if (std::strcmp(v, t.name) == 0) {
                a.only = v;
                return Parse::Ok;
            }
        }
        return Parse::BadValue;
    }
    if (const char *v = val("--kind"))
        a.kind = v;
    else if (arg == "--verbose")
        a.verbose = true;
    else
        return Parse::Unknown;
    return Parse::Ok;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: fuzz_driver [--iterations=N] [--seed=S] "
        "[--seconds=T] [--max-size=N] "
        "[--only=msm|ntt|groth16|fault|workload|ffdispatch] "
        "[--verbose]\n       fuzz_driver --seed=S --size=N "
        "--kind=K   (replay one instance; --kind=proofdet "
        "replays a proof-determinism check; --kind=fault "
        "sweeps N chaos plans; --kind=batchaffine sweeps "
        "the accumulator/GLV cross-product; --kind=workload "
        "sweeps N realistic-workload instances; "
        "--kind=ffdispatch replays a cross-ISA field-op "
        "program)\n");
}

int
report(const testkit::FuzzReport &rep)
{
    std::printf("fuzz: %llu iterations, %zu divergence(s)\n",
                (unsigned long long)rep.iterations,
                rep.failures.size());
    for (const auto &f : rep.failures) {
        std::printf("  [%s] %s\n    repro: fuzz_driver %s\n",
                    f.target.c_str(), f.detail.c_str(),
                    f.repro.c_str());
    }
    return rep.failures.empty() ? 0 : 1;
}

int
replay(const Args &a)
{
    testkit::FuzzReport rep;
    // --kind=fault replays one chaos instance: the seeded fault plan
    // is regenerated and driven through the self-checking prover.
    // --size=N with N > 1 sweeps N consecutive plans (the CI smoke).
    if (a.kind == "fault") {
        std::size_t count =
            a.replaySize > 1 ? std::size_t(a.replaySize) : 1;
        std::printf("chaos: %zu plan(s) from --seed=%llu\n", count,
                    (unsigned long long)a.seed);
        for (std::size_t i = 0; i < count; ++i)
            testkit::fuzzFaultInstance(a.seed + i, rep);
        rep.iterations = count;
        return report(rep);
    }
    // --kind=workload replays one realistic-workload instance (random
    // Poseidon Merkle shape + scalar regime through the prover
    // pipeline). --size=N with N > 1 sweeps N consecutive seeds (the
    // CI smoke).
    if (a.kind == "workload") {
        std::size_t count =
            a.replaySize > 1 ? std::size_t(a.replaySize) : 1;
        std::printf("workload: %zu instance(s) from --seed=%llu\n",
                    count, (unsigned long long)a.seed);
        for (std::size_t i = 0; i < count; ++i)
            testkit::fuzzWorkloadInstance(a.seed + i, rep);
        rep.iterations = count;
        return report(rep);
    }
    // --kind=ffdispatch replays one cross-ISA field-op program: the
    // seeded program is regenerated and run under every compiled SIMD
    // arm against the portable reference. --size=N sets the state
    // width; the surrounding sweep uses N > 1 to cover the vector
    // kernels' full-block and tail paths alike.
    if (a.kind == "ffdispatch") {
        std::size_t n = std::max<std::size_t>(
            a.replaySize > 0 ? std::size_t(a.replaySize) : 1, 1);
        std::printf(
            "replaying --seed=%llu --size=%zu --kind=ffdispatch "
            "(arms: %s)\n",
            (unsigned long long)a.seed, n,
            gzkp::ff::simd::describeActiveIsa());
        testkit::fuzzFfDispatchInstance(a.seed, n, rep);
        rep.iterations = 1;
        return report(rep);
    }
    // --kind=proofdet replays a cross-thread-count proof-determinism
    // instance; it has no scalar mix or size.
    if (a.kind == "proofdet") {
        std::printf("replaying --seed=%llu --size=0 --kind=proofdet\n",
                    (unsigned long long)a.seed);
        testkit::fuzzProofDeterminism(a.seed, rep);
        rep.iterations = 1;
        return report(rep);
    }
    // --kind=batchaffine replays the accumulator/GLV cross-product
    // differential (every engine at every strategy combination). The
    // repro line does not record the scalar mix, so all mixes are
    // swept; instance generation is deterministic per (size, mix,
    // seed) and therefore covers the originally diverging instance.
    if (a.kind == "batchaffine") {
        std::size_t n = std::size_t(a.replaySize);
        std::printf(
            "replaying --seed=%llu --size=%zu --kind=batchaffine\n",
            (unsigned long long)a.seed, n);
        for (std::size_t i = 0; i < testkit::kScalarMixCount; ++i)
            testkit::fuzzBatchAffineInstance(
                a.seed, n, testkit::ScalarMix(i), rep);
        rep.iterations = testkit::kScalarMixCount;
        return report(rep);
    }
    testkit::ScalarMix kind;
    try {
        kind = testkit::scalarMixFromName(a.kind);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s (valid kinds:", e.what());
        for (std::size_t i = 0; i < testkit::kScalarMixCount; ++i)
            std::fprintf(stderr, " %s",
                         testkit::name(testkit::ScalarMix(i)));
        std::fprintf(stderr, ")\n");
        return 2;
    }
    std::size_t n = std::size_t(a.replaySize);
    std::printf("replaying --seed=%llu --size=%zu --kind=%s\n",
                (unsigned long long)a.seed, n, a.kind.c_str());
    testkit::fuzzMsmInstance(testkit::msmDifferential(), a.seed, n,
                             kind, rep);
    // Power-of-two sizes also replay through the NTT registries.
    if (n >= 2 && (n & (n - 1)) == 0) {
        std::size_t log_n = 0;
        while ((std::size_t(1) << log_n) < n)
            ++log_n;
        auto d = testkit::nttDifferential();
        auto rt = testkit::nttRoundTripDifferential();
        testkit::fuzzNttInstance(d, a.seed, log_n, kind, false, rep);
        testkit::fuzzNttInstance(d, a.seed, log_n, kind, true, rep);
        testkit::fuzzNttInstance(rt, a.seed, log_n, kind, false, rep);
    }
    rep.iterations = 1;
    return report(rep);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        switch (parseOne(a, argv[i])) {
        case Parse::Ok: break;
        case Parse::Unknown:
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            usage();
            return 2;
        case Parse::BadValue:
            std::fprintf(stderr, "bad value: %s\n", argv[i]);
            usage();
            return 2;
        }
    }

    // Any inconsistent KernelStats aborts the run instead of being
    // silently folded into a modeled time.
    gzkp::gpusim::setStrictInvariants(true);

    // Honor an ambient GZKP_FAULTS plan; fault-target iterations
    // install their own scoped plans on top and restore it after.
    if (auto s = gzkp::faultsim::installFromEnv(); !s.isOk()) {
        std::fprintf(stderr, "bad GZKP_FAULTS: %s\n",
                     s.toString().c_str());
        return 2;
    }

    if (a.replaySize >= 0)
        return replay(a);

    testkit::FuzzOptions opt;
    opt.seed = a.seed;
    opt.iterations = a.iterations;
    opt.maxSeconds = a.seconds;
    opt.maxMsmSize = a.maxSize;
    opt.verbose = a.verbose;
    if (!a.only.empty()) {
        for (const auto &t : kOnlyTargets)
            opt.*t.enabled = a.only == t.name;
        opt.gpusim = opt.msm;
        if (opt.fault)
            opt.faultEvery = 1; // dedicated chaos sweep: every iter
        if (opt.workload)
            opt.workloadEvery = 1; // dedicated workload sweep
    }
    return report(testkit::fuzzAll(opt));
}
