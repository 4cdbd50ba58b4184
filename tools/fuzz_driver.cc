/**
 * @file
 * Deterministic differential-fuzzing driver over the target table of
 * testkit/fuzz.hh (fuzzTargets()); every target it runs, selects or
 * replays comes from that table.
 *
 * Sweep mode (default):
 *     fuzz_driver --iterations=1000 --seed=1 [--seconds=60]
 *                 [--only=T]... [--max-size=40] [--verbose]
 * runs every target at its schedule slot (with --only, just the named
 * targets, at the same slots), printing a shrunk repro line for every
 * divergence and exiting nonzero if any was found.
 *
 * Replay mode: paste a repro line printed by a failing run,
 *     fuzz_driver --seed=S --size=N --kind=K
 * and the driver rebuilds that instance and reruns the check that
 * printed it (testkit::replayInstances). K is a target name or a
 * scalar mix; a target whose instance is its seed alone checks N
 * consecutive seeds, which the CI smokes use as dedicated sweeps.
 *
 * Under an ambient GZKP_FAULTS plan the driver ends with the number of
 * probes that plan fired ("faults: N probe(s) fired ...").
 *
 * Numeric flags must parse in full (--iterations as a positive
 * integer, --seconds as a non-negative number), --only must name a
 * target and --kind a target or a scalar mix. A bad value is a usage
 * error (exit 2), not a run that checks nothing and still reports
 * zero divergences.
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
    testkit::FuzzOptions sweep;
    long long replaySize = -1; //!< >= 0 switches to replay mode
    std::string kind = "adversarial";
};

using tools::Parse;
using tools::parseCount;

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
    testkit::FuzzOptions &o = a.sweep;
    if (const char *v = val("--seed"))
        return parseCount(v, false, o.seed);
    if (const char *v = val("--iterations"))
        return parseCount(v, true, o.iterations);
    if (const char *v = val("--seconds"))
        return parseSeconds(v, o.maxSeconds);
    if (const char *v = val("--max-size"))
        return parseCount(v, false, o.maxMsmSize);
    if (const char *v = val("--size"))
        return parseCount(v, false, a.replaySize);
    if (const char *v = val("--only")) {
        if (!testkit::fuzzTarget(v))
            return Parse::BadValue;
        o.only.push_back(v);
        return Parse::Ok;
    }
    if (const char *v = val("--kind"))
        a.kind = v;
    else if (arg == "--verbose")
        o.verbose = true;
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
        "[--seconds=T] [--max-size=N] [--only=TARGET]... "
        "[--verbose]\n"
        "       fuzz_driver --seed=S --size=N --kind=KIND   "
        "(replay a repro line)\n"
        "TARGET and KIND, with what a replay of KIND checks:\n");
    for (const testkit::FuzzTarget &t : testkit::fuzzTargets()) {
        std::fprintf(stderr, "  %-13s %s\n", t.name,
                     !t.size ? "N consecutive seeds from S"
                     : t.mix == testkit::MixUse::None
                         ? "the size-N instance of seed S"
                         : "the size-N instances of seed S, every "
                           "scalar mix");
    }
    std::fprintf(stderr, "KIND may also be a scalar mix: seed S at "
                         "size N in that mix, on every target whose "
                         "repro lines carry the mix:");
    for (std::size_t i = 0; i < testkit::kScalarMixCount; ++i)
        std::fprintf(stderr, " %s", testkit::name(testkit::ScalarMix(i)));
    std::fprintf(stderr, "\n");
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
    std::size_t size = std::size_t(a.replaySize);
    auto checks = testkit::replayInstances(a.sweep.seed, size, a.kind);
    if (checks.empty()) {
        std::fprintf(stderr, "bad value: --kind=%s\n", a.kind.c_str());
        usage();
        return 2;
    }
    std::printf("replaying --seed=%llu --size=%zu --kind=%s:",
                (unsigned long long)a.sweep.seed, size, a.kind.c_str());
    const testkit::FuzzTarget *last = nullptr;
    for (const auto &c : checks) {
        if (c.target != last)
            std::printf(" %s", c.target->name);
        last = c.target;
    }
    std::printf(" (%zu instance(s))\n", checks.size());
    testkit::FuzzReport rep;
    for (const auto &c : checks)
        testkit::fuzzInstance(*c.target, c.instance, rep);
    rep.iterations = checks.size();
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

    // Honor an ambient GZKP_FAULTS plan; chaos checks install their
    // own scoped plans on top and restore it after.
    if (auto s = gzkp::faultsim::installFromEnv(); !s.isOk()) {
        std::fprintf(stderr, "bad GZKP_FAULTS: %s\n",
                     s.toString().c_str());
        return 2;
    }

    int rc = a.replaySize >= 0 ? replay(a)
                               : report(testkit::fuzzAll(a.sweep));
    // Report what an ambient plan did, so a run that expects faults
    // can tell a plan that fired from one that matched no probe.
    if (const char *spec = std::getenv("GZKP_FAULTS"); spec && *spec)
        std::printf("faults: %llu probe(s) fired under GZKP_FAULTS\n",
                    (unsigned long long)gzkp::faultsim::firedCount());
    return rc;
}
