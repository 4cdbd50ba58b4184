/**
 * @file
 * The deterministic differential-fuzzing loop.
 *
 * Every check the fuzzer runs is one row of fuzzTargets(), in
 * schedule order:
 *
 *  - msm: serial Pippenger (two windows), Straus, bellperson-like,
 *    and GZKP (Horner and PerPoint checkpoint modes) against the
 *    naive PMUL-sum oracle, on BN254 G1;
 *  - gpusim: the accounting invariants of every variant's reported
 *    KernelStats (see gpusim::invariantViolations), so the perf
 *    model is fuzzed as a checked contract too;
 *  - batchaffine: every engine at every (accumulator, GLV) setting
 *    against the naive oracle;
 *  - ntt / nttroundtrip: shuffled (BG-like), GZKP shuffle-less (two
 *    block shapes) and batched execution against the canonical
 *    radix-2 flow, and forward/inverse round-trips against the
 *    identity;
 *  - groth16: end-to-end setup/prove/verify on random small circuits,
 *    including negative soundness checks (a proof built from a
 *    mutated witness, or a tampered proof, must be rejected);
 *  - proofdet: identical proof bytes at runtime threads 1/2/4/8;
 *  - fault: seeded chaos plans (testkit/chaos.hh) driven through the
 *    self-checking prover pipeline; every run must end in a verifying
 *    proof or a typed gzkp::Status -- never a bad proof;
 *  - workload: random Poseidon Merkle shapes through the same
 *    pipeline, under the same invariant;
 *  - ffdispatch: random field-op programs (batch mul/sqr/mulc/add/
 *    sub/pow/inverse over ff/fp.hh entry points) replayed under every
 *    compiled SIMD ISA arm; results must be limb-identical to the
 *    portable arm, pinning the field core's bit-identity invariant.
 *
 * A row is a name, a schedule slot and a run function over one
 * FuzzInstance. On divergence the run function shrinks the failing
 * instance, and the report carries the repro line of the row that
 * failed (--seed=S --size=N --kind=K), which replays exactly that
 * check from the fuzz_driver CLI (replayInstances()).
 */

#ifndef GZKP_TESTKIT_FUZZ_HH
#define GZKP_TESTKIT_FUZZ_HH

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ec/curves.hh"
#include "ff/simd/dispatch.hh"
#include "faultsim/faultsim.hh"
#include "msm/msm_bellperson.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "msm/msm_straus.hh"
#include "ntt/ntt_batched.hh"
#include "ntt/ntt_cpu.hh"
#include "ntt/ntt_gpu.hh"
#include "testkit/chaos.hh"
#include "testkit/differential.hh"
#include "testkit/generators.hh"
#include "testkit/shrink.hh"
#include "zkp/groth16.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/prover_pipeline.hh"
#include "zkp/serialize.hh"

namespace gzkp::testkit {

struct FuzzOptions {
    std::uint64_t seed = 1;
    std::uint64_t iterations = 100;
    double maxSeconds = 0;      //!< 0 = no time bound
    std::size_t maxMsmSize = 40;
    /** Rows to run, by name, each at its own slot; empty = all. */
    std::vector<std::string> only;
    bool verbose = false;
};

struct FuzzFailure {
    std::string target; //!< the name of the row that failed
    std::string repro;  //!< replayable CLI fragment
    std::string detail; //!< variant + shrunk-instance description
};

struct FuzzReport {
    std::uint64_t iterations = 0;
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * One generated instance. Every check is a pure function of it, so a
 * repro line that records it rebuilds the check exactly.
 */
struct FuzzInstance {
    std::uint64_t seed = 0;
    std::size_t size = 0;
    ScalarMix mix = ScalarMix::Dense;
};

/** What a check found wrong with one instance (empty: it passed). */
using Failures = std::vector<std::string>;

// ---------------------------------------------------------------- MSM

using MsmCfg = ec::Bn254G1Cfg;
using MsmIn = MsmInstance<MsmCfg>;
using MsmOut = ec::ECPoint<MsmCfg>;
using MsmDifferential = Differential<MsmIn, MsmOut>;

/**
 * The full MSM registry: every production variant against the naive
 * oracle. New implementations register here once and are covered by
 * the unit sweep, the fuzz driver, and CI alike. `threads` is the
 * runtime thread count every variant is constructed with (0 = the
 * GZKP_THREADS default) -- the cross-thread-count differential tests
 * instantiate the registry at several counts and expect identical
 * results from each.
 */
inline MsmDifferential
msmDifferential(std::size_t threads = 0)
{
    using namespace gzkp::msm;
    MsmDifferential d("naive", [](const MsmIn &in) {
        return msmNaive<MsmCfg>(in.points, in.scalars);
    });
    d.add("pippenger-serial", [threads](const MsmIn &in) {
        return PippengerSerial<MsmCfg>(0, threads)
            .run(in.points, in.scalars);
    });
    // The engines default to the batch-affine + GLV hot path, so the
    // default-constructed entries exercise it; this pins the original
    // Jacobian/no-GLV path so both strategies stay under differential
    // coverage.
    d.add("pippenger-serial-jacobian", [threads](const MsmIn &in) {
        return PippengerSerial<MsmCfg>(0, threads,
                                       Accumulator::Jacobian,
                                       GlvMode::Off)
            .run(in.points, in.scalars);
    });
    d.add("pippenger-serial-k13", [threads](const MsmIn &in) {
        return PippengerSerial<MsmCfg>(13, threads)
            .run(in.points, in.scalars);
    });
    d.add("straus-k4", [](const MsmIn &in) {
        return StrausMsm<MsmCfg>(4).run(in.points, in.scalars);
    });
    d.add("bellperson-k9-s3", [threads](const MsmIn &in) {
        return BellpersonMsm<MsmCfg>(9, 3, threads)
            .run(in.points, in.scalars);
    });
    d.add("gzkp-horner-m2", [threads](const MsmIn &in) {
        typename GzkpMsm<MsmCfg>::Options o;
        o.k = 8;
        o.checkpointM = 2;
        o.threads = threads;
        return GzkpMsm<MsmCfg>(o).run(in.points, in.scalars);
    });
    d.add("gzkp-horner-m2-jacobian", [threads](const MsmIn &in) {
        typename GzkpMsm<MsmCfg>::Options o;
        o.k = 8;
        o.checkpointM = 2;
        o.threads = threads;
        o.accumulator = Accumulator::Jacobian;
        o.glv = GlvMode::Off;
        return GzkpMsm<MsmCfg>(o).run(in.points, in.scalars);
    });
    d.add("gzkp-horner-m5", [threads](const MsmIn &in) {
        typename GzkpMsm<MsmCfg>::Options o;
        o.k = 8;
        o.checkpointM = 5;
        o.threads = threads;
        return GzkpMsm<MsmCfg>(o).run(in.points, in.scalars);
    });
    d.add("gzkp-perpoint-m3", [threads](const MsmIn &in) {
        typename GzkpMsm<MsmCfg>::Options o;
        o.k = 8;
        o.checkpointM = 3;
        o.mode = CheckpointMode::PerPoint;
        o.threads = threads;
        return GzkpMsm<MsmCfg>(o).run(in.points, in.scalars);
    });
    return d;
}

/**
 * The batch-affine / GLV cross-product registry: every engine at
 * every (accumulator, glv) combination it supports, against the
 * naive oracle -- the focused differential for the CPU hot path.
 * Broader than the entries in msmDifferential() (which keep the fuzz
 * loop's per-iteration cost bounded); run by the dedicated unit
 * tests, the batchaffine fuzz target, and CI sanitizer tiers.
 */
inline MsmDifferential
batchAffineDifferential(std::size_t threads = 0)
{
    using namespace gzkp::msm;
    MsmDifferential d("naive", [](const MsmIn &in) {
        return msmNaive<MsmCfg>(in.points, in.scalars);
    });
    struct Combo {
        const char *tag;
        Accumulator acc;
        GlvMode glv;
    };
    static constexpr Combo kCombos[] = {
        {"jac-noglv", Accumulator::Jacobian, GlvMode::Off},
        {"ba-noglv", Accumulator::BatchAffine, GlvMode::Off},
        {"jac-glv", Accumulator::Jacobian, GlvMode::On},
        {"ba-glv", Accumulator::BatchAffine, GlvMode::On},
    };
    for (const Combo &c : kCombos) {
        d.add(std::string("serial-") + c.tag,
              [threads, c](const MsmIn &in) {
                  return PippengerSerial<MsmCfg>(0, threads, c.acc,
                                                 c.glv)
                      .run(in.points, in.scalars);
              });
        d.add(std::string("gzkp-horner-m2-") + c.tag,
              [threads, c](const MsmIn &in) {
                  typename GzkpMsm<MsmCfg>::Options o;
                  o.k = 8;
                  o.checkpointM = 2;
                  o.threads = threads;
                  o.accumulator = c.acc;
                  o.glv = c.glv;
                  return GzkpMsm<MsmCfg>(o).run(in.points, in.scalars);
              });
    }
    for (Accumulator acc :
         {Accumulator::Jacobian, Accumulator::BatchAffine}) {
        d.add(acc == Accumulator::Jacobian ? "bellperson-jac"
                                           : "bellperson-ba",
              [threads, acc](const MsmIn &in) {
                  return BellpersonMsm<MsmCfg>(9, 3, threads, acc)
                      .run(in.points, in.scalars);
              });
    }
    return d;
}

/**
 * One MSM differential over a (size, mix, seed) instance; on
 * divergence the instance is shrunk and the shrunk size reported.
 */
inline Failures
msmFailures(const MsmDifferential &d, const FuzzInstance &fi)
{
    auto in = msmInstance<MsmCfg>(fi.size, fi.mix, fi.seed);
    auto div = d.run(in);
    if (!div)
        return {};
    auto shrunk = shrinkMsm<MsmCfg>(
        in, [&](const MsmIn &cand) { return d.run(cand).has_value(); });
    std::ostringstream detail;
    detail << div->variant << ": " << div->detail << "; shrunk to n="
           << shrunk.size();
    return {detail.str()};
}

// ---------------------------------------------------------------- NTT

using NttFr = ff::Bn254Fr;

struct NttInput {
    std::size_t logN = 0;
    bool invert = false;
    std::vector<NttFr> data;
};

using NttDifferential = Differential<NttInput, std::vector<NttFr>>;

/**
 * NTT registry: GPU-model variants vs the canonical radix-2 flow.
 * `threads` parameterizes the batched variant's runtime threads.
 */
inline NttDifferential
nttDifferential(std::size_t threads = 0)
{
    using namespace gzkp::ntt;
    NttDifferential d("ntt-cpu", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        nttInPlace(dom, a, in.invert);
        return a;
    });
    d.add("shuffled-bg", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        ShuffledNtt<NttFr>().run(dom, a, in.invert);
        return a;
    });
    d.add("gzkp", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        GzkpNtt<NttFr>().run(dom, a, in.invert);
        return a;
    });
    d.add("gzkp-b3-g2", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        GzkpNtt<NttFr>(3, 2).run(dom, a, in.invert);
        return a;
    });
    d.add("batched", [threads](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        std::vector<std::vector<NttFr>> batch = {in.data, in.data,
                                                 in.data};
        BatchedNtt<NttFr>(ntt::GzkpNtt<NttFr>(), threads)
            .run(dom, batch, in.invert);
        if (!(batch[0] == batch[1]) || !(batch[0] == batch[2]))
            throw std::logic_error("batch lanes disagree");
        return batch[0];
    });
    return d;
}

/** Round-trip registry: forward-then-inverse against the identity. */
inline NttDifferential
nttRoundTripDifferential()
{
    using namespace gzkp::ntt;
    NttDifferential d("identity",
                      [](const NttInput &in) { return in.data; });
    d.add("cpu-roundtrip", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        nttInPlace(dom, a, false);
        nttInPlace(dom, a, true);
        return a;
    });
    d.add("gzkp-roundtrip", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        GzkpNtt<NttFr>().run(dom, a, false);
        GzkpNtt<NttFr>().run(dom, a, true);
        return a;
    });
    d.add("shuffled-roundtrip", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        ShuffledNtt<NttFr>().run(dom, a, false);
        ShuffledNtt<NttFr>().run(dom, a, true);
        return a;
    });
    d.add("mixed-roundtrip", [](const NttInput &in) {
        // Forward on one variant, inverse on another: catches
        // matched-pair bugs that cancel within one implementation.
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        ShuffledNtt<NttFr>().run(dom, a, false);
        GzkpNtt<NttFr>().run(dom, a, true);
        return a;
    });
    return d;
}

inline NttInput
nttInput(std::size_t log_n, ScalarMix kind, bool invert,
         std::uint64_t seed)
{
    Rng rng(seed);
    NttInput in;
    in.logN = log_n;
    in.invert = invert;
    in.data = scalarVector<NttFr>(std::size_t(1) << log_n, kind, rng);
    return in;
}

/**
 * One NTT differential over a 2^k-point instance, k >= 1. Any other
 * size checks nothing: a scalar-mix repro line from an MSM failure
 * also replays the NTT rows, which only have power-of-two instances.
 */
inline Failures
nttFailures(const NttDifferential &d, const FuzzInstance &fi,
            bool invert)
{
    if (fi.size < 2 || !std::has_single_bit(fi.size))
        return {};
    auto in = nttInput(std::countr_zero(fi.size), fi.mix, invert,
                       fi.seed);
    auto div = d.run(in);
    if (!div)
        return {};
    // Shrink: halve the domain while the divergence persists, then
    // zero out data entries (keeping the power-of-two length).
    auto fails = [&](const NttInput &cand) {
        return d.run(cand).has_value();
    };
    while (in.logN > 1) {
        NttInput half = in;
        half.logN = in.logN - 1;
        half.data.assign(in.data.begin(),
                         in.data.begin() + (in.data.size() / 2));
        if (!fails(half))
            break;
        in = std::move(half);
    }
    for (auto &x : in.data) {
        if (x.isZero())
            continue;
        NttInput cand = in;
        cand.data[&x - in.data.data()] = NttFr::zero();
        if (fails(cand))
            in = std::move(cand);
    }
    std::ostringstream detail;
    detail << div->variant << ": " << div->detail
           << "; shrunk to 2^" << in.logN
           << (in.invert ? " (inverse)" : " (forward)");
    return {detail.str()};
}

// ------------------------------------------------------------ Groth16

/**
 * One end-to-end Groth16 iteration on a random circuit: the honest
 * proof must pass both verifiers; a proof from a mutated witness and
 * a tampered honest proof must both be rejected; serialization must
 * round-trip.
 */
inline Failures
groth16Failures(const FuzzInstance &fi)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    auto b = randomCircuit<Fr>(fi.seed);
    if (!b.cs().isSatisfied(b.assignment()))
        return {"generated circuit is unsatisfied (generator bug)"};

    Failures out;
    Rng rng(deriveSeed(fi.seed, 1));
    auto keys = G16::setup(b.cs(), rng);
    typename G16::ProofAux aux;
    auto proof =
        G16::prove(keys.pk, b.cs(), b.assignment(), rng, &aux);
    std::vector<Fr> pub(b.assignment().begin() + 1,
                        b.assignment().begin() + 1 +
                            b.cs().numPublic());

    if (!G16::verifyWithTrapdoor(keys, b.cs(), b.assignment(), proof,
                                 aux))
        out.push_back("honest proof rejected by trapdoor verifier");
    if (!zkp::verifyBn254(keys.vk, proof, pub))
        out.push_back("honest proof rejected by pairing verifier");

    // Negative: prove with a mutated witness (no longer satisfying).
    auto z_bad = b.assignment();
    if (z_bad.size() > b.cs().numPublic() + 1) {
        std::size_t idx = b.cs().numPublic() + 1 +
            rng() % (z_bad.size() - b.cs().numPublic() - 1);
        z_bad[idx] += Fr::one() + Fr::fromUint64(rng() % 5);
        if (!b.cs().isSatisfied(z_bad)) {
            auto bad =
                G16::prove(keys.pk, b.cs(), z_bad, rng, nullptr);
            if (zkp::verifyBn254(keys.vk, bad, pub))
                out.push_back("mutated-witness proof accepted by verifier");
        }
    }

    // Negative: tamper with each proof point in turn.
    using G1 = typename G16::G1;
    using G2 = typename G16::G2;
    auto t1 = proof;
    t1.a = (G1::fromAffine(t1.a) + G1::generator()).toAffine();
    if (zkp::verifyBn254(keys.vk, t1, pub))
        out.push_back("proof with tampered A accepted");
    auto t2 = proof;
    t2.b = (G2::fromAffine(t2.b) + G2::generator()).toAffine();
    if (zkp::verifyBn254(keys.vk, t2, pub))
        out.push_back("proof with tampered B accepted");
    auto t3 = proof;
    t3.c = (G1::fromAffine(t3.c) + G1::generator()).toAffine();
    if (zkp::verifyBn254(keys.vk, t3, pub))
        out.push_back("proof with tampered C accepted");

    // Serialization round-trip preserves validity.
    auto text = zkp::serializeProof<Family>(proof);
    auto back = zkp::deserializeProof<Family>(text);
    if (!(back.a == proof.a && back.b == proof.b &&
          back.c == proof.c))
        out.push_back("proof serialization round-trip changed the proof");
    return out;
}

/**
 * Cross-thread-count proof determinism: one circuit, one setup, one
 * prover-randomness stream -- the serialized proof bytes must be
 * identical at every runtime thread count. This is the end-to-end
 * check of the runtime's bit-reproducibility contract: a divergence
 * anywhere in the parallel NTT/MSM stack changes the proof points.
 */
inline Failures
proofDeterminismFailures(const FuzzInstance &fi)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    auto b = randomCircuit<Fr>(fi.seed);
    Rng rng(deriveSeed(fi.seed, 1));
    auto keys = G16::setup(b.cs(), rng);

    std::string base;
    for (std::size_t t : {1, 2, 4, 8}) {
        // Fresh, identically-seeded randomness per thread count so r/s
        // match and only the parallel schedule differs.
        Rng prng(deriveSeed(fi.seed, 2));
        auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), prng,
                                nullptr, zkp::CpuNttEngine<Fr>(), t);
        auto text = zkp::serializeProof<Family>(proof);
        if (t == 1) {
            base = text;
        } else if (text != base) {
            return {"proof bytes diverge between threads=1 and"
                    " threads=" + std::to_string(t)};
        }
    }
    return {};
}

// -------------------------------------------------------------- fault

/**
 * One chaos iteration: generate a seeded fault plan, run the
 * self-checking prover under it, and assert the chaos invariant --
 * the run ends in a verifying proof or a typed error, and the
 * pipeline never releases a proof the verifier rejects.
 */
inline Failures
faultFailures(const FuzzInstance &fi)
{
    auto plan = randomChaosPlan(kProverChaos, fi.seed);
    auto out = runChaosPlan(plan, fi.seed);
    if (out.clean())
        return {};
    std::ostringstream detail;
    detail << "plan \"" << plan.toString() << "\": ";
    if (out.releasedBadProof)
        detail << "pipeline released a non-verifying proof";
    else
        detail << "outcome neither verifying proof nor typed error ("
               << out.status.toString() << ")";
    return {detail.str()};
}

// ----------------------------------------------------------- workload

/**
 * One realistic-workload iteration: a random N-ary Poseidon Merkle
 * shape (depth, arity, leaf index) with sibling material drawn from a
 * random scalar regime, proved through the self-checking pipeline.
 * The invariant is the chaos one: the run ends in a verifying proof
 * or a clean typed error -- never a bad proof, never an untyped
 * exception.
 */
inline Failures
workloadFailures(const FuzzInstance &fi)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    Rng rng(deriveSeed(fi.seed, 1));
    workload::MerkleShape shape;
    shape.depth = 1 + rng() % 3;
    shape.arity = 2 + rng() % 3;
    std::uint64_t span = 1;
    for (std::size_t i = 0; i < shape.depth; ++i)
        span *= shape.arity;
    shape.leafIndex = rng() % span;
    ScalarMix regime = ScalarMix(rng() % kScalarMixCount);

    auto fail = [&](const std::string &what) -> Failures {
        std::ostringstream detail;
        detail << what << " (depth=" << shape.depth << " arity="
               << shape.arity << " leaf=" << shape.leafIndex
               << " regime=" << name(regime) << ")";
        return {detail.str()};
    };

    try {
        auto material = scalarVector<Fr>(
            shape.depth * (shape.arity - 1), regime, rng);
        Fr leaf = biasedField<Fr>(rng);
        auto b = workload::makePoseidonMerkleCircuit<Fr>(shape, leaf,
                                                         material);
        if (!b.cs().isSatisfied(b.assignment()))
            return fail("generated circuit is unsatisfied (builder bug)");
        Rng srng(deriveSeed(fi.seed, 2));
        auto keys = G16::setup(b.cs(), srng);
        auto prover = zkp::makeBn254SelfCheckingProver();
        Rng prng(deriveSeed(fi.seed, 3));
        auto r = prover.prove(keys.pk, keys.vk, b.cs(),
                              b.assignment(), prng);
        if (r.isOk()) {
            std::vector<Fr> pub(
                b.assignment().begin() + 1,
                b.assignment().begin() + 1 + b.cs().numPublic());
            if (!zkp::verifyBn254(keys.vk, *r, pub))
                return fail("pipeline released a non-verifying proof");
        }
        // A typed Status is the clean-error arm of the invariant.
    } catch (const std::exception &e) {
        return fail(std::string("untyped exception: ") + e.what());
    }
    return {};
}

// --------------------------------------------------------- ffdispatch

/**
 * A random field-op program over two state vectors `a` and `b`: each
 * op code maps to one batch entry point of ff/fp.hh. Replaying the
 * same program under every compiled ISA arm must produce limb-
 * identical state -- every arm returns canonical fully-reduced
 * Montgomery values, so any divergence is an arm bug, not a
 * representation choice.
 */
struct FfDispatchProgram {
    std::vector<ff::Bn254Fr> init; //!< initial state
    std::vector<std::uint8_t> ops; //!< op codes, see runFfDispatch
};

inline FfDispatchProgram
ffDispatchProgram(std::size_t size, std::uint64_t seed)
{
    Rng rng(seed);
    FfDispatchProgram p;
    std::size_t n = std::max<std::size_t>(size, 1);
    ScalarMix mix = ScalarMix(rng() % kScalarMixCount);
    p.init = scalarVector<ff::Bn254Fr>(n, mix, rng);
    p.ops.resize(2 + rng() % 14);
    for (auto &op : p.ops)
        op = std::uint8_t(rng() % 7);
    return p;
}

/** Replay a program under the currently active ISA arm. */
inline std::vector<ff::Bn254Fr>
runFfDispatch(const FfDispatchProgram &p)
{
    using Fr = ff::Bn254Fr;
    const std::size_t n = p.init.size();
    std::vector<Fr> a = p.init;
    std::vector<Fr> b(p.init.rbegin(), p.init.rend());
    static const ff::BigInt<2> kExp =
        ff::BigInt<2>::fromHex("1f3a9c0d5b");
    for (std::uint8_t op : p.ops) {
        switch (op % 7) {
        case 0:
            ff::mulBatch(a.data(), a.data(), b.data(), n);
            break;
        case 1:
            ff::sqrBatch(b.data(), a.data(), n);
            break;
        case 2:
            ff::mulcBatch(a.data(), b.data(), b[n / 2], n);
            break;
        case 3:
            ff::addBatch(b.data(), b.data(), a.data(), n);
            break;
        case 4:
            ff::subBatch(a.data(), a.data(), b.data(), n);
            break;
        case 5:
            ff::batchInverse(a);
            break;
        case 6:
            ff::powBatch(b.data(), b.data(), kExp, n);
            break;
        }
    }
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

namespace detail {

/** RAII pin of the active field-kernel ISA. */
struct ScopedIsa {
    explicit ScopedIsa(ff::simd::Isa isa)
    {
        ff::simd::setActiveIsa(isa);
    }
    ~ScopedIsa() { ff::simd::clearActiveIsa(); }
};

} // namespace detail

/**
 * One cross-ISA differential: run the program under the portable arm,
 * then under every other arm this host supports, and compare limbs.
 * On divergence the program is greedily shrunk (drop ops, then halve
 * the state).
 */
inline Failures
ffDispatchFailures(const FuzzInstance &fi)
{
    namespace simd = ff::simd;
    auto p = ffDispatchProgram(fi.size, fi.seed);

    auto diverges = [](const FfDispatchProgram &prog)
        -> std::optional<std::string> {
        std::vector<ff::Bn254Fr> ref;
        {
            detail::ScopedIsa g(simd::Isa::Portable);
            ref = runFfDispatch(prog);
        }
        for (simd::Isa isa : simd::supportedIsas()) {
            if (isa == simd::Isa::Portable)
                continue;
            detail::ScopedIsa g(isa);
            auto got = runFfDispatch(prog);
            for (std::size_t i = 0; i < ref.size(); ++i) {
                if (!(got[i] == ref[i])) {
                    std::ostringstream os;
                    os << simd::name(isa)
                       << " diverges from portable at element " << i;
                    return os.str();
                }
            }
        }
        return std::nullopt;
    };

    if (!diverges(p))
        return {};
    // Greedy shrink: drop ops one at a time, then halve the state
    // vector, for as long as the divergence persists.
    for (std::size_t i = 0; i < p.ops.size();) {
        FfDispatchProgram cand = p;
        cand.ops.erase(cand.ops.begin() + i);
        if (diverges(cand))
            p = std::move(cand);
        else
            ++i;
    }
    while (p.init.size() > 1) {
        FfDispatchProgram cand = p;
        cand.init.resize(p.init.size() / 2);
        if (!diverges(cand))
            break;
        p = std::move(cand);
    }
    auto msg = diverges(p);
    std::ostringstream detail;
    detail << (msg ? *msg : std::string("divergence")) << "; shrunk to n="
           << p.init.size() << ", " << p.ops.size() << " op(s)";
    return {detail.str()};
}

// ------------------------------------------------------------- gpusim

/**
 * Assert the accounting invariants of every variant's KernelStats on
 * this instance's scalar distribution, over 64x `size` scalars.
 */
inline Failures
gpusimFailures(const FuzzInstance &fi)
{
    using namespace gzkp::msm;
    using Fr = ff::Bn254Fr;
    auto dev = gpusim::DeviceConfig::v100();
    Rng rng(deriveSeed(fi.seed, 3));
    std::size_t n = std::max<std::size_t>(fi.size, 1) * 64;
    auto scalars = scalarVector<Fr>(n, fi.mix, rng);

    Failures out;
    auto check = [&](const char *which,
                     const gpusim::KernelStats &st) {
        for (const auto &v : gpusim::invariantViolations(st, dev))
            out.push_back(std::string(which) + ": " + v);
    };

    GzkpMsm<MsmCfg>::Options lb, no_lb;
    no_lb.loadBalance = false;
    check("gzkp-msm", GzkpMsm<MsmCfg>(lb, dev).gpuStats(n, dev,
                                                        &scalars));
    check("gzkp-msm-no-lb",
          GzkpMsm<MsmCfg>(no_lb, dev).gpuStats(n, dev, &scalars));
    check("bellperson-msm",
          BellpersonMsm<MsmCfg>().gpuStats(n, dev, &scalars));
    check("straus-msm", StrausMsm<MsmCfg>().gpuStats(n, dev));

    std::size_t log_n = 10 + rng() % 11; // 2^10 .. 2^20 (model only)
    auto sh = ntt::ShuffledNtt<Fr>().stats(log_n, dev);
    check("ntt-shuffled-bitrev", sh.bitrev);
    check("ntt-shuffled-shuffle", sh.shuffle);
    check("ntt-shuffled-compute", sh.compute);
    check("ntt-shuffled-total", sh.total());
    auto gz = ntt::GzkpNtt<Fr>().stats(log_n, dev);
    check("ntt-gzkp-compute", gz.compute);
    check("ntt-gzkp-total", gz.total());
    return out;
}

// ---------------------------------------------------------- the table

/** How a row's instance uses the sweep iteration's scalar mix. */
enum class MixUse {
    None,  //!< not at all
    Swept, //!< it does; a replay by row name sweeps every mix
    Kind,  //!< it does, and the repro line's --kind is the mix itself
};

/**
 * One fuzz target. Sweep iteration i runs the row when
 * i % period == phase, on sub-seed deriveSeed(seed, i, salt); a new
 * check is one more row of fuzzTargets().
 */
struct FuzzTarget {
    const char *name;
    std::uint64_t period;
    std::uint64_t phase;
    std::uint64_t salt;
    /**
     * The instance size at sweep iteration i (`seed` is the sweep's).
     * nullptr: the instance is its seed alone, and a replay with
     * --size=N checks N consecutive seeds.
     */
    std::size_t (*size)(std::uint64_t seed, std::uint64_t i,
                        std::size_t max_msm_size);
    MixUse mix;
    Failures (*run)(const FuzzInstance &);
};

namespace detail {

/** The msm row's size: skewed toward small instances (edge cases). */
inline std::size_t
msmSize(std::uint64_t seed, std::uint64_t i, std::size_t max_size)
{
    std::uint64_t r = deriveSeed(seed, i, 1);
    std::uint64_t c = r % 16;
    if (c == 0)
        return 0;
    if (c < 6)
        return 1 + (r >> 8) % 4;
    return 1 + (r >> 8) % std::max<std::size_t>(1, max_size);
}

/** The ntt row's log2 size, 1..7; its sub-seed (salt 4) draws it. */
inline std::size_t
nttLog(std::uint64_t seed, std::uint64_t i)
{
    return 1 + deriveSeed(seed, i, 4) % 7;
}

} // namespace detail

/** Every fuzz target, in the order a sweep iteration runs them. */
inline std::span<const FuzzTarget>
fuzzTargets()
{
    static const FuzzTarget rows[] = {
        {"msm", 1, 0, 2, detail::msmSize, MixUse::Kind,
         [](const FuzzInstance &in) {
             static const MsmDifferential d = msmDifferential();
             return msmFailures(d, in);
         }},
        {"gpusim", 8, 1, 3,
         [](std::uint64_t s, std::uint64_t i, std::size_t max) {
             return 1 + detail::msmSize(s, i, max) / 4;
         },
         MixUse::Swept, gpusimFailures},
        // The 10-variant cross-product is pricey; sample sparsely.
        {"batchaffine", 16, 5, 9, detail::msmSize, MixUse::Swept,
         [](const FuzzInstance &in) {
             static const MsmDifferential d = batchAffineDifferential();
             return msmFailures(d, in);
         }},
        // Its sub-seed also picks the direction: bit 32 = inverse.
        {"ntt", 2, 0, 4,
         [](std::uint64_t s, std::uint64_t i, std::size_t) {
             return std::size_t(1) << detail::nttLog(s, i);
         },
         MixUse::Kind,
         [](const FuzzInstance &in) {
             static const NttDifferential d = nttDifferential();
             return nttFailures(d, in, (in.seed >> 32) & 1);
         }},
        {"nttroundtrip", 4, 0, 5,
         [](std::uint64_t s, std::uint64_t i, std::size_t) {
             return std::size_t(1)
                 << std::min<std::size_t>(detail::nttLog(s, i), 6);
         },
         MixUse::Kind,
         [](const FuzzInstance &in) {
             static const NttDifferential d = nttRoundTripDifferential();
             return nttFailures(d, in, false);
         }},
        // Proofs are expensive: sample sparsely.
        {"groth16", 40, 7, 6, nullptr, MixUse::None, groth16Failures},
        // Four proofs per instance.
        {"proofdet", 80, 23, 7, nullptr, MixUse::None,
         proofDeterminismFailures},
        // Chaos runs may retry across both backends.
        {"fault", 16, 11, 8, nullptr, MixUse::None, faultFailures},
        // A full setup + prove per hit: the sparsest slot of all.
        {"workload", 64, 13, 10, nullptr, MixUse::None,
         workloadFailures},
        // Cheap (pure field ops); run densely so the ISA arms see
        // every scalar regime the other targets see.
        {"ffdispatch", 4, 2, 11,
         [](std::uint64_t s, std::uint64_t i, std::size_t) {
             return std::size_t(1 + deriveSeed(s, i, 12) % 96);
         },
         MixUse::None, ffDispatchFailures},
    };
    return rows;
}

/** The row named `name`, or nullptr. */
inline const FuzzTarget *
fuzzTarget(std::string_view name)
{
    for (const FuzzTarget &t : fuzzTargets())
        if (name == t.name)
            return &t;
    return nullptr;
}

/** Row `t`'s instance at iteration `i` of the sweep `opt`. */
inline FuzzInstance
scheduledInstance(const FuzzTarget &t, const FuzzOptions &opt,
                  std::uint64_t i)
{
    return {deriveSeed(opt.seed, i, t.salt),
            t.size ? t.size(opt.seed, i, opt.maxMsmSize) : 0,
            ScalarMix(deriveSeed(opt.seed, i) % kScalarMixCount)};
}

/** The repro fragment that replays row `t` on `in`. */
inline std::string
reproLine(const FuzzTarget &t, const FuzzInstance &in)
{
    std::ostringstream os;
    os << "--seed=" << in.seed << " --size=" << in.size << " --kind="
       << (t.mix == MixUse::Kind ? name(in.mix) : t.name);
    return os.str();
}

/** Record each of `why` as a failure of row `t` on `in`. */
inline void
addFailures(const FuzzTarget &t, const FuzzInstance &in, Failures why,
            FuzzReport &rep)
{
    for (std::string &detail : why)
        rep.failures.push_back({t.name, reproLine(t, in),
                                std::move(detail)});
}

/** Run row `t` on one instance. */
inline void
fuzzInstance(const FuzzTarget &t, const FuzzInstance &in,
             FuzzReport &rep)
{
    addFailures(t, in, t.run(in), rep);
}

/**
 * The msm row's check with a caller-supplied registry, so tests can
 * replay specific instances and inject broken variants.
 */
inline void
fuzzMsmInstance(const MsmDifferential &d, std::uint64_t seed,
                std::size_t size, ScalarMix kind, FuzzReport &rep)
{
    FuzzInstance in{seed, size, kind};
    addFailures(*fuzzTarget("msm"), in, msmFailures(d, in), rep);
}

/** Likewise for the NTT rows, with the direction chosen by the caller. */
inline void
fuzzNttInstance(const NttDifferential &d, std::uint64_t seed,
                std::size_t log_n, ScalarMix kind, bool invert,
                FuzzReport &rep)
{
    FuzzInstance in{seed, std::size_t(1) << log_n, kind};
    addFailures(*fuzzTarget("ntt"), in, nttFailures(d, in, invert), rep);
}

/** One check a repro line replays. */
struct FuzzReplay {
    const FuzzTarget *target;
    FuzzInstance instance;
};

/**
 * The checks `--seed=S --size=N --kind=K` replays. K is a row name,
 * or a scalar mix, which selects every row whose repro lines carry
 * the mix. A row replayed by name sweeps every mix if its instance
 * uses one, and checks max(1, N) consecutive seeds if its instance
 * has no size. Empty when K names neither.
 */
inline std::vector<FuzzReplay>
replayInstances(std::uint64_t seed, std::size_t size,
                std::string_view kind)
{
    std::vector<FuzzReplay> out;
    for (const FuzzTarget &t : fuzzTargets()) {
        bool by_name = kind == t.name;
        for (std::size_t m = 0; m < kScalarMixCount; ++m) {
            ScalarMix mix = ScalarMix(m);
            if ((by_name && t.mix != MixUse::None) ||
                (t.mix == MixUse::Kind && kind == name(mix)))
                out.push_back({&t, {seed, size, mix}});
        }
        if (by_name && t.mix == MixUse::None) {
            std::size_t count =
                t.size ? 1 : std::max<std::size_t>(size, 1);
            for (std::size_t k = 0; k < count; ++k)
                out.push_back({&t, {seed + k, t.size ? size : 0}});
        }
    }
    return out;
}

/** The bounded fuzz loop used by tools/fuzz_driver and the tests. */
inline FuzzReport
fuzzAll(const FuzzOptions &opt)
{
    for (const std::string &n : opt.only)
        if (!fuzzTarget(n))
            throw std::invalid_argument("fuzz: no target named " + n);
    std::vector<const FuzzTarget *> rows;
    for (const FuzzTarget &t : fuzzTargets())
        if (opt.only.empty() ||
            std::find(opt.only.begin(), opt.only.end(), t.name) !=
                opt.only.end())
            rows.push_back(&t);

    auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    FuzzReport rep;
    for (std::uint64_t i = 0; i < opt.iterations; ++i) {
        if (opt.maxSeconds > 0 && elapsed() > opt.maxSeconds)
            break;
        for (const FuzzTarget *t : rows)
            if (i % t->period == t->phase)
                fuzzInstance(*t, scheduledInstance(*t, opt, i), rep);

        ++rep.iterations;
        if (opt.verbose && (i + 1) % 100 == 0) {
            std::fprintf(stderr,
                         "[fuzz] %llu/%llu iterations, %zu failures\n",
                         (unsigned long long)(i + 1),
                         (unsigned long long)opt.iterations,
                         rep.failures.size());
        }
    }
    return rep;
}

} // namespace gzkp::testkit

#endif // GZKP_TESTKIT_FUZZ_HH
