/**
 * @file
 * The deterministic differential-fuzzing loop.
 *
 * One fuzz iteration derives a sub-seed, generates a biased instance,
 * and runs a differential registry over it:
 *
 *  - MSM: serial Pippenger (two windows), Straus, bellperson-like,
 *    and GZKP (Horner and PerPoint checkpoint modes) against the
 *    naive PMUL-sum oracle, on BN254 G1;
 *  - NTT: shuffled (BG-like), GZKP shuffle-less (two block shapes),
 *    and batched execution against the canonical radix-2 flow, plus
 *    forward/inverse round-trips against the identity;
 *  - Groth16: end-to-end setup/prove/verify on random small circuits,
 *    including negative soundness checks (a proof built from a
 *    mutated witness, or a tampered proof, must be rejected), and
 *    cross-thread-count proof determinism (identical proof bytes at
 *    runtime threads 1/2/4/8);
 *  - gpusim: the accounting invariants of every variant's reported
 *    KernelStats (see gpusim::invariantViolations), so the perf
 *    model is fuzzed as a checked contract too;
 *  - fault: seeded chaos plans (testkit/chaos.hh) driven through the
 *    self-checking prover pipeline; every run must end in a verifying
 *    proof or a typed gzkp::Status -- never a bad proof;
 *  - ffdispatch: random field-op programs (batch mul/sqr/mulc/add/
 *    sub/pow/inverse over ff/fp.hh entry points) replayed under every
 *    compiled SIMD ISA arm; results must be limb-identical to the
 *    portable arm, pinning the field core's bit-identity invariant.
 *
 * On divergence the failing instance is greedily shrunk and the
 * report carries a self-contained repro line (--seed=S --size=N
 * --kind=K) that replays from the fuzz_driver CLI.
 */

#ifndef GZKP_TESTKIT_FUZZ_HH
#define GZKP_TESTKIT_FUZZ_HH

#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
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
    std::size_t maxNttLog = 7;
    bool msm = true;
    bool ntt = true;
    bool groth16 = true;
    bool gpusim = true;
    bool fault = true;
    bool workload = true;
    bool ffdispatch = true;
    std::uint64_t groth16Every = 40; //!< proofs are expensive
    std::uint64_t faultEvery = 16;   //!< chaos runs prove repeatedly
    std::uint64_t workloadEvery = 64; //!< full Merkle prove per hit
    bool verbose = false;
};

struct FuzzFailure {
    std::string target; //!< "msm", "ntt", "groth16", "gpusim"
    std::string repro;  //!< replayable CLI fragment
    std::string detail; //!< variant + shrunk-instance description
};

struct FuzzReport {
    std::uint64_t iterations = 0;
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
};

/** The self-contained repro fragment for one generated instance. */
inline std::string
reproLine(std::uint64_t seed, std::size_t size, ScalarMix kind)
{
    std::ostringstream os;
    os << "--seed=" << seed << " --size=" << size << " --kind="
       << name(kind);
    return os.str();
}

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
 * Run one MSM differential + shrink-on-failure. Exposed so tests can
 * replay specific instances and inject broken variants (pass a
 * custom differential).
 */
inline void
fuzzMsmInstance(const MsmDifferential &d, std::uint64_t seed,
                std::size_t size, ScalarMix kind, FuzzReport &rep)
{
    auto in = msmInstance<MsmCfg>(size, kind, seed);
    auto div = d.run(in);
    if (!div)
        return;
    auto shrunk = shrinkMsm<MsmCfg>(
        in, [&](const MsmIn &cand) { return d.run(cand).has_value(); });
    std::ostringstream detail;
    detail << div->variant << ": " << div->detail << "; shrunk to n="
           << shrunk.size();
    rep.failures.push_back(
        {"msm", reproLine(seed, size, kind), detail.str()});
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

/** Repro fragment for a batch-affine differential instance. */
inline std::string
batchAffineRepro(std::uint64_t seed, std::size_t size)
{
    std::ostringstream os;
    os << "--seed=" << seed << " --size=" << size
       << " --kind=batchaffine";
    return os.str();
}

/** One batch-affine cross-product differential + shrink-on-failure. */
inline void
fuzzBatchAffineInstance(std::uint64_t seed, std::size_t size,
                        ScalarMix kind, FuzzReport &rep)
{
    static const MsmDifferential d = batchAffineDifferential();
    auto in = msmInstance<MsmCfg>(size, kind, seed);
    auto div = d.run(in);
    if (!div)
        return;
    auto shrunk = shrinkMsm<MsmCfg>(
        in, [&](const MsmIn &cand) { return d.run(cand).has_value(); });
    std::ostringstream detail;
    detail << div->variant << ": " << div->detail << "; shrunk to n="
           << shrunk.size();
    rep.failures.push_back(
        {"batchaffine", batchAffineRepro(seed, size), detail.str()});
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

inline void
fuzzNttInstance(const NttDifferential &d, std::uint64_t seed,
                std::size_t log_n, ScalarMix kind, bool invert,
                FuzzReport &rep)
{
    auto in = nttInput(log_n, kind, invert, seed);
    auto div = d.run(in);
    if (!div)
        return;
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
    rep.failures.push_back(
        {"ntt", reproLine(seed, std::size_t(1) << log_n, kind),
         detail.str()});
}

// ------------------------------------------------------------ Groth16

/**
 * One end-to-end Groth16 iteration on a random circuit: the honest
 * proof must pass both verifiers; a proof from a mutated witness and
 * a tampered honest proof must both be rejected; serialization must
 * round-trip.
 */
inline void
fuzzGroth16Instance(std::uint64_t seed, FuzzReport &rep)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    auto fail = [&](const std::string &what) {
        rep.failures.push_back(
            {"groth16",
             reproLine(seed, 0, ScalarMix::Adversarial),
             what});
    };

    auto b = randomCircuit<Fr>(seed);
    if (!b.cs().isSatisfied(b.assignment())) {
        fail("generated circuit is unsatisfied (generator bug)");
        return;
    }

    Rng rng(deriveSeed(seed, 1));
    auto keys = G16::setup(b.cs(), rng);
    typename G16::ProofAux aux;
    auto proof =
        G16::prove(keys.pk, b.cs(), b.assignment(), rng, &aux);
    std::vector<Fr> pub(b.assignment().begin() + 1,
                        b.assignment().begin() + 1 +
                            b.cs().numPublic());

    if (!G16::verifyWithTrapdoor(keys, b.cs(), b.assignment(), proof,
                                 aux))
        fail("honest proof rejected by trapdoor verifier");
    if (!zkp::verifyBn254(keys.vk, proof, pub))
        fail("honest proof rejected by pairing verifier");

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
                fail("mutated-witness proof accepted by verifier");
        }
    }

    // Negative: tamper with each proof point in turn.
    using G1 = typename G16::G1;
    using G2 = typename G16::G2;
    auto t1 = proof;
    t1.a = (G1::fromAffine(t1.a) + G1::generator()).toAffine();
    if (zkp::verifyBn254(keys.vk, t1, pub))
        fail("proof with tampered A accepted");
    auto t2 = proof;
    t2.b = (G2::fromAffine(t2.b) + G2::generator()).toAffine();
    if (zkp::verifyBn254(keys.vk, t2, pub))
        fail("proof with tampered B accepted");
    auto t3 = proof;
    t3.c = (G1::fromAffine(t3.c) + G1::generator()).toAffine();
    if (zkp::verifyBn254(keys.vk, t3, pub))
        fail("proof with tampered C accepted");

    // Serialization round-trip preserves validity.
    auto text = zkp::serializeProof<Family>(proof);
    auto back = zkp::deserializeProof<Family>(text);
    if (!(back.a == proof.a && back.b == proof.b &&
          back.c == proof.c))
        fail("proof serialization round-trip changed the proof");
}

/** Repro fragment for a proof-determinism instance (size unused). */
inline std::string
proofDeterminismRepro(std::uint64_t seed)
{
    std::ostringstream os;
    os << "--seed=" << seed << " --size=0 --kind=proofdet";
    return os.str();
}

/**
 * Cross-thread-count proof determinism: one circuit, one setup, one
 * prover-randomness stream -- the serialized proof bytes must be
 * identical at every runtime thread count. This is the end-to-end
 * check of the runtime's bit-reproducibility contract: a divergence
 * anywhere in the parallel NTT/MSM stack changes the proof points.
 */
inline void
fuzzProofDeterminism(std::uint64_t seed, FuzzReport &rep)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    auto b = randomCircuit<Fr>(seed);
    Rng rng(deriveSeed(seed, 1));
    auto keys = G16::setup(b.cs(), rng);

    std::string base;
    for (std::size_t t : {1, 2, 4, 8}) {
        // Fresh, identically-seeded randomness per thread count so r/s
        // match and only the parallel schedule differs.
        Rng prng(deriveSeed(seed, 2));
        auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), prng,
                                nullptr, zkp::CpuNttEngine<Fr>(), t);
        auto text = zkp::serializeProof<Family>(proof);
        if (t == 1) {
            base = text;
        } else if (text != base) {
            std::ostringstream detail;
            detail << "proof bytes diverge between threads=1 and"
                   << " threads=" << t;
            rep.failures.push_back({"groth16-determinism",
                                    proofDeterminismRepro(seed),
                                    detail.str()});
            return;
        }
    }
}

// -------------------------------------------------------------- fault

/** Repro fragment for a chaos instance (size unused). */
inline std::string
faultRepro(std::uint64_t seed)
{
    std::ostringstream os;
    os << "--seed=" << seed << " --size=0 --kind=fault";
    return os.str();
}

/**
 * One chaos iteration: generate a seeded fault plan, run the
 * self-checking prover under it, and assert the chaos invariant --
 * the run ends in a verifying proof or a typed error, and the
 * pipeline never releases a proof the verifier rejects.
 */
inline void
fuzzFaultInstance(std::uint64_t seed, FuzzReport &rep)
{
    auto plan = randomChaosPlan(kProverChaos, seed);
    auto out = runChaosPlan(plan, seed);
    if (out.clean())
        return;
    std::ostringstream detail;
    detail << "plan \"" << plan.toString() << "\": ";
    if (out.releasedBadProof)
        detail << "pipeline released a non-verifying proof";
    else
        detail << "outcome neither verifying proof nor typed error ("
               << out.status.toString() << ")";
    rep.failures.push_back({"fault", faultRepro(seed), detail.str()});
}

// ----------------------------------------------------------- workload

/** Repro fragment for a workload instance (size unused). */
inline std::string
workloadRepro(std::uint64_t seed)
{
    std::ostringstream os;
    os << "--seed=" << seed << " --size=0 --kind=workload";
    return os.str();
}

/**
 * One realistic-workload iteration: a random N-ary Poseidon Merkle
 * shape (depth, arity, leaf index) with sibling material drawn from a
 * random scalar regime, proved through the self-checking pipeline.
 * The invariant is the chaos one: the run ends in a verifying proof
 * or a clean typed error -- never a bad proof, never an untyped
 * exception.
 */
inline void
fuzzWorkloadInstance(std::uint64_t seed, FuzzReport &rep)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    Rng rng(deriveSeed(seed, 1));
    workload::MerkleShape shape;
    shape.depth = 1 + rng() % 3;
    shape.arity = 2 + rng() % 3;
    std::uint64_t span = 1;
    for (std::size_t i = 0; i < shape.depth; ++i)
        span *= shape.arity;
    shape.leafIndex = rng() % span;
    ScalarMix regime = ScalarMix(rng() % kScalarMixCount);

    auto fail = [&](const std::string &what) {
        std::ostringstream detail;
        detail << what << " (depth=" << shape.depth << " arity="
               << shape.arity << " leaf=" << shape.leafIndex
               << " regime=" << name(regime) << ")";
        rep.failures.push_back(
            {"workload", workloadRepro(seed), detail.str()});
    };

    try {
        auto material = scalarVector<Fr>(
            shape.depth * (shape.arity - 1), regime, rng);
        Fr leaf = biasedField<Fr>(rng);
        auto b = workload::makePoseidonMerkleCircuit<Fr>(shape, leaf,
                                                         material);
        if (!b.cs().isSatisfied(b.assignment())) {
            fail("generated circuit is unsatisfied (builder bug)");
            return;
        }
        Rng srng(deriveSeed(seed, 2));
        auto keys = G16::setup(b.cs(), srng);
        auto prover = zkp::makeBn254SelfCheckingProver();
        Rng prng(deriveSeed(seed, 3));
        auto r = prover.prove(keys.pk, keys.vk, b.cs(),
                              b.assignment(), prng);
        if (r.isOk()) {
            std::vector<Fr> pub(
                b.assignment().begin() + 1,
                b.assignment().begin() + 1 + b.cs().numPublic());
            if (!zkp::verifyBn254(keys.vk, *r, pub))
                fail("pipeline released a non-verifying proof");
        }
        // A typed Status is the clean-error arm of the invariant.
    } catch (const std::exception &e) {
        fail(std::string("untyped exception: ") + e.what());
    }
}

// --------------------------------------------------------- ffdispatch

/** Repro fragment for a cross-ISA field-dispatch instance. */
inline std::string
ffDispatchRepro(std::uint64_t seed, std::size_t size)
{
    std::ostringstream os;
    os << "--seed=" << seed << " --size=" << size
       << " --kind=ffdispatch";
    return os.str();
}

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
 * the state) and the repro line replays from the fuzz_driver CLI.
 */
inline void
fuzzFfDispatchInstance(std::uint64_t seed, std::size_t size,
                       FuzzReport &rep)
{
    namespace simd = ff::simd;
    auto p = ffDispatchProgram(size, seed);

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
        return;
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
    rep.failures.push_back(
        {"ffdispatch", ffDispatchRepro(seed, size), detail.str()});
}

// ------------------------------------------------------------- gpusim

/**
 * Assert the accounting invariants of every variant's KernelStats on
 * this iteration's scalar distribution.
 */
inline void
fuzzGpusimInstance(std::uint64_t seed, std::size_t size,
                   ScalarMix kind, FuzzReport &rep)
{
    using namespace gzkp::msm;
    using Fr = ff::Bn254Fr;
    auto dev = gpusim::DeviceConfig::v100();
    Rng rng(deriveSeed(seed, 3));
    std::size_t n = std::max<std::size_t>(size, 1) * 64;
    auto scalars = scalarVector<Fr>(n, kind, rng);

    auto check = [&](const char *which,
                     const gpusim::KernelStats &st) {
        for (const auto &v : gpusim::invariantViolations(st, dev)) {
            rep.failures.push_back(
                {"gpusim", reproLine(seed, n, kind),
                 std::string(which) + ": " + v});
        }
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
}

// ---------------------------------------------------------- top level

/** Size skewed toward small instances (where edge cases live). */
inline std::size_t
skewedSize(std::uint64_t r, std::size_t max_size)
{
    std::uint64_t c = r % 16;
    if (c == 0)
        return 0;
    if (c < 6)
        return 1 + (r >> 8) % 4;
    return 1 + (r >> 8) % std::max<std::size_t>(1, max_size);
}

/** The bounded fuzz loop used by tools/fuzz_driver and the tests. */
inline FuzzReport
fuzzAll(const FuzzOptions &opt,
        const MsmDifferential &msm_diff = msmDifferential())
{
    auto ntt_diff = nttDifferential();
    auto ntt_rt = nttRoundTripDifferential();
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
        std::uint64_t r = deriveSeed(opt.seed, i);
        ScalarMix kind = ScalarMix(r % kScalarMixCount);

        if (opt.msm) {
            std::size_t size =
                skewedSize(deriveSeed(opt.seed, i, 1), opt.maxMsmSize);
            fuzzMsmInstance(msm_diff, deriveSeed(opt.seed, i, 2), size,
                            kind, rep);
            if (opt.gpusim && i % 8 == 1) {
                fuzzGpusimInstance(deriveSeed(opt.seed, i, 3),
                                   1 + size / 4, kind, rep);
            }
            // The 10-variant cross-product is pricey; sample sparsely.
            if (i % 16 == 5) {
                fuzzBatchAffineInstance(deriveSeed(opt.seed, i, 9),
                                        size, kind, rep);
            }
        }
        if (opt.ntt && i % 2 == 0) {
            std::uint64_t s = deriveSeed(opt.seed, i, 4);
            std::size_t log_n = 1 + s % opt.maxNttLog;
            bool invert = (s >> 32) & 1;
            fuzzNttInstance(ntt_diff, s, log_n, kind, invert, rep);
            if (i % 4 == 0) {
                fuzzNttInstance(ntt_rt, deriveSeed(opt.seed, i, 5),
                                std::min<std::size_t>(log_n, 6), kind,
                                false, rep);
            }
        }
        if (opt.groth16 && i % opt.groth16Every == 7)
            fuzzGroth16Instance(deriveSeed(opt.seed, i, 6), rep);
        // Four proofs per instance, so sample sparsely.
        if (opt.groth16 && i % (opt.groth16Every * 2) == 23)
            fuzzProofDeterminism(deriveSeed(opt.seed, i, 7), rep);
        // Chaos runs may retry across both backends: sample sparsely.
        if (opt.fault && i % opt.faultEvery == 11)
            fuzzFaultInstance(deriveSeed(opt.seed, i, 8), rep);
        // A full setup+prove per hit: the sparsest slot of all.
        if (opt.workload && i % opt.workloadEvery == 13)
            fuzzWorkloadInstance(deriveSeed(opt.seed, i, 10), rep);
        // Cheap (pure field ops); run densely so the ISA arms see
        // every scalar regime the other targets see.
        if (opt.ffdispatch && i % 4 == 2) {
            std::size_t fsz =
                1 + deriveSeed(opt.seed, i, 12) % 96;
            fuzzFfDispatchInstance(deriveSeed(opt.seed, i, 11), fsz,
                                   rep);
        }

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
