/**
 * @file
 * Chaos harness: seeded fault-plan generation plus the single
 * invariant every chaos run is held to --
 *
 *     a prover run under ANY fault plan ends in exactly one of two
 *     states: a proof that verifies, or a typed non-OK gzkp::Status.
 *     Never an invalid proof, never a crash, never a hang.
 *
 * The harness generates random-but-reproducible plans over the real
 * probe-site vocabulary (so arms actually hit the pipeline rather
 * than matching nothing), runs the self-checking BN254 prover
 * (runChaosPlan) or a whole proving service over a request list
 * (runServiceChaosPlan) under each, and classifies the outcome.
 * tests/test_chaos.cc sweeps hundreds of seeds through both and
 * asserts the invariant on every one; fuzz_driver --kind=fault
 * replays prover plans by seed.
 */

#ifndef GZKP_TESTKIT_CHAOS_HH
#define GZKP_TESTKIT_CHAOS_HH

#include <chrono>
#include <cstdint>
#include <future>
#include <iterator>
#include <string>
#include <vector>

#include "faultsim/faultsim.hh"
#include "service/proof_service.hh"
#include "testkit/generators.hh"
#include "testkit/rng.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/prover_pipeline.hh"
#include "zkp/serialize.hh"

namespace gzkp::testkit {

/**
 * The shared chaos workload: one small satisfiable circuit and its
 * Groth16 keys, built once (setup is fault-free by construction --
 * plans are installed per run, after the fixture exists).
 */
struct ChaosFixture {
    workload::Builder<ff::Bn254Fr> builder;
    zkp::Groth16<zkp::Bn254Family>::Keys keys;
    std::vector<ff::Bn254Fr> publicInputs;

    ChaosFixture()
        : builder(randomCircuit<ff::Bn254Fr>(0xC0FFEE, 10))
    {
        Rng rng(deriveSeed(0xC0FFEE, 1));
        keys = zkp::Groth16<zkp::Bn254Family>::setup(builder.cs(), rng);
        const auto &z = builder.assignment();
        publicInputs.assign(z.begin() + 1,
                            z.begin() + 1 + builder.cs().numPublic());
    }
};

inline const ChaosFixture &
chaosFixture()
{
    static const ChaosFixture fx;
    return fx;
}

/**
 * Probe sites that exist in the pipeline, used to bias generated
 * arms toward plans that actually fire. One table serves every
 * sweep: each draws from a prefix of it (see ChaosVocabulary), and
 * new sites go at the end, so a sweep keeps generating the exact
 * plans it always has for a given seed. "*" and a never-matching
 * site are included deliberately: the sweep must also cover
 * everything-fails and nothing-fires plans.
 */
inline const std::vector<std::string> &
chaosSites()
{
    static const std::vector<std::string> sites = {
        // The prover; kProverChaos draws the first 12.
        "*",
        "msm.gzkp",
        "msm.gzkp.bucket",
        "msm.gzkp.preprocess",
        "msm.gzkp.kernel",
        "msm.serial",
        "msm.bellperson",
        "ntt.cpu",
        "groth16.poly.h",
        "msm",
        "ntt",
        "no.such.site",
        // The serving layer; kServiceChaos draws the first 17.
        "service.queue",
        "service.cache.build",
        "service.cache.table",
        "service.cache",
        "service",
        // Overload control (spurious sheds, a lying breaker);
        // kOverloadChaos draws the first 19.
        "service.shed",
        "service.breaker",
        // The multi-device scheduler; kDeviceChaos draws all 26.
        "device.fail",
        "device.mem",
        "device.slow",
        "device",
        "device.fail.v100.0",
        "device.slow.1080ti.0",
        "device.mem.cpu.0",
    };
    return sites;
}

/** What one chaos sweep's plans are drawn from; see randomChaosPlan(). */
struct ChaosVocabulary {
    std::uint64_t salt = 0; //!< arm draws; the plan's own seed: salt + 1
    std::size_t sites = 0;  //!< a prefix of chaosSites()
    /** Half the arms target one of these sites directly. */
    std::vector<std::string> bias = {};
    /**
     * Draw each arm's site before its kind, and give an arm on a
     * device site the kind its probes check (device.mem is an
     * allocation probe, fail/slow are launch probes), so biased arms
     * really fire.
     */
    bool kindFromSite = false;
};

/** The prover sweep (runChaosPlan). */
inline const ChaosVocabulary kProverChaos{.salt = 0xFA, .sites = 12};

/** The service sweep (runServiceChaosPlan, serviceChaosRequests). */
inline const ChaosVocabulary kServiceChaos{.salt = 0x5FA, .sites = 17};

/**
 * The overload sweep (runServiceChaosPlan single-lane over
 * overloadChaosRequests), biased toward the routing sites so it
 * spends most of its seeds on shed/breaker interference. Its salt
 * equals the prover sweep's.
 */
inline const ChaosVocabulary kOverloadChaos{
    .salt = 0x0FA,
    .sites = 19,
    .bias = {"service.shed", "service.breaker"},
};

/**
 * The fixed heterogeneous topology of the device chaos sweep: one
 * V100-geometry GPU, one 1080 Ti-geometry GPU, two single-thread CPU
 * workers -- instance names v100.0, 1080ti.0, cpu.0, cpu.1, which is
 * what the per-instance fault sites of chaosSites() target.
 */
inline constexpr const char *kDeviceChaosTopology =
    "v100:1,1080ti:1,cpu:2";

/**
 * The device sweep (the overload requests on kDeviceChaosTopology),
 * biased toward the per-device sites.
 */
inline const ChaosVocabulary kDeviceChaos{
    .salt = 0xDFA,
    .sites = 26,
    .bias = {"device.fail", "device.mem", "device.slow",
             "device.fail.v100.0", "device.slow.1080ti.0",
             "device.mem.cpu.0"},
    .kindFromSite = true,
};

/**
 * A seeded, reproducible fault plan over `v`: 0-3 arms with skewed
 * periods (small periods = hard plans) and a mix of limited
 * (transient) and unlimited (persistent) arms. Seed 0 mod 16 yields
 * the empty plan, so each sweep keeps covering the
 * probes-never-touch-data path too.
 */
inline faultsim::FaultPlan
randomChaosPlan(const ChaosVocabulary &v, std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, v.salt));
    faultsim::FaultPlan plan;
    plan.seed = deriveSeed(seed, v.salt + 1);
    if (seed % 16 == 0)
        return plan; // empty: probes must not perturb anything
    static const std::uint64_t periods[] = {1, 1, 2, 3, 5, 17, 64};
    static const std::uint64_t limits[] = {0, 0, 1, 1, 2, 5};
    const auto &sites = chaosSites();
    auto drawKind = [&] {
        return faultsim::FaultKind(rng() % faultsim::kFaultKindCount);
    };
    auto drawSite = [&] {
        if (!v.bias.empty() && rng() % 2 == 0)
            return v.bias[rng() % v.bias.size()];
        return sites[rng() % v.sites];
    };
    std::size_t arms = 1 + rng() % 3;
    for (std::size_t i = 0; i < arms; ++i) {
        faultsim::FaultArm arm;
        if (v.kindFromSite) {
            arm.site = drawSite();
            if (arm.site.rfind("device.mem", 0) == 0)
                arm.kind = faultsim::FaultKind::Alloc;
            else if (arm.site.rfind("device", 0) == 0)
                arm.kind = faultsim::FaultKind::Launch;
            else
                arm.kind = drawKind();
        } else {
            arm.kind = drawKind();
            arm.site = drawSite();
        }
        arm.period = periods[rng() % std::size(periods)];
        arm.limit = limits[rng() % std::size(limits)];
        plan.arms.push_back(arm);
    }
    return plan;
}

/** What one chaos run ended as. */
struct ChaosOutcome {
    bool proofOk = false;   //!< a proof was returned AND verifies
    /** The pipeline released a proof the verifier rejects: the one
        outcome the subsystem exists to make impossible. */
    bool releasedBadProof = false;
    Status status;          //!< the typed error otherwise
    zkp::SelfCheckingProver<zkp::Bn254Family>::Report report;

    /** The chaos invariant. */
    bool
    clean() const
    {
        if (releasedBadProof)
            return false;
        return proofOk ? status.isOk() : !status.isOk();
    }
};

/**
 * Run the self-checking prover once under `plan`. The returned
 * outcome always satisfies clean(); the caller additionally asserts
 * that proofOk implies independent pairing verification passed
 * (checked here, outside the prover's own self-check).
 */
inline ChaosOutcome
runChaosPlan(const faultsim::FaultPlan &plan, std::uint64_t seed)
{
    const ChaosFixture &fx = chaosFixture();
    ChaosOutcome out;

    faultsim::ScopedFaultPlan guard(plan);
    zkp::SelfCheckingProver<zkp::Bn254Family>::Options opt;
    opt.threads = 2;
    auto prover = zkp::makeBn254SelfCheckingProver(opt);

    Rng rng(deriveSeed(seed, 0xFC));
    auto r = prover.prove(fx.keys.pk, fx.keys.vk, fx.builder.cs(),
                          fx.builder.assignment(), rng, &out.report);
    if (r.isOk()) {
        // Independent acceptance check: the pipeline must never
        // release a proof the *verifier* (which carries no probes)
        // rejects. A failure here is the invariant violation the
        // whole subsystem exists to prevent.
        if (zkp::verifyBn254(fx.keys.vk, *r, fx.publicInputs)) {
            out.proofOk = true;
        } else {
            out.releasedBadProof = true;
            out.status = dataLossError(
                "chaos: pipeline released a non-verifying proof");
        }
    } else {
        out.status = r.status();
    }
    return out;
}

// ------------------------------------------------------ service chaos

/** One request of a service chaos run. */
struct ChaosRequest {
    std::uint64_t seed = 0; //!< seeds the proof's (r, s) draw
    std::uint64_t tenant = 0;
    int priority = 0;
    std::chrono::milliseconds timeout{0}; //!< 0 = no deadline
    /** Fault-free proof bytes for `seed`; empty = not compared. */
    std::string reference;
};

/** The service sweep's requests: four seeded single-tenant requests. */
inline std::vector<ChaosRequest>
serviceChaosRequests(std::uint64_t seed)
{
    std::vector<ChaosRequest> out(4);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].seed = deriveSeed(seed, 0xFC00 + i);
    return out;
}

/**
 * The overload and device sweeps' requests: six fixed seeds over
 * three tenants and two priorities, with mixed deadlines (none /
 * generous / hopeless) that rotate with the plan seed, each carrying
 * its fault-free reference proof. The references are proved once,
 * by the first call, which must come before any plan is installed.
 */
inline std::vector<ChaosRequest>
overloadChaosRequests(std::uint64_t seed)
{
    static const std::vector<std::string> refs = [] {
        const ChaosFixture &fx = chaosFixture();
        zkp::SelfCheckingProver<zkp::Bn254Family>::Options opt;
        opt.threads = 2;
        auto prover = zkp::makeBn254SelfCheckingProver(opt);
        std::vector<std::string> out;
        for (std::size_t i = 0; i < 6; ++i) {
            service::ProofRng rng(deriveSeed(0xB17E, i));
            auto r = prover.prove(fx.keys.pk, fx.keys.vk,
                                  fx.builder.cs(),
                                  fx.builder.assignment(), rng);
            out.push_back(
                zkp::serializeProof<zkp::Bn254Family>(*r));
        }
        return out;
    }();
    std::vector<ChaosRequest> out(refs.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        ChaosRequest &r = out[i];
        r.seed = deriveSeed(0xB17E, i);
        r.tenant = i % 3;
        r.priority = int(i % 2);
        switch ((seed + i) % 4) {
        case 1: r.timeout = std::chrono::milliseconds(5000); break;
        case 2: r.timeout = std::chrono::milliseconds(1); break;
        default: break; // no deadline
        }
        r.reference = refs[i];
    }
    return out;
}

/** What one service chaos run ended as, over all its requests. */
struct ServiceChaosOutcome {
    std::size_t proofsOk = 0;     //!< released AND independently verified
    std::size_t typedErrors = 0;  //!< completed with a non-OK Status
    std::size_t rejectedAtQueue = 0; //!< submit() itself rejected
    /** The one forbidden outcome (see ChaosOutcome). */
    bool releasedBadProof = false;
    /** A delivered proof whose bytes differ from its request's
        reference on a run where only routing sites could fire. */
    bool byteMismatch = false;

    /** The chaos invariant, lifted to the whole request set. */
    bool clean() const { return !releasedBadProof && !byteMismatch; }
};

/**
 * Run a ProofService end to end under `plan` with the full overload
 * stack live -- fair-share tenants weighted 0:4, 1:1, 2:1, deadline
 * admission and health tracking: register the chaos circuit, submit
 * `requests` (the queue holds exactly that many), drain synchronously,
 * and classify every result. The plan is live for the whole run, so
 * queue admission, the cache build under single-flight, the cached
 * tables and every proof attempt are in the blast radius. An empty
 * `topology` proves single-lane; otherwise every proof goes through
 * the device scheduler on that fleet (placement, per-device breakers
 * and inline stage retries all live).
 *
 * Released proofs are re-verified with the independent pairing
 * verifier, exactly as runChaosPlan() does. On plans whose arms touch
 * only routing sites -- shed/breaker/queue and every device.* site (a
 * failed stage is recomputed bit-identically on a re-placed device)
 * -- a delivered proof must also equal its request's reference bytes.
 */
inline ServiceChaosOutcome
runServiceChaosPlan(const faultsim::FaultPlan &plan,
                    const std::vector<ChaosRequest> &requests,
                    const std::string &topology = "")
{
    using Service = service::ProofService<zkp::Bn254Family>;
    const ChaosFixture &fx = chaosFixture();
    ServiceChaosOutcome out;

    bool routingOnly = true;
    for (const auto &arm : plan.arms) {
        bool routing = arm.site == "service.shed" ||
            arm.site == "service.breaker" ||
            arm.site == "service.queue" ||
            arm.site.rfind("device", 0) == 0;
        if (!routing)
            routingOnly = false;
    }

    faultsim::ScopedFaultPlan guard(plan);
    typename Service::Options opt;
    opt.threads = 2;
    opt.maxQueueDepth = requests.size();
    opt.cacheBytes = 64ull << 20;
    opt.deviceSpec = topology;
    opt.tenantWeights = {{0, 4}, {1, 1}, {2, 1}};
    auto svc = service::makeBn254ProofService(opt);
    auto cid = svc->registerCircuit(fx.keys.pk, fx.keys.vk,
                                    fx.builder.cs());

    struct Slot {
        std::future<typename Service::Result> fut;
        const ChaosRequest *req;
    };
    std::vector<Slot> slots;
    for (const ChaosRequest &c : requests) {
        typename Service::Request req;
        req.circuit = cid;
        req.witness = fx.builder.assignment();
        req.seed = c.seed;
        req.tenant = c.tenant;
        req.priority = c.priority;
        req.timeout = c.timeout;
        auto admitted = svc->submit(std::move(req));
        if (!admitted.isOk()) {
            ++out.rejectedAtQueue;
            continue;
        }
        slots.push_back(Slot{std::move(*admitted), &c});
    }
    svc->drain();

    for (Slot &s : slots) {
        typename Service::Result res = s.fut.get();
        if (res.status.isOk() && res.proof.has_value()) {
            if (zkp::verifyBn254(fx.keys.vk, *res.proof,
                                 fx.publicInputs)) {
                ++out.proofsOk;
                if (routingOnly && !s.req->reference.empty() &&
                    zkp::serializeProof<zkp::Bn254Family>(
                        *res.proof) != s.req->reference)
                    out.byteMismatch = true;
            } else {
                out.releasedBadProof = true;
            }
        } else if (!res.status.isOk()) {
            ++out.typedErrors;
        } else {
            // OK status without a proof is also a contract violation.
            out.releasedBadProof = true;
        }
    }
    return out;
}

} // namespace gzkp::testkit

#endif // GZKP_TESTKIT_CHAOS_HH
