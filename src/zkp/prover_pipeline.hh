/**
 * @file
 * The self-checking prover pipeline: Groth16 proving with fault
 * detection, bounded retry, and graceful backend degradation.
 *
 * The pipeline wraps Groth16::prove() with the recovery policy
 * described in DESIGN.md ("Fault model & recovery"):
 *
 *  1. every attempt checks its arguments, then runs under the
 *     caller's CancelToken (cooperative cancellation + deadline,
 *     polled between parallel chunks) with any exception mapped onto
 *     a typed Status;
 *  2. the returned proof is *self-checked* before it is released --
 *     cryptographically by the family's pairing verifier when one is
 *     configured (it rejects off-curve and out-of-subgroup points
 *     itself), else structurally (all three points on curve and in
 *     the prime-order subgroup: a bit-flip in a Jacobian coordinate
 *     almost never lands back on the curve). A proof that fails the
 *     check becomes a kDataLoss status and is never returned to the
 *     caller;
 *  3. retryable failures (kResourceExhausted, kUnavailable,
 *     kDataLoss, kInternal) are retried up to kMaxAttemptsPerBackend
 *     times; faultsim::advanceEpoch() runs between attempts so
 *     *transient* injected faults (limited arms, or arms whose hash
 *     misses in the next epoch) clear while *persistent* ones keep
 *     firing;
 *  4. when the GZKP MSM exhausts its attempts the pipeline demotes to
 *     serial Pippenger and starts over. Caller bugs
 *     (kInvalidArgument, kFailedPrecondition) and cooperative stops
 *     (kCancelled, kDeadlineExceeded) are never retried and never
 *     demoted: they return immediately.
 *
 * The terminal contract -- asserted by the chaos suite over hundreds
 * of seeded fault plans -- is that prove() always ends in exactly one
 * of two states: a proof that verifies, or a typed non-OK Status.
 * Never a bad proof, never a crash, never a hang.
 *
 * preprocessWithResume() applies the same retry policy to the MSM
 * engine's Algorithm-1 weighted-point preprocessing, resuming from
 * the last committed checkpoint block instead of recomputing the
 * whole table after a fault.
 */

#ifndef GZKP_ZKP_PROVER_PIPELINE_HH
#define GZKP_ZKP_PROVER_PIPELINE_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "faultsim/faultsim.hh"
#include "runtime/runtime.hh"
#include "service/breaker.hh"
#include "status/status.hh"
#include "zkp/groth16.hh"
#include "zkp/groth16_bn254.hh"

namespace gzkp::zkp {

/** The graceful-degradation chain, in ladder order. */
enum class ProverBackend { Gzkp = 0, Serial = 1 };

inline constexpr std::size_t kProverBackendCount = 2;

/** Attempts per backend before the ladder demotes. */
inline constexpr std::size_t kMaxAttemptsPerBackend = 2;

/** Attempts of each Algorithm-1 preprocessing (resumed on retry). */
inline constexpr std::size_t kPreprocessAttempts = 3;

inline const char *
name(ProverBackend b)
{
    switch (b) {
    case ProverBackend::Gzkp: return "gzkp";
    case ProverBackend::Serial: return "serial";
    }
    return "?";
}

/**
 * True when a status is worth retrying (a transient fault, a failed
 * self-check, an allocation failure). Caller bugs and cooperative
 * stops are final.
 */
inline bool
retryableStatus(StatusCode code)
{
    switch (code) {
    case StatusCode::kResourceExhausted: // alloc failure
    case StatusCode::kUnavailable:       // kernel-launch failure
    case StatusCode::kDataLoss:          // self-check caught corruption
    case StatusCode::kInternal:          // unclassified; retry is safe
        return true;
    default:
        return false;
    }
}

/**
 * Cross-request backend health: one breaker per ladder backend, shared
 * by every request of a service (ProofService builds it with the
 * "service.breaker" fault site). An open breaker makes the ladder skip
 * its backend outright, so a prove does not re-pay the attempts the
 * service already watched fail.
 */
using BackendBreakers = service::BreakerRegistry<ProverBackend>;

/**
 * Self-checking Groth16 prover with backend fallback.
 *
 * The verifier callback is the cryptographic self-check: for BN254
 * use makeBn254SelfCheckingProver() (pairing verification); for other
 * families leave it empty and the self-check is structural only
 * (on-curve + prime-subgroup), which already catches every
 * coordinate-level corruption. A verifier replaces the structural
 * check rather than following it, so it must reject a proof point
 * that is off its curve or outside the prime-order subgroup
 * (verifyBn254 does, before any pairing).
 */
template <typename Family>
class SelfCheckingProver
{
  public:
    using G = Groth16<Family>;
    using Fr = typename Family::Fr;
    using Proof = typename G::Proof;
    using ProvingKey = typename G::ProvingKey;
    using VerifyingKey = typename G::VerifyingKey;
    /** Must reject off-curve and out-of-subgroup proof points. */
    using Verifier = std::function<bool(
        const VerifyingKey &, const Proof &, const std::vector<Fr> &)>;

    struct Options {
        std::size_t threads = 0; //!< 0 = GZKP_THREADS default
        runtime::CancelToken *cancel = nullptr;
        /**
         * Cached per-circuit artifacts (serving layer). When both are
         * set, the GZKP backend proves over the cached tables/domain
         * instead of re-preprocessing -- byte-identical proofs, see
         * Groth16::proveWithArtifacts(). The serial tier ignores
         * them, so demotion still works when the cached tables are
         * themselves corrupted (they are then effectively a
         * persistent GZKP-tier fault). Both must outlive prove().
         */
        const typename G::MsmArtifacts *artifacts = nullptr;
        const ntt::Domain<Fr> *domain = nullptr;
        /**
         * Optional cross-request health (serving layer): backends
         * whose breaker denies are skipped, every attempt outcome is
         * recorded. Must outlive prove().
         */
        BackendBreakers *breakers = nullptr;
    };

    struct Attempt {
        ProverBackend backend = ProverBackend::Gzkp;
        Status status;
    };

    /** What happened, for logging and for the chaos assertions. */
    struct Report {
        std::vector<Attempt> attempts;
        ProverBackend backendUsed = ProverBackend::Gzkp;
        bool succeeded = false;
        std::size_t epochsAdvanced = 0;
        /** Breaker denials: backends skipped entirely. */
        std::size_t backendsSkipped = 0;
    };

    explicit SelfCheckingProver(Options opt = Options(),
                                Verifier verifier = Verifier())
        : opt_(opt), verifier_(std::move(verifier))
    {}

    /**
     * Prove with retry and fallback. Returns a proof that passed the
     * self-check, or the last typed error once every backend is
     * exhausted (non-retryable statuses return immediately).
     */
    template <typename Rng>
    StatusOr<Proof>
    prove(const ProvingKey &pk, const VerifyingKey &vk,
          const R1cs<Fr> &cs, const std::vector<Fr> &z, Rng &rng,
          Report *report = nullptr) const
    {
        Report local;
        Report &rep = report ? *report : local;
        rep = Report();

        // Install the token only when the caller supplied one, so an
        // ambient scope (e.g. a test harness deadline) is preserved.
        std::optional<runtime::CancelScope> scope;
        if (opt_.cancel)
            scope.emplace(opt_.cancel);

        // The demotion ladder, gated by the breakers: a backend whose
        // breaker is open is skipped outright -- the service has
        // already watched it fail across requests, so this prove does
        // not pay the attempts again.
        std::vector<ProverBackend> ladder{ProverBackend::Gzkp,
                                          ProverBackend::Serial};
        if (opt_.breakers) {
            auto admitted = opt_.breakers->admit();
            ladder = std::move(admitted.domains);
            rep.backendsSkipped = admitted.denied;
        }

        Status last =
            internalError("prover.pipeline: no attempt executed");
        for (ProverBackend backend : ladder) {
            for (std::size_t attempt = 0;
                 attempt < kMaxAttemptsPerBackend; ++attempt) {
                if (opt_.cancel) {
                    Status s = opt_.cancel->check();
                    if (!s.isOk()) {
                        rep.attempts.push_back({backend, s});
                        return s.withContext("prover.pipeline");
                    }
                }
                StatusOr<Proof> r = proveWith(backend, pk, cs, z, rng);
                Status s = r.isOk()
                    ? selfCheck("prover.selfcheck", verifier_, &vk, *r,
                                publicInputs(pk, z))
                    : r.status();
                if (opt_.breakers)
                    opt_.breakers->record(backend, s);
                rep.attempts.push_back({backend, s});
                if (s.isOk()) {
                    rep.backendUsed = backend;
                    rep.succeeded = true;
                    return std::move(*r);
                }
                last = s;
                if (!retryableStatus(s.code()))
                    return last.withContext("prover.pipeline");
                // A new fault epoch: transient injected faults clear,
                // persistent ones keep firing and force demotion.
                faultsim::advanceEpoch();
                ++rep.epochsAdvanced;
            }
        }
        return last.withContext(
            "prover.pipeline: all backends exhausted");
    }

    /**
     * The check a proof passes before release, here and in the device
     * scheduler: kDataLoss under `site` unless, given a verifier and a
     * key, the proof verifies against `pub`, or, without one (a
     * device Job's key is optional), every point is on its curve and
     * in the prime-order subgroup. The verifier makes those point
     * checks itself, so they run once per proof either way; they
     * catch coordinate-level corruption (a flipped bit in a Jacobian
     * coordinate maps to an affine point off the curve).
     */
    static Status
    selfCheck(const char *site, const Verifier &verifier,
              const VerifyingKey *vk, const Proof &p,
              const std::vector<Fr> &pub)
    {
        if (verifier && vk) {
            if (!verifier(*vk, p, pub))
                return dataLossError(std::string(site) +
                                     ": proof failed verification");
            return Status::ok();
        }
        if (!ec::inPrimeSubgroup(p.a) || !ec::inPrimeSubgroup(p.b) ||
            !ec::inPrimeSubgroup(p.c))
            return dataLossError(std::string(site) +
                                 ": proof point off curve or outside "
                                 "prime-order subgroup");
        return Status::ok();
    }

    /** The public inputs x (without the leading 1) sliced from z. */
    static std::vector<Fr>
    publicInputs(const ProvingKey &pk, const std::vector<Fr> &z)
    {
        if (z.size() < pk.numPublic + 1)
            return {};
        return std::vector<Fr>(z.begin() + 1,
                               z.begin() + 1 + pk.numPublic);
    }

  private:
    /**
     * One attempt on `backend`. Caller bugs fail typed before any
     * work: kFailedPrecondition for a malformed key or for cached
     * artifacts that do not match it, kInvalidArgument for a wrong
     * witness. Anything the prover throws -- an injected fault, an
     * allocation failure, a cooperative stop -- becomes a Status.
     */
    template <typename Rng>
    StatusOr<Proof>
    proveWith(ProverBackend backend, const ProvingKey &pk,
              const R1cs<Fr> &cs, const std::vector<Fr> &z,
              Rng &rng) const
    {
        bool cached = backend == ProverBackend::Gzkp && opt_.artifacts &&
            opt_.domain;
        if (pk.numVars == 0 || pk.aQuery.size() != pk.numVars)
            return failedPreconditionError(
                "groth16.prove: malformed proving key");
        if (cached && (!opt_.artifacts->matches(pk) ||
                       opt_.domain->logSize() != pk.domainLog))
            return failedPreconditionError(
                "groth16.prove: artifacts do not match proving key");
        if (z.size() != pk.numVars)
            return invalidArgumentError(
                "groth16.prove: witness size " +
                std::to_string(z.size()) + " != numVars " +
                std::to_string(pk.numVars));
        if (!z.empty() && z[0] != Fr::one())
            return invalidArgumentError(
                "groth16.prove: witness z[0] must be 1");
        return statusGuard("groth16.prove", [&] {
            if (cached)
                return G::proveWithArtifacts(
                    pk, cs, z, rng, *opt_.artifacts, *opt_.domain,
                    nullptr, CpuNttEngine<Fr>(), opt_.threads);
            if (backend == ProverBackend::Gzkp)
                return G::template prove<GzkpMsmPolicy>(
                    pk, cs, z, rng, nullptr, CpuNttEngine<Fr>(),
                    opt_.threads);
            return G::template prove<SerialMsmPolicy>(
                pk, cs, z, rng, nullptr, CpuNttEngine<Fr>(),
                opt_.threads);
        });
    }

    Options opt_;
    Verifier verifier_;
};

/**
 * The BN254 pipeline with the real pairing verifier as the
 * cryptographic self-check.
 */
inline SelfCheckingProver<Bn254Family>
makeBn254SelfCheckingProver(
    typename SelfCheckingProver<Bn254Family>::Options opt = {})
{
    return SelfCheckingProver<Bn254Family>(opt, verifyBn254);
}

/**
 * Retry Algorithm-1 weighted-point preprocessing with checkpoint
 * resume: completed blocks survive a fault, so attempt k+1 restarts
 * from the block the fault interrupted instead of from scratch. Same
 * retry classification as the prover pipeline.
 */
template <typename Cfg>
StatusOr<typename msm::GzkpMsm<Cfg>::Preprocessed>
preprocessWithResume(const msm::GzkpMsm<Cfg> &engine,
                     const std::vector<ec::AffinePoint<Cfg>> &points,
                     std::size_t max_attempts = kPreprocessAttempts,
                     std::size_t *attempts_used = nullptr)
{
    typename msm::GzkpMsm<Cfg>::PreprocessProgress progress;
    Status last = internalError("msm.preprocess: no attempt executed");
    for (std::size_t a = 0; a < max_attempts; ++a) {
        if (attempts_used)
            *attempts_used = a + 1;
        auto r = statusGuard("msm.preprocess", [&] {
            return engine.preprocessResumable(points, progress);
        });
        if (r.isOk())
            return std::move(*r);
        last = r.status();
        if (!retryableStatus(last.code()))
            return last;
        faultsim::advanceEpoch();
    }
    return last.withContext("msm.preprocess: attempts exhausted");
}

/**
 * Build the full per-circuit artifact set (all five Algorithm-1
 * tables) with checkpoint/resume on every query. This is the builder
 * the serving layer's ArtifactCache runs under single-flight: one
 * faulted query block costs a resumed retry, not the whole set.
 */
template <typename Family>
StatusOr<typename Groth16<Family>::MsmArtifacts>
buildMsmArtifacts(const typename Groth16<Family>::ProvingKey &pk,
                  std::size_t threads = 0)
{
    using G1Cfg = typename Family::G1Cfg;
    using G2Cfg = typename Family::G2Cfg;
    typename msm::GzkpMsm<G1Cfg>::Options o1;
    o1.threads = threads;
    typename msm::GzkpMsm<G2Cfg>::Options o2;
    o2.threads = threads;
    msm::GzkpMsm<G1Cfg> e1(o1);
    msm::GzkpMsm<G2Cfg> e2(o2);
    typename Groth16<Family>::MsmArtifacts art;
    GZKP_ASSIGN_OR_RETURN(art.a, preprocessWithResume(e1, pk.aQuery));
    GZKP_ASSIGN_OR_RETURN(art.b2, preprocessWithResume(e2, pk.b2Query));
    GZKP_ASSIGN_OR_RETURN(art.b1, preprocessWithResume(e1, pk.b1Query));
    GZKP_ASSIGN_OR_RETURN(art.l, preprocessWithResume(e1, pk.lQuery));
    GZKP_ASSIGN_OR_RETURN(art.h, preprocessWithResume(e1, pk.hQuery));
    return art;
}

} // namespace gzkp::zkp

#endif // GZKP_ZKP_PROVER_PIPELINE_HH
