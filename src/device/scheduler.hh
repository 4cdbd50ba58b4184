/**
 * @file
 * The per-stage placement scheduler: proof execution across a
 * heterogeneous device fleet.
 *
 * One proof is two schedulable stages (cost_model.hh): POLY (seven
 * NTTs) and MSM (five MSMs). prove() first places *both* stages onto
 * devices, against per-device virtual clocks:
 *
 *   finish(stage, d) = max(busyUntil[d], depReady(stage)) + est(d)
 *
 * where depReady of a job's MSM is its POLY's planned finish. The
 * stage goes to the admitted device with the earliest planned finish
 * (ties to the lower device index), so for a fixed call order the
 * planned schedule is a pure function of the topology, the estimates
 * and the fault plan. Because the MSM of proof k and the POLY of
 * proof k+1 land on different devices whenever that finishes
 * earlier, the pipeline overlap the paper gets from streaming proofs
 * through a GPU shows up in the modeled makespan from the placement
 * rule alone -- no special-case code.
 *
 * Estimates are the gpusim roofline seed (CostModel). A placement at
 * which `device.slow` fires for a candidate charges that candidate
 * kSlowFactor x its seed there, and at no other placement.
 *
 * Execution: prove() then runs both stages in the calling thread,
 * POLY before MSM. Functional execution is the byte-exact staged
 * Groth16 helpers (polyStage / msmStage / assembleProof), so the
 * delivered proof is a pure function of (circuit, witness, seed) --
 * never of the placement, the topology, or any routing/timing fault.
 * A device selects a stage's fault sites, breaker and thread budget;
 * the math is device-independent. Stage failures (device.fail /
 * device.mem, or a real fault) are retried inline on a re-placed
 * device with a fresh fault epoch, bounded by kMaxStageAttempts; each
 * device is a failure domain with its own breaker
 * (service/breaker.hh), so a persistently failing card is quarantined
 * while the rest keep serving.
 */

#ifndef GZKP_DEVICE_SCHEDULER_HH
#define GZKP_DEVICE_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "device/cost_model.hh"
#include "device/device.hh"
#include "ec/point.hh"
#include "faultsim/faultsim.hh"
#include "ntt/domain.hh"
#include "runtime/runtime.hh"
#include "service/breaker.hh"
#include "status/status.hh"
#include "zkp/groth16.hh"
#include "zkp/prover_pipeline.hh"

namespace gzkp::device {

/** Modeled-time inflation of a stage hit by `device.slow`. */
inline constexpr double kSlowFactor = 8.0;

/** Total placements of one stage (first try + retries). */
inline constexpr std::size_t kMaxStageAttempts = 3;

/**
 * One device's observable state (ProofService::stats() re-exports
 * these as the per-device gauges). Deliberately not a template.
 */
struct DeviceGauges {
    std::string name;
    DeviceKind kind = DeviceKind::CpuWorker;
    std::uint64_t polyCompleted = 0;
    std::uint64_t msmCompleted = 0;
    std::uint64_t failures = 0;     //!< non-neutral stage failures
    std::uint64_t quarantines = 0;  //!< breaker opens
    std::uint64_t slowHits = 0;     //!< device.slow inflations
    double modeledBusySeconds = 0;  //!< sum of placed stage estimates
    service::BreakerState breaker = service::BreakerState::Closed;

    friend bool operator==(const DeviceGauges &,
                           const DeviceGauges &) = default;
};

template <typename Family>
class StageScheduler
{
  public:
    using G16 = zkp::Groth16<Family>;
    using Fr = typename Family::Fr;
    using Proof = typename G16::Proof;
    using ProvingKey = typename G16::ProvingKey;
    using VerifyingKey = typename G16::VerifyingKey;
    using MsmArtifacts = typename G16::MsmArtifacts;
    using Prover = zkp::SelfCheckingProver<Family>;
    using Verifier = typename Prover::Verifier;

    struct Options {
        std::vector<DeviceSpec> devices;
    };

    /**
     * One proof job. Pointer fields are borrowed for the prove() call
     * (the cancel token included).
     */
    struct Job {
        const ProvingKey *pk = nullptr;
        const VerifyingKey *vk = nullptr; //!< optional (self-check)
        const zkp::R1cs<Fr> *cs = nullptr;
        std::vector<Fr> witness;
        std::uint64_t seed = 0; //!< seeds the (r, s) draw
        /** Optional warm path: Algorithm-1 tables + twiddle domain. */
        const MsmArtifacts *artifacts = nullptr;
        const ntt::Domain<Fr> *domain = nullptr;
        runtime::CancelToken *cancel = nullptr;
    };

    struct Result {
        Status status;
        std::optional<Proof> proof;
        int polyDevice = -1; //!< index into Options::devices
        int msmDevice = -1;
        std::size_t stageRetries = 0;
    };

    struct Stats {
        std::vector<DeviceGauges> devices;
        double modeledMakespan = 0; //!< max planned device finish
        std::uint64_t submitted = 0; //!< jobs placed
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t stageRetries = 0;
    };

    explicit StageScheduler(Options opt,
                            Verifier verifier = Verifier())
        : opt_(std::move(opt)), verifier_(std::move(verifier)),
          health_(opt_.devices.size()),
          dev_(opt_.devices.size())
    {
        if (opt_.devices.empty())
            throw std::invalid_argument(
                "StageScheduler: empty device topology");
    }

    StageScheduler(const StageScheduler &) = delete;
    StageScheduler &operator=(const StageScheduler &) = delete;

    /**
     * Place both stages, then run them in the calling thread: POLY,
     * the (r, s) draw, MSM, assemble and self-check. A job without a
     * key or circuit, with a witness of the wrong size, or with
     * artifacts but no twiddle domain is kInvalidArgument.
     */
    Result
    prove(Job job)
    {
        Result res;
        if (job.pk == nullptr || job.cs == nullptr) {
            res.status = invalidArgumentError(
                "device.prove: job without proving key or circuit");
            return res;
        }
        if (job.witness.size() != job.pk->numVars) {
            res.status = invalidArgumentError(
                "device.prove: witness size " +
                std::to_string(job.witness.size()) + " != numVars " +
                std::to_string(job.pk->numVars));
            return res;
        }
        if (job.artifacts != nullptr && job.domain == nullptr) {
            res.status = invalidArgumentError(
                "device.prove: artifacts without a twiddle domain");
            return res;
        }

        const ProofShape shape = CostModel<Family>::shapeOf(*job.pk);
        std::uint64_t polySeq = 0, msmSeq = 0;
        {
            // Place POLY, then MSM with the POLY finish as its
            // dependency release time, under one lock hold: the
            // planned schedule is a function of the call order alone.
            std::lock_guard<std::mutex> lk(mu_);
            Placement poly = placeLocked(StageKind::Poly, shape, 0.0,
                                         /*avoid=*/-1);
            Placement msm = placeLocked(StageKind::Msm, shape,
                                        poly.finish, /*avoid=*/-1);
            polySeq = commitLocked(poly);
            msmSeq = commitLocked(msm);
            res.polyDevice = int(poly.device);
            res.msmDevice = int(msm.device);
            ++submitted_;
        }

        std::vector<Fr> h;
        Fr r, s;
        res.status = runStage(
            StageKind::Poly, job, shape, polySeq, res,
            [&](const DeviceSpec &) {
                if (job.domain != nullptr) {
                    h = G16::polyStage(*job.pk, *job.cs, job.witness,
                                       *job.domain);
                } else {
                    ntt::Domain<Fr> dom(job.pk->domainLog);
                    h = G16::polyStage(*job.pk, *job.cs, job.witness,
                                       dom);
                }
                // (r, s) come from the request rng, which feeds
                // nothing else -- drawing them here matches the
                // single-lane prove() stream draw for draw.
                std::mt19937_64 rng(job.seed);
                r = Fr::random(rng);
                s = Fr::random(rng);
            });
        if (res.status.isOk())
            res.status = runStage(
                StageKind::Msm, job, shape, msmSeq, res,
                [&](const DeviceSpec &spec) {
                    typename G16::MsmOutputs m = job.artifacts != nullptr
                        ? G16::msmStageWithArtifacts(
                              *job.pk, *job.artifacts, job.witness, h,
                              spec.threads)
                        : G16::template msmStage<zkp::GzkpMsmPolicy>(
                              *job.pk, job.witness, h, spec.threads);
                    Proof p = G16::assembleProof(*job.pk, m, r, s);
                    Status chk = Prover::selfCheck(
                        "device.selfcheck", verifier_, job.vk, p,
                        Prover::publicInputs(*job.pk, job.witness));
                    if (!chk.isOk())
                        throw StatusError(chk);
                    res.proof = std::move(p);
                });

        std::lock_guard<std::mutex> lk(mu_);
        if (res.status.isOk())
            ++completed_;
        else
            ++failed_;
        return res;
    }

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        Stats s;
        s.modeledMakespan = makespan_;
        s.submitted = submitted_;
        s.completed = completed_;
        s.failed = failed_;
        s.stageRetries = stageRetries_;
        s.devices.reserve(dev_.size());
        auto breakers = health_.snapshot();
        for (std::size_t d = 0; d < dev_.size(); ++d) {
            DeviceGauges g = dev_[d].gauges;
            g.name = opt_.devices[d].name;
            g.kind = opt_.devices[d].kind;
            g.breaker = breakers[d].state;
            g.quarantines = breakers[d].opens;
            g.failures = breakers[d].failures;
            s.devices.push_back(std::move(g));
        }
        return s;
    }

  private:
    struct PerDevice {
        double busyUntil = 0; //!< virtual clock (planned schedule)
        DeviceGauges gauges;  //!< counters only; identity filled late
    };

    struct Placement {
        std::size_t device = 0;
        double finish = 0;
        double estimate = 0;
        bool slow = false;
    };

    /**
     * Choose the device with the earliest planned finish among those
     * the breakers admit (all devices when every breaker denies --
     * never strand a job). Consumes breaker denials, which is what
     * drives an open breaker's cooldown toward its half-open probe.
     */
    Placement
    placeLocked(StageKind stage, const ProofShape &shape,
                double depReady, int avoid)
    {
        std::vector<std::size_t> admitted = health_.admit().domains;
        if (avoid >= 0 && admitted.size() > 1) {
            for (auto it = admitted.begin(); it != admitted.end(); ++it)
                if (*it == std::size_t(avoid)) {
                    admitted.erase(it);
                    break;
                }
        }
        Placement best;
        bool first = true;
        for (std::size_t d : admitted) {
            double est = CostModel<Family>::seedSeconds(
                stage, shape, opt_.devices[d]);
            // The throttled-card fault: decided at placement time from
            // the seeded plan, so the planned schedule sees the
            // slowdown at this placement only. Timing-only.
            bool slow = faultsim::active() &&
                faultsim::shouldFire(faultsim::FaultKind::Launch,
                                     opt_.devices[d].slowSite.c_str(),
                                     placeSeq_);
            double eff = slow ? est * kSlowFactor : est;
            double finish = std::max(dev_[d].busyUntil, depReady) + eff;
            if (first || finish < best.finish) {
                first = false;
                best.device = d;
                best.finish = finish;
                best.estimate = eff;
                best.slow = slow;
            }
        }
        ++placeSeq_;
        return best;
    }

    /**
     * Advance the chosen device's virtual clock. Returns the stage's
     * fault-probe index.
     */
    std::uint64_t
    commitLocked(const Placement &p)
    {
        PerDevice &pd = dev_[p.device];
        pd.busyUntil = p.finish;
        pd.gauges.modeledBusySeconds += p.estimate;
        if (p.slow)
            ++pd.gauges.slowHits;
        makespan_ = std::max(makespan_, p.finish);
        return execSeq_++;
    }

    /**
     * Run one placed stage in the calling thread with inline bounded
     * retries: a retryable failure re-places the stage (preferring a
     * different device) under a fresh fault epoch. The stage's device
     * field of `res` holds the placement on entry and the device of
     * the last attempt on return.
     */
    template <typename Body>
    Status
    runStage(StageKind kind, const Job &job, const ProofShape &shape,
             std::uint64_t execSeq, Result &res, const Body &body)
    {
        const char *stageName =
            kind == StageKind::Poly ? "device.poly" : "device.msm";
        int &dev = kind == StageKind::Poly ? res.polyDevice
                                           : res.msmDevice;
        for (std::size_t attempt = 1;; ++attempt) {
            const DeviceSpec &spec = opt_.devices[std::size_t(dev)];
            Status st = statusGuardVoid(stageName, [&] {
                std::optional<runtime::CancelScope> scope;
                if (job.cancel != nullptr)
                    scope.emplace(job.cancel);
                faultsim::checkLaunch(spec.failSite.c_str(), execSeq);
                faultsim::checkAlloc(spec.memSite.c_str(), execSeq);
                if (job.cancel != nullptr)
                    job.cancel->throwIfStopped();
                body(spec);
            });
            health_.record(std::size_t(dev), st);
            if (st.isOk()) {
                std::lock_guard<std::mutex> lk(mu_);
                DeviceGauges &g = dev_[std::size_t(dev)].gauges;
                ++(kind == StageKind::Poly ? g.polyCompleted
                                           : g.msmCompleted);
                return st;
            }
            if (!zkp::retryableStatus(st.code()) ||
                attempt >= kMaxStageAttempts)
                return st.withContext(std::string(stageName) + "[" +
                                      spec.name + "]");
            // Transient injected faults clear on a new epoch;
            // persistent ones keep firing and push the stage off the
            // device as its breaker accumulates failures.
            faultsim::advanceEpoch();
            std::lock_guard<std::mutex> lk(mu_);
            ++stageRetries_;
            ++res.stageRetries;
            Placement p = placeLocked(kind, shape,
                                      dev_[std::size_t(dev)].busyUntil,
                                      dev);
            dev = int(p.device);
            execSeq = commitLocked(p);
        }
    }

    Options opt_;
    Verifier verifier_;
    service::BreakerRegistry<> health_;

    mutable std::mutex mu_;
    std::vector<PerDevice> dev_;
    double makespan_ = 0;
    std::uint64_t placeSeq_ = 0;
    std::uint64_t execSeq_ = 0;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t stageRetries_ = 0;
};

} // namespace gzkp::device

#endif // GZKP_DEVICE_SCHEDULER_HH
