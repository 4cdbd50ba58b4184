/**
 * @file
 * Deterministic fault injection for the prover pipeline.
 *
 * GZKP's real deployment target is a GPU running multi-second MSM/NTT
 * kernels, where soft memory errors, failed allocations, and failed
 * kernel launches are a matter of *when*, not *if*. This environment
 * has no GPU, but the recovery machinery (self-checking prover,
 * backend fallback, checkpoint/resume -- see zkp/prover_pipeline.hh)
 * must be testable anyway, so faults are simulated: instrumented
 * probes sit at the pipeline's natural hazard points and a process-
 * wide *fault plan* decides which probes fire.
 *
 * Fault taxonomy (one probe kind per hazard class):
 *  - Alloc:     a large device/host allocation fails (std::bad_alloc
 *               semantics via a StatusError kResourceExhausted).
 *  - BitFlip:   a field element suffers a single-bit soft error.
 *  - Bucket:    an MSM bucket accumulator is corrupted (the GPU
 *               analogue: a warp writes a stale partial sum).
 *  - Butterfly: one NTT stage output element is corrupted.
 *  - Launch:    a "kernel launch" fails (StatusError kUnavailable).
 *
 * Determinism: whether a probe fires is a pure function of
 * (plan seed, probe site, probe index, fault kind, epoch) -- never of
 * thread schedule -- so a fault plan replays exactly, even inside
 * parallel regions. The *epoch* is bumped by the recovery layer
 * between retry attempts, which is how a plan models transient
 * faults: an arm with `limit` set stops firing after `limit` fires,
 * and an arm without it refires every epoch (a persistent fault that
 * forces backend demotion).
 *
 * Plans come from code (ScopedFaultPlan in tests) or from the
 * GZKP_FAULTS environment variable:
 *
 *     GZKP_FAULTS="seed=7;bitflip@msm:50;launch@*:200#1"
 *
 * i.e. `kind@site:period[#limit]` arms separated by ';', where `site`
 * is a substring match against probe-site names ('*' = everywhere)
 * and a probe fires when hash(seed, site, kind, index, epoch) is 0
 * mod `period`. When no plan is installed every probe is a single
 * relaxed atomic load -- and with an *empty* plan installed, probes
 * never fire and never touch data, so proof bytes are identical to a
 * run without faultsim (asserted by tests/test_chaos.cc).
 *
 * Probe-site vocabulary (substring-matchable): the prover sites
 * (msm.gzkp[.bucket|.preprocess|.kernel], msm.serial, ntt.cpu,
 * groth16.poly.h; msm.bellperson fires only in the bellperson-like
 * paper baseline, which the prover ladder does not run) plus the
 * serving layer's --
 *  - service.queue:       admission enqueue/dispatch failures;
 *  - service.cache.build: artifact build allocation failures;
 *  - service.cache.table: post-build corruption of a cached table;
 *  - service.shed:        spurious admission shed (overload control
 *                         rejecting work it did not have to);
 *  - service.breaker:     lying health signal (a healthy backend is
 *                         spuriously denied by the circuit breaker).
 * The service.* sites perturb routing and admission only; they can
 * never corrupt a proof (asserted by the overload chaos sweep).
 *
 * Per-device sites (multi-device scheduler, src/device/): every
 * device instance carries three sites suffixed with its name, so a
 * plan can target one card out of a fleet ("device.fail" matches all
 * of them; "device.fail.v100.0" exactly one) --
 *  - device.fail.<name>: the placed stage fails at launch
 *                        (kUnavailable; retried on a re-placed
 *                        device, persistent firing quarantines the
 *                        device via its breaker);
 *  - device.mem.<name>:  the placed stage fails allocation
 *                        (kResourceExhausted; same recovery);
 *  - device.slow.<name>: the *modeled* duration of a placement at
 *                        which it fires is inflated -- a throttled or
 *                        contended card; never an error, and charged
 *                        to that placement only.
 * All device.* sites are routing/timing-only: retried stages
 * recompute identical bytes (asserted by the device chaos sweep).
 */

#ifndef GZKP_FAULTSIM_FAULTSIM_HH
#define GZKP_FAULTSIM_FAULTSIM_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "status/status.hh"

namespace gzkp::faultsim {

enum class FaultKind {
    Alloc = 0,
    BitFlip,
    Bucket,
    Butterfly,
    Launch,
};
inline constexpr std::size_t kFaultKindCount = 5;

const char *name(FaultKind kind);

/** Parse "alloc" / "bitflip" / "bucket" / "butterfly" / "launch". */
StatusOr<FaultKind> kindFromName(std::string_view s);

/** One injection rule of a plan. */
struct FaultArm {
    FaultKind kind = FaultKind::BitFlip;
    /** Substring matched against probe sites; "*" or "" = all. */
    std::string site = "*";
    /** Fire on ~1/period of matching probes (hash-selected). */
    std::uint64_t period = 1;
    /** Stop after this many fires; 0 = unlimited (persistent). */
    std::uint64_t limit = 0;
};

/** A seeded, reproducible set of injection rules. */
struct FaultPlan {
    std::uint64_t seed = 0;
    std::vector<FaultArm> arms;

    bool empty() const { return arms.empty(); }

    /** Round-trips through parse(). */
    std::string toString() const;

    /** Parse the GZKP_FAULTS syntax documented in the file comment. */
    static StatusOr<FaultPlan> parse(std::string_view spec);
};

/** Install a plan process-wide (replaces any existing plan). */
void installPlan(const FaultPlan &plan);

/** Remove the active plan; all probes become no-ops again. */
void clearPlan();

/** True when a non-empty plan is installed (the probe fast path). */
bool active();

/** The installed plan (empty plan when none). */
FaultPlan currentPlan();

/**
 * Parse GZKP_FAULTS and install it. OK (and a no-op) when the
 * variable is unset or empty; the parse error otherwise.
 */
Status installFromEnv();

/** Total probe fires since the plan was installed (diagnostics). */
std::uint64_t firedCount();

/**
 * The retry epoch, mixed into every fire decision. The recovery
 * layer bumps it between attempts so unlimited high-period arms
 * re-roll rather than replay; installPlan resets it to 0.
 */
void advanceEpoch();
std::uint64_t currentEpoch();

/** RAII plan installation for tests. */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(const FaultPlan &plan);
    /** Parses `spec`; throws StatusError on a malformed spec. */
    explicit ScopedFaultPlan(std::string_view spec);
    ~ScopedFaultPlan();

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;

  private:
    FaultPlan prev_;
    bool hadPrev_;
};

// ---------------------------------------------------------------- probes

/**
 * Core decision: does a probe of `kind` at (`site`, `index`) fire
 * under the installed plan? Also returns a per-fire salt stream for
 * choosing which bit/element to corrupt. False when no plan active.
 */
struct FireDecision {
    bool fire = false;
    std::uint64_t salt = 0;
};
FireDecision decide(FaultKind kind, const char *site,
                    std::uint64_t index);

inline bool
shouldFire(FaultKind kind, const char *site, std::uint64_t index)
{
    return decide(kind, site, index).fire;
}

/** Thrown by checkAlloc(); maps to kResourceExhausted. */
class InjectedAllocFailure : public StatusError
{
  public:
    explicit InjectedAllocFailure(const std::string &site)
        : StatusError(resourceExhaustedError(
              "injected allocation failure at " + site))
    {}
};

/** Thrown by checkLaunch(); maps to kUnavailable. */
class InjectedLaunchFailure : public StatusError
{
  public:
    explicit InjectedLaunchFailure(const std::string &site)
        : StatusError(unavailableError(
              "injected kernel-launch failure at " + site))
    {}
};

/** Allocation-site probe; throws InjectedAllocFailure on fire. */
inline void
checkAlloc(const char *site, std::uint64_t index)
{
    if (!active())
        return;
    if (shouldFire(FaultKind::Alloc, site, index))
        throw InjectedAllocFailure(site);
}

/** Kernel-launch-site probe; throws InjectedLaunchFailure on fire. */
inline void
checkLaunch(const char *site, std::uint64_t index)
{
    if (!active())
        return;
    if (shouldFire(FaultKind::Launch, site, index))
        throw InjectedLaunchFailure(site);
}

/**
 * The single-bit-flip corruption core: flips one raw Montgomery-
 * representation bit chosen by `salt`, then re-canonicalises below
 * the modulus so downstream arithmetic stays in-domain (the
 * corruption survives; only the representation invariant is
 * preserved).
 */
template <typename FpT>
void
flipBit(FpT &x, std::uint64_t salt)
{
    auto r = x.raw();
    std::size_t bit = std::size_t(salt % (FpT::kLimbs * 64));
    r.limbs[bit / 64] ^= std::uint64_t(1) << (bit % 64);
    while (!(r < FpT::modulus())) {
        typename FpT::Repr t;
        FpT::Repr::sub(r, FpT::modulus(), t);
        r = t;
    }
    if (r == x.raw())
        r = FpT::Repr::zero(); // flip cancelled by reduction: zero it
    x = FpT::fromRaw(r);
}

/**
 * Coarse-grained soft error over an array: one probe per call (so
 * hot loops pay a single hash, not one per element); on fire, the
 * salt picks the victim element and the flipped bit. The element
 * choice is deterministic in (site, index), not in thread schedule.
 */
template <typename FrT>
bool
maybeCorruptElement(FaultKind kind, FrT *data, std::size_t size,
                    const char *site, std::uint64_t index)
{
    if (!active() || size == 0)
        return false;
    FireDecision d = decide(kind, site, index);
    if (!d.fire)
        return false;
    flipBit(data[d.salt % size], d.salt / (size + 1));
    return true;
}

/**
 * Corrupt a Jacobian curve point: X is displaced by one, and an
 * identity (Z == 0) first gets Z = 1, so the result is never the
 * identity. X keeps moving until the point is off the curve (at most
 * three X values solve the curve equation for a fixed Y and Z).
 * Field-agnostic (works for Fp and Fp2 coordinates), so it serves as
 * the Bucket corruption primitive on points. Returns true if
 * corruption happened.
 */
template <typename PointT>
bool
maybeCorruptPoint(FaultKind kind, PointT &p, const char *site,
                  std::uint64_t index)
{
    if (!active())
        return false;
    if (!decide(kind, site, index).fire)
        return false;
    using Field = typename PointT::Field;
    if (p.Z.isZero())
        p.Z = Field::one();
    do
        p.X += Field::one();
    while (p.toAffine().onCurve());
    return true;
}

} // namespace gzkp::faultsim

#endif // GZKP_FAULTSIM_FAULTSIM_HH
