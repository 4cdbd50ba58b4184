/**
 * @file
 * Circuit breakers for independently failing executors, and the one
 * registry that holds them.
 *
 * GZKP's evaluation machines pair dissimilar accelerators, and ZK-Flex
 * (PAPERS.md) treats proving backends the same way: executors that
 * fail independently behind a scheduler. A BreakerRegistry holds one
 * SlidingBreaker per failure domain -- a rung of the prover's
 * GZKP -> serial ladder (ProofService shares one registry across all
 * requests, so demotion is learned service-wide), or one device of the
 * multi-device scheduler (a seeded `device.fail.v100.0` plan
 * quarantines exactly that card). One breaker:
 *
 *   Closed ── window failure rate >= threshold at >= minSamples ──> Open
 *   Open ──── cooldownTarget denied admissions ──> HalfOpen (probe)
 *   HalfOpen ── probeSuccesses consecutive ok ──> Closed
 *   HalfOpen ── probe failure ──> Open (fresh jittered cooldown)
 *
 * The cooldown is counted in *denied admissions*, not wall time, and
 * jittered by a seeded splitmix hash of the reopen count -- so a
 * breaker trace replays deterministically under a fixed admission
 * sequence, the same property the fault simulator has.
 *
 * SlidingBreaker is deliberately *not* synchronized. The registry
 * owns everything its two users share, under one mutex: allow() and
 * record(), the neutral-status filter (cooperative stops and caller
 * bugs never indict a domain), the counters the snapshots and device
 * gauges read, and admit() -- the never-strand rule both the prover
 * ladder and the device placement run: when every breaker denies,
 * every domain is admitted. Breakers shape latency and routing; they
 * never strand work.
 *
 * An optional fault site (the service's "service.breaker") makes
 * allow() spuriously deny a healthy domain: a lying health signal.
 * It only perturbs routing -- the chaos suite asserts the proof
 * invariant survives a malicious breaker.
 */

#ifndef GZKP_SERVICE_BREAKER_HH
#define GZKP_SERVICE_BREAKER_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "faultsim/faultsim.hh"
#include "status/status.hh"

namespace gzkp::service {

enum class BreakerState { Closed = 0, Open = 1, HalfOpen = 2 };

inline const char *
name(BreakerState s)
{
    switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
    }
    return "?";
}

/** Tunables of one breaker (shared by a whole registry). */
struct BreakerOptions {
    /** Sliding-window length (attempt outcomes per domain). */
    std::size_t window = 16;
    /** Never open below this many windowed samples. */
    std::size_t minSamples = 4;
    /** Open when windowed failure rate reaches this. */
    double failureThreshold = 0.5;
    /** Denied admissions before a half-open probe is admitted. */
    std::uint64_t cooldownDenials = 8;
    /** Seeded jitter added to the cooldown (0 = none). */
    std::uint64_t cooldownJitter = 4;
    /** Probe successes required to close from half-open. */
    std::size_t probeSuccesses = 1;
    /** Seed of the deterministic cooldown jitter. */
    std::uint64_t seed = 0x48EA17u;
};

class SlidingBreaker
{
  public:
    SlidingBreaker() = default;
    explicit SlidingBreaker(const BreakerOptions &opt) : opt_(opt) {}

    /**
     * Gate one admission. Closed and HalfOpen admit; Open denies
     * until the cooldown elapses, then flips to HalfOpen and admits
     * the probe. Mutates the denial counter -- callers serialize.
     */
    bool
    allow()
    {
        switch (state_) {
        case BreakerState::Closed:
            return true;
        case BreakerState::HalfOpen:
            return true;
        case BreakerState::Open:
            ++denials_;
            if (denials_ >= cooldownTarget_) {
                state_ = BreakerState::HalfOpen;
                probeOk_ = 0;
                return true; // the probe
            }
            return false;
        }
        return true;
    }

    /** Count a spurious external denial (an injected lying signal). */
    void countDenial() { ++denials_; }

    /** Count one attempt (callers filter neutral outcomes first). */
    void countAttempt() { ++attempts_; }

    /**
     * One non-neutral attempt outcome: fold into the window and run
     * the state machine.
     */
    void
    record(bool ok)
    {
        if (!ok)
            ++failures_;
        outcomes_.push_back(ok);
        while (outcomes_.size() > opt_.window)
            outcomes_.pop_front();
        switch (state_) {
        case BreakerState::Closed:
            if (outcomes_.size() >= opt_.minSamples &&
                failureRate() >= opt_.failureThreshold)
                open();
            break;
        case BreakerState::HalfOpen:
            if (!ok) {
                open(); // probe failed: back to open, new cooldown
            } else if (++probeOk_ >= opt_.probeSuccesses) {
                state_ = BreakerState::Closed;
                outcomes_.clear(); // forget the brown-out window
            }
            break;
        case BreakerState::Open:
            // An attempt admitted before the breaker opened can still
            // report here; fold it into the window.
            if (ok && outcomes_.size() >= opt_.minSamples &&
                failureRate() < opt_.failureThreshold) {
                state_ = BreakerState::Closed;
            }
            break;
        }
    }

    BreakerState state() const { return state_; }

    std::uint64_t attempts() const { return attempts_; }
    std::uint64_t failures() const { return failures_; }
    std::uint64_t opens() const { return opens_; }
    std::uint64_t denials() const { return denials_; }

    double
    failureRate() const
    {
        if (outcomes_.empty())
            return 0;
        std::size_t bad = 0;
        for (bool ok : outcomes_)
            bad += ok ? 0 : 1;
        return double(bad) / double(outcomes_.size());
    }

  private:
    /** Open (or re-open) with a seeded jittered cooldown. */
    void
    open()
    {
        state_ = BreakerState::Open;
        ++opens_;
        denials_ = 0;
        probeOk_ = 0;
        std::uint64_t jitter = 0;
        if (opt_.cooldownJitter != 0) {
            // splitmix-style hash of (seed, reopen count): the probe
            // re-admission point is deterministic per breaker life.
            std::uint64_t x = opt_.seed ^ (opens_ * 0x9E3779B97F4A7C15ull);
            x ^= x >> 30;
            x *= 0xBF58476D1CE4E5B9ull;
            x ^= x >> 27;
            jitter = x % (opt_.cooldownJitter + 1);
        }
        cooldownTarget_ = opt_.cooldownDenials + jitter;
    }

    BreakerOptions opt_;
    BreakerState state_ = BreakerState::Closed;
    std::deque<bool> outcomes_;
    std::uint64_t attempts_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t opens_ = 0;
    std::uint64_t denials_ = 0;
    std::uint64_t cooldownTarget_ = 0;
    std::size_t probeOk_ = 0;
};

/**
 * One SlidingBreaker per failure domain, numbered 0 .. domains-1 and
 * keyed by `Domain` (zkp::ProverBackend for the ladder, a device
 * index for the scheduler). Safe to call from many threads.
 */
template <typename Domain = std::size_t>
class BreakerRegistry
{
  public:
    /** One domain's counters. */
    struct DomainSnapshot {
        BreakerState state = BreakerState::Closed;
        std::uint64_t attempts = 0;
        std::uint64_t failures = 0;
        std::uint64_t opens = 0;      //!< times the breaker opened
        std::uint64_t denials = 0;    //!< denied since the last open
        double windowFailureRate = 0; //!< over the sliding window
    };

    struct Snapshot {
        /** One entry per domain (per backend, in ProofService). */
        std::vector<DomainSnapshot> backend;
        std::uint64_t totalOpens = 0;

        const DomainSnapshot &
        operator[](Domain d) const
        {
            return backend[std::size_t(d)];
        }
    };

    /** The domains admit() let through, in index order. */
    struct Admission {
        std::vector<Domain> domains;
        std::size_t denied = 0; //!< allow() refusals, fallback or not
    };

    /** `faultSite`, when set, is probed by every allow() (lying). */
    explicit BreakerRegistry(std::size_t domains,
                             const BreakerOptions &opt = BreakerOptions(),
                             const char *faultSite = nullptr)
        : b_(domains, SlidingBreaker(opt)), faultSite_(faultSite)
    {}

    /** Gate one admission onto `d` (see SlidingBreaker::allow). */
    bool
    allow(Domain d)
    {
        std::lock_guard<std::mutex> lk(mu_);
        return allowLocked(std::size_t(d));
    }

    /**
     * The never-strand rule: ask every domain once, in index order,
     * and admit those that allow. When every one denies, admit them
     * all -- each denial still counts toward its breaker's cooldown.
     */
    Admission
    admit()
    {
        std::lock_guard<std::mutex> lk(mu_);
        Admission a;
        for (std::size_t d = 0; d < b_.size(); ++d) {
            if (allowLocked(d))
                a.domains.push_back(Domain(d));
            else
                ++a.denied;
        }
        if (a.domains.empty())
            for (std::size_t d = 0; d < b_.size(); ++d)
                a.domains.push_back(Domain(d));
        return a;
    }

    /**
     * One attempt's outcome on `d`. Every attempt counts; only
     * outcomes that indict the domain reach its window: cooperative
     * stops and caller bugs are neutral.
     */
    void
    record(Domain d, const Status &status)
    {
        std::lock_guard<std::mutex> lk(mu_);
        SlidingBreaker &b = b_[std::size_t(d)];
        b.countAttempt();
        switch (status.code()) {
        case StatusCode::kCancelled:
        case StatusCode::kDeadlineExceeded:
        case StatusCode::kInvalidArgument:
        case StatusCode::kFailedPrecondition:
            return;
        default:
            b.record(status.isOk());
        }
    }

    BreakerState
    state(Domain d) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return b_[std::size_t(d)].state();
    }

    Snapshot
    snapshot() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        Snapshot s;
        for (const SlidingBreaker &b : b_) {
            s.backend.push_back({b.state(), b.attempts(), b.failures(),
                                 b.opens(), b.denials(),
                                 b.failureRate()});
            s.totalOpens += b.opens();
        }
        return s;
    }

  private:
    bool
    allowLocked(std::size_t d)
    {
        SlidingBreaker &b = b_[d];
        if (faultSite_ != nullptr && faultsim::active() &&
            faultsim::shouldFire(faultsim::FaultKind::Launch, faultSite_,
                                 allowSeq_++)) {
            b.countDenial();
            return false;
        }
        return b.allow();
    }

    mutable std::mutex mu_;
    std::vector<SlidingBreaker> b_;
    const char *faultSite_;
    std::uint64_t allowSeq_ = 0;
};

} // namespace gzkp::service

#endif // GZKP_SERVICE_BREAKER_HH
