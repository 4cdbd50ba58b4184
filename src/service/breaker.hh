/**
 * @file
 * The reusable sliding-window circuit breaker core.
 *
 * Extracted from BackendHealth (backend_health.hh) so the same state
 * machine guards any independently failing executor -- a prover
 * backend class, or one device of the multi-device scheduler
 * (src/device/health.hh). One breaker watches one failure domain:
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
 * SlidingBreaker is deliberately *not* synchronized: the registry
 * that owns a set of breakers (BackendHealth, DeviceHealth) holds
 * them under its own mutex, exactly as BackendHealth always did.
 */

#ifndef GZKP_SERVICE_BREAKER_HH
#define GZKP_SERVICE_BREAKER_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

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
     * One non-neutral attempt outcome and its latency: fold into the
     * window and run the state machine.
     */
    void
    record(bool ok, double seconds)
    {
        if (!ok)
            ++failures_;
        outcomes_.push_back(ok);
        latencies_.push_back(seconds);
        while (outcomes_.size() > opt_.window) {
            outcomes_.pop_front();
            latencies_.pop_front();
        }
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
                latencies_.clear();
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

    /** Would allow() admit right now (without consuming a denial)? */
    bool
    wouldAllow() const
    {
        return state_ != BreakerState::Open ||
            denials_ + 1 >= cooldownTarget_;
    }

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

    /** Exact quantile over the windowed latencies (0 when empty). */
    double
    latencyQuantile(double q) const
    {
        if (latencies_.empty())
            return 0;
        std::vector<double> sorted(latencies_.begin(), latencies_.end());
        std::sort(sorted.begin(), sorted.end());
        std::size_t idx = std::min(
            sorted.size() - 1,
            std::size_t(q * double(sorted.size() - 1) + 0.5));
        return sorted[idx];
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
    std::deque<double> latencies_;
    std::uint64_t attempts_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t opens_ = 0;
    std::uint64_t denials_ = 0;
    std::uint64_t cooldownTarget_ = 0;
    std::size_t probeOk_ = 0;
};

/**
 * Outcomes that do not indict the backend or device they ran on:
 * cooperative stops and caller bugs. Breaker owners count the attempt
 * but record only the other outcomes.
 */
inline bool
neutralStatus(StatusCode code)
{
    switch (code) {
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kInvalidArgument:
    case StatusCode::kFailedPrecondition:
        return true;
    default:
        return false;
    }
}

} // namespace gzkp::service

#endif // GZKP_SERVICE_BREAKER_HH
