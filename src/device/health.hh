/**
 * @file
 * Per-device health registry: one circuit breaker per failure domain.
 *
 * Reuses the SlidingBreaker core extracted from BackendHealth
 * (src/service/breaker.hh), but keyed by *device instance* rather
 * than backend class: a seeded `device.fail.v100.0` plan opens the
 * breaker of exactly that card, the placement loop stops offering it
 * work, and the rest of the fleet keeps serving. After the
 * deterministic denial-counted cooldown the breaker half-opens and
 * the next placement probes the device again.
 *
 * Same neutrality rule as the backend registry
 * (service::neutralStatus): cooperative stops and caller bugs never
 * indict the device.
 */

#ifndef GZKP_DEVICE_HEALTH_HH
#define GZKP_DEVICE_HEALTH_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "service/breaker.hh"
#include "status/status.hh"

namespace gzkp::device {

class DeviceHealth
{
  public:
    explicit DeviceHealth(std::size_t devices)
        : b_(devices, service::SlidingBreaker(service::BreakerOptions()))
    {}

    /** Gate one stage placement onto device `d` (consumes a denial
     * while open; the flip to half-open admits the probe). */
    bool
    allow(std::size_t d)
    {
        std::lock_guard<std::mutex> lk(mu_);
        return b_[d].allow();
    }

    /** One stage outcome on device `d`. `seconds` is the *modeled*
     * stage time (wall clock never reaches placement). */
    void
    record(std::size_t d, const Status &status, double seconds)
    {
        std::lock_guard<std::mutex> lk(mu_);
        service::SlidingBreaker &b = b_[d];
        b.countAttempt();
        if (service::neutralStatus(status.code()))
            return;
        b.record(status.isOk(), seconds);
    }

    service::BreakerState
    state(std::size_t d) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return b_[d].state();
    }

    /** Devices allow() would currently admit. */
    std::size_t
    allowedCount() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::size_t n = 0;
        for (const service::SlidingBreaker &b : b_)
            if (b.wouldAllow())
                ++n;
        return n;
    }

    bool
    wouldAllow(std::size_t d) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return b_[d].wouldAllow();
    }

    std::uint64_t
    opens(std::size_t d) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return b_[d].opens();
    }

    std::uint64_t
    failures(std::size_t d) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return b_[d].failures();
    }

  private:
    mutable std::mutex mu_;
    std::vector<service::SlidingBreaker> b_;
};

} // namespace gzkp::device

#endif // GZKP_DEVICE_HEALTH_HH
