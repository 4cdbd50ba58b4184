/**
 * @file
 * Online per-circuit prove-cost model for deadline-aware admission.
 *
 * ZKProphet's latency analysis (PAPERS.md) argues the profitable
 * moment to reject work is *before* it is enqueued: a request whose
 * deadline cannot be met at the current queue depth costs a full
 * prove and still returns an error. The service therefore keeps an
 * online model of per-circuit prove cost: an EWMA of observed prove
 * seconds (cheap, smooth, recovers quickly when circuit cost
 * drifts). The device scheduler reuses the same estimator for its
 * per-(device, stage) cost ratios.
 *
 * With no samples yet the estimator is deliberately *optimistic*
 * (estimate 0): a cold service admits everything and learns from the
 * first completions, rather than shedding traffic it has never
 * measured. The estimator is not internally synchronized; the
 * service touches it only under its own mutex.
 */

#ifndef GZKP_SERVICE_ADMISSION_HH
#define GZKP_SERVICE_ADMISSION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gzkp::service {

class CostEstimator
{
  public:
    /** EWMA smoothing: est += kAlpha * (sample - est). */
    static constexpr double kAlpha = 0.3;

    /** Record one observed prove duration for `circuit`. */
    void
    record(std::size_t circuit, double seconds)
    {
        if (circuit >= per_.size())
            per_.resize(circuit + 1);
        Entry &e = per_[circuit];
        if (e.samples == 0)
            e.ewma = seconds;
        else
            e.ewma += kAlpha * (seconds - e.ewma);
        ++e.samples;
    }

    /** EWMA estimate of one prove; 0 when never observed. */
    double
    estimate(std::size_t circuit) const
    {
        if (circuit >= per_.size())
            return 0;
        return per_[circuit].ewma;
    }

    std::uint64_t
    samples(std::size_t circuit) const
    {
        return circuit < per_.size() ? per_[circuit].samples : 0;
    }

  private:
    struct Entry {
        double ewma = 0;
        std::uint64_t samples = 0;
    };

    std::vector<Entry> per_; //!< indexed by dense service circuit id
};

} // namespace gzkp::service

#endif // GZKP_SERVICE_ADMISSION_HH
