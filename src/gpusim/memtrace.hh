/**
 * @file
 * Warp-level global-memory coalescing model.
 *
 * The heart of the paper's POLY-stage argument (Sections 2.2 and 3)
 * is L2 cache-line utilisation: a warp access that touches many
 * distinct 32-byte L2 lines while using few bytes of each wastes
 * bandwidth, which is why prior systems shuffle data between NTT
 * batches and why GZKP's block-style internal shuffle wins without
 * shuffling.
 *
 * MemTrace receives every warp-level global access a kernel performs
 * (byte address + size per lane) and accumulates the number of
 * distinct lines touched versus bytes actually used. NTT access
 * patterns are data-independent, so variants can replay their real
 * access streams at full fidelity without doing field arithmetic.
 */

#ifndef GZKP_GPUSIM_MEMTRACE_HH
#define GZKP_GPUSIM_MEMTRACE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace gzkp::gpusim {

/** Aggregated global-memory transaction statistics for one kernel. */
class MemTrace
{
  public:
    explicit MemTrace(std::size_t line_bytes = 32)
        : lineBytes_(line_bytes)
    {}

    /**
     * Record one warp-wide access: each entry of `addrs` is the byte
     * address one lane reads/writes, each lane moving `bytes_each`
     * useful bytes. Distinct lines are counted per warp transaction,
     * mirroring how the hardware replays a transaction per line.
     */
    void
    warpAccess(const std::vector<std::uint64_t> &addrs,
               std::size_t bytes_each)
    {
        scratch_.clear();
        for (std::uint64_t a : addrs) {
            // An access may straddle lines; count every line touched.
            std::uint64_t first = a / lineBytes_;
            std::uint64_t last = (a + bytes_each - 1) / lineBytes_;
            for (std::uint64_t l = first; l <= last; ++l)
                scratch_.push_back(l);
        }
        std::sort(scratch_.begin(), scratch_.end());
        scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                       scratch_.end());
        linesTouched_ += scratch_.size();
        usefulBytes_ += addrs.size() * bytes_each;
        ++warpTransactions_;
    }

    std::uint64_t linesTouched() const { return linesTouched_; }
    std::uint64_t bytesMoved() const { return linesTouched_ * lineBytes_; }
    std::uint64_t usefulBytes() const { return usefulBytes_; }
    std::uint64_t warpTransactions() const { return warpTransactions_; }

    /** Fraction of moved bytes that were actually requested. */
    double
    utilization() const
    {
        if (linesTouched_ == 0)
            return 1.0;
        return double(usefulBytes_) / double(bytesMoved());
    }

    void
    merge(const MemTrace &o)
    {
        linesTouched_ += o.linesTouched_;
        usefulBytes_ += o.usefulBytes_;
        warpTransactions_ += o.warpTransactions_;
    }

    void
    reset()
    {
        linesTouched_ = 0;
        usefulBytes_ = 0;
        warpTransactions_ = 0;
    }

  private:
    std::size_t lineBytes_;
    std::uint64_t linesTouched_ = 0;
    std::uint64_t usefulBytes_ = 0;
    std::uint64_t warpTransactions_ = 0;
    std::vector<std::uint64_t> scratch_;
};

} // namespace gzkp::gpusim

#endif // GZKP_GPUSIM_MEMTRACE_HH
