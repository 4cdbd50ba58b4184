/**
 * @file
 * Roofline performance model for modeled GPU (and baseline CPU)
 * execution times.
 *
 * Kernels in the ntt/ and msm/ modules execute functionally on the
 * host and report KernelStats: how many field multiplications and
 * additions they performed, how many global-memory lines their warp
 * accesses touched (via MemTrace), how full their warps were, and how
 * balanced their blocks were. PerfModel converts those counts to
 * seconds with a classic roofline:
 *
 *     t = max(compute, memory) + launch + dispatch + host + PCIe
 *
 * Per-op costs are first-principles MAC counts for CIOS Montgomery
 * multiplication, with a single pipeline-efficiency scalar calibrated
 * once (see EXPERIMENTS.md "model calibration"); all *relative*
 * results -- who wins, by what factor, where crossovers fall -- come
 * from the counted quantities, not from tuning.
 */

#ifndef GZKP_GPUSIM_PERF_MODEL_HH
#define GZKP_GPUSIM_PERF_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device.hh"

namespace gzkp::gpusim {

/** Which finite-field backend a kernel is modeled with (S4.3). */
enum class Backend {
    IntOnly, //!< 32-bit integer MAC pipeline only
    FpuLib,  //!< optimized library: DP units assist (Dekker 2^52)
};

/** Everything a kernel reports for time modeling. */
struct KernelStats {
    std::size_t limbs = 4;            //!< field width in 64-bit limbs
    double fieldMuls = 0;             //!< modular multiplications
    double fieldAdds = 0;             //!< modular additions/subs
    double fieldInvs = 0;             //!< modular inversions (Fermat)
    std::uint64_t linesTouched = 0;   //!< global L2 lines moved
    std::uint64_t usefulBytes = 0;    //!< bytes actually requested
    double idleLaneFactor = 1.0;      //!< avg useful fraction of warp
    double loadImbalanceFactor = 1.0; //!< max/mean SM load (>= 1)
    std::uint64_t numBlocks = 0;
    std::uint64_t numLaunches = 1;
    double hostSeconds = 0;           //!< serial host-side portion
    double pcieBytes = 0;             //!< host <-> device traffic

    /**
     * How much of the FP-library's ideal gain this kernel realises:
     * mult-dominated NTT butterflies get the full gain (1.0), while
     * the serial dependency chains of EC addition formulas cap the
     * MSM kernels around half (paper Figures 8 vs 10: 1.6x vs 1.33x).
     */
    double libGainFactor = 1.0;

    KernelStats &
    operator+=(const KernelStats &o)
    {
        // Aggregate sequential kernels of the same field width.
        fieldMuls += o.fieldMuls;
        fieldAdds += o.fieldAdds;
        fieldInvs += o.fieldInvs;
        linesTouched += o.linesTouched;
        usefulBytes += o.usefulBytes;
        // Weighted-average the efficiency factors by multiplies.
        double w0 = fieldMuls - o.fieldMuls, w1 = o.fieldMuls;
        if (w0 + w1 > 0) {
            idleLaneFactor = (idleLaneFactor * w0 +
                              o.idleLaneFactor * w1) / (w0 + w1);
            loadImbalanceFactor = (loadImbalanceFactor * w0 +
                                   o.loadImbalanceFactor * w1) / (w0 + w1);
            libGainFactor = (libGainFactor * w0 +
                             o.libGainFactor * w1) / (w0 + w1);
        }
        numBlocks += o.numBlocks;
        numLaunches += o.numLaunches;
        hostSeconds += o.hostSeconds;
        pcieBytes += o.pcieBytes;
        return *this;
    }
};

/** 32-bit MAC-equivalents of one CIOS Montgomery multiplication. */
inline double
macsPerFieldMul(std::size_t limbs)
{
    // 2N^2 + N 64-bit MACs, each 4 32-bit MACs, plus carry handling.
    return 4.0 * (2.0 * limbs * limbs + limbs) + 8.0 * limbs;
}

/** 32-bit op-equivalents of one modular addition. */
inline double
macsPerFieldAdd(std::size_t limbs)
{
    return 3.0 * limbs;
}

/**
 * Field-multiplication equivalents of one Fermat inversion: a
 * square-and-multiply over the ~64*limbs-bit exponent p-2 costs one
 * squaring per bit plus a multiply on the ~50% set bits.
 */
inline double
mulsPerFieldInv(std::size_t limbs)
{
    return 1.5 * 64.0 * double(limbs);
}

/** 32-bit op-equivalents of one modular inversion. */
inline double
macsPerFieldInv(std::size_t limbs)
{
    return mulsPerFieldInv(limbs) * macsPerFieldMul(limbs);
}

/**
 * Modeled library speedup for a device: the Dekker/2^52 path only
 * pays off when the DP pipes are wide relative to INT32 (V100 1:2;
 * consumer Pascal 1:32 sees almost nothing).
 */
double fpuSpeedupOnDevice(const DeviceConfig &dev, std::size_t limbs);

/**
 * Fraction of peak issue rate a tuned big-integer kernel sustains.
 * Single calibration constant; see EXPERIMENTS.md for derivation.
 */
inline constexpr double kIssueEfficiency = 0.25;

/**
 * Accounting invariants every kernel report must satisfy, checked so
 * the perf model is a verified contract rather than trusted output:
 *
 *  - usefulBytes <= l2LineBytes * linesTouched (a line moves at most
 *    one line's worth of useful data);
 *  - loadImbalanceFactor >= 1 (max/mean by construction);
 *  - idleLaneFactor in (0, 1] (fraction of useful warp lanes);
 *  - libGainFactor in [0, 1]; op counts and limb width non-negative;
 *  - usefulBytes > 0 implies linesTouched > 0.
 *
 * Returns a human-readable description of every violated invariant
 * (empty = consistent).
 */
std::vector<std::string> invariantViolations(const KernelStats &s,
                                             const DeviceConfig &dev);

/**
 * When enabled, modelSeconds() throws std::logic_error on any
 * invariant violation instead of silently producing a time. Off by
 * default; the fuzz driver and differential tests switch it on.
 */
void setStrictInvariants(bool enabled);
bool strictInvariants();

/** Convert kernel statistics to modeled seconds on a device. */
double modelSeconds(const KernelStats &s, const DeviceConfig &dev,
                    Backend backend = Backend::FpuLib);

/** Compute-side time only (for breakdown figures). */
double modelComputeSeconds(const KernelStats &s, const DeviceConfig &dev,
                           Backend backend = Backend::FpuLib);

/** Memory-side time only (for breakdown figures). */
double modelMemorySeconds(const KernelStats &s, const DeviceConfig &dev);

/**
 * Baseline CPU host model (dual Xeon Gold 5117 in the paper),
 * anchored on the paper's own Section 1 measurements: 230 ns per
 * 381-bit modular multiplication and 43 ns per large-integer add.
 */
struct CpuConfig {
    std::string name = "2x Xeon Gold 5117";
    std::size_t threads = 56;
    double parallelEfficiency = 0.45;
    double mulNs381 = 230.0;
    double addNs381 = 43.0;

    double
    mulNs(std::size_t limbs) const
    {
        double f = double(limbs) / 6.0; // calibrated at 6 limbs
        return mulNs381 * f * f;        // schoolbook is quadratic
    }

    double
    addNs(std::size_t limbs) const
    {
        return addNs381 * double(limbs) / 6.0;
    }

    double
    invNs(std::size_t limbs) const
    {
        return mulsPerFieldInv(limbs) * mulNs(limbs);
    }

    static CpuConfig xeonGold5117x2() { return CpuConfig(); }
};

/** CPU work description: op counts plus a serial fraction. */
struct CpuStats {
    std::size_t limbs = 4;
    double fieldMuls = 0;
    double fieldAdds = 0;
    double fieldInvs = 0; //!< shared inversions (batch-affine rounds)
    double serialFraction = 0.05; //!< Amdahl term
};

double cpuModelSeconds(const CpuStats &s, const CpuConfig &cpu);

} // namespace gzkp::gpusim

#endif // GZKP_GPUSIM_PERF_MODEL_HH
