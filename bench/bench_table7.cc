/**
 * @file
 * Table 7 reproduction: single MSM operation (G1) on the V100 model.
 *
 *  - 753-bit: GZKP vs the MINA-like Straus baseline (which runs out
 *    of GPU memory above 2^22, as in the paper).
 *  - 381-bit: GZKP vs the bellperson-like windowed sub-MSM baseline.
 *  - 256-bit: GZKP vs the libsnark-like CPU Pippenger baseline.
 *
 * Functional cross-check: at small scales every engine is actually
 * executed on the host and compared against the naive PMUL oracle.
 */

#include <cstdio>
#include <random>

#include "bench_util.hh"
#include "ec/curves.hh"
#include "msm/msm_bellperson.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "msm/msm_straus.hh"

using namespace gzkp;
using namespace gzkp::bench;
using namespace gzkp::msm;

namespace {

struct PaperRow {
    std::size_t logn;
    double mina753, gzkp753, bg381, gzkp381, cpu256, gzkp256;
};

// Table 7 (V100); -1 marks OOM in the paper.
const PaperRow kPaper[] = {
    {14, 0.16, 0.02, 0.037, 0.005, 0.07, 0.004},
    {16, 0.48, 0.05, 0.052, 0.007, 0.18, 0.006},
    {18, 1.99, 0.16, 0.14, 0.020, 0.45, 0.015},
    {20, 7.2, 0.60, 0.53, 0.062, 1.48, 0.045},
    {22, 28.1, 2.66, 1.35, 0.24, 4.90, 0.17},
    {24, -1, 11.3, 6.55, 1.10, 17.27, 0.72},
    {26, -1, 40.7, 24.42, 4.00, 65.70, 2.79},
};

/** Functional cross-check of all engines at a small scale. */
template <typename Cfg>
bool
functionalCheck(std::size_t n)
{
    auto in = bench::msmInstance<Cfg>(n, 33);
    const auto &pts = in.points;
    const auto &scs = in.scalars;
    auto expect = msmNaive<Cfg>(pts, scs);
    typename GzkpMsm<Cfg>::Options o;
    o.k = 8;
    o.checkpointM = 2;
    return GzkpMsm<Cfg>(o).run(pts, scs) == expect &&
        PippengerSerial<Cfg>().run(pts, scs) == expect &&
        BellpersonMsm<Cfg>(8, 4).run(pts, scs) == expect &&
        StrausMsm<Cfg>(4).run(pts, scs) == expect;
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = fullRun(argc, argv);
    auto dev = gpusim::DeviceConfig::v100();
    auto cpu = gpusim::CpuConfig::xeonGold5117x2();

    header("Table 7: single MSM operation (G1), V100 "
           "(modeled; paper values in parentheses)");
    bool ok = functionalCheck<ec::Bn254G1Cfg>(full ? 512 : 128);
    std::printf("functional cross-check (all engines vs naive oracle, "
                "N=%d): %s\n", full ? 512 : 128, ok ? "ok" : "MISMATCH");
    std::printf("%-6s | %10s %10s %7s | %10s %10s %7s | %10s %10s "
                "%7s\n",
                "scale", "753b MINA", "753b GZKP", "spd", "381b BG",
                "381b GZKP", "spd", "256b CPU", "256b GZKP", "spd");

    for (const auto &row : kPaper) {
        std::size_t n = std::size_t(1) << row.logn;

        // 753-bit.
        StrausMsm<ec::Mnt4753G1Cfg> mina;
        GzkpMsm<ec::Mnt4753G1Cfg> gz753({}, dev);
        double t_mina = -1;
        if (mina.fits(n, dev)) {
            t_mina = gpusim::modelSeconds(mina.gpuStats(n, dev), dev,
                                          gpusim::Backend::IntOnly);
        }
        double t_753 = gpusim::modelSeconds(gz753.gpuStats(n, dev),
                                            dev,
                                            gpusim::Backend::FpuLib);

        // 381-bit.
        BellpersonMsm<ec::Bls381G1Cfg> bg;
        GzkpMsm<ec::Bls381G1Cfg> gz381({}, dev);
        double t_bg = gpusim::modelSeconds(bg.gpuStats(n, dev), dev,
                                           gpusim::Backend::IntOnly);
        double t_381 = gpusim::modelSeconds(gz381.gpuStats(n, dev),
                                            dev,
                                            gpusim::Backend::FpuLib);

        // 256-bit (CPU baseline).
        PippengerSerial<ec::Bn254G1Cfg> pip;
        GzkpMsm<ec::Bn254G1Cfg> gz256({}, dev);
        double t_cpu = gpusim::cpuModelSeconds(pip.stats(n), cpu);
        double t_256 = gpusim::modelSeconds(gz256.gpuStats(n, dev),
                                            dev,
                                            gpusim::Backend::FpuLib);

        auto spd = [](double base, double g) {
            return base < 0 ? std::string("-") : fmtSpeedup(base / g);
        };
        std::printf(
            "2^%-4zu | %4s (%4s) %4s (%4s) %7s | %4s (%4s) %4s (%4s) "
            "%7s | %4s (%4s) %4s (%4s) %7s\n",
            row.logn, fmtSec(t_mina).c_str(),
            fmtSec(row.mina753).c_str(), fmtSec(t_753).c_str(),
            fmtSec(row.gzkp753).c_str(), spd(t_mina, t_753).c_str(),
            fmtSec(t_bg).c_str(), fmtSec(row.bg381).c_str(),
            fmtSec(t_381).c_str(), fmtSec(row.gzkp381).c_str(),
            spd(t_bg, t_381).c_str(), fmtSec(t_cpu).c_str(),
            fmtSec(row.cpu256).c_str(), fmtSec(t_256).c_str(),
            fmtSec(row.gzkp256).c_str(), spd(t_cpu, t_256).c_str());
    }
    std::printf("\npaper: MINA OOM above 2^22 ('-'); speedups "
                "9.2-12.4x (753b), 5.6-8.5x (381b), 18.1-32.9x "
                "(256b)\n");
    return ok ? 0 : 1;
}
