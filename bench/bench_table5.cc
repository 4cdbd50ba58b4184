/**
 * @file
 * Table 5 reproduction: single NTT operation on the V100 model.
 *
 * 753-bit column: GZKP (modeled, FPU-lib backend) against the
 * libsnark-like CPU baseline (modeled from op counts anchored on the
 * paper's own per-op measurements, including the redundant omega
 * recomputation the paper blames for libsnark's super-linear
 * scaling).
 *
 * 256-bit column: GZKP against the bellperson-like shuffled GPU
 * baseline (modeled, integer backend).
 *
 * Functional cross-check: at host-feasible scales the GZKP kernel is
 * actually executed and compared against the reference NTT, and its
 * wall-clock is reported.
 */

#include <cinttypes>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_util.hh"
#include "ff/field_tags.hh"
#include "ntt/ntt_cpu.hh"
#include "ntt/ntt_gpu.hh"

using namespace gzkp;
using namespace gzkp::bench;
using namespace gzkp::ntt;

namespace {

struct PaperRow {
    std::size_t logn;
    double cpu753, gzkp753, bg256, gzkp256; // seconds
};

// Table 5 (V100), paper values in milliseconds -> seconds.
const PaperRow kPaper[] = {
    {14, 0.102, 0.00015, 0.00037, 0.00005},
    {16, 0.212, 0.00049, 0.00048, 0.00009},
    {18, 0.565, 0.00191, 0.00289, 0.00028},
    {20, 2.110, 0.00746, 0.00519, 0.00107},
    {22, 8.180, 0.03367, 0.01269, 0.00496},
    {24, 32.517, 0.14140, 0.04674, 0.02099},
    {26, 131.441, 0.60253, 0.66584, 0.09105},
};

template <typename Fr>
double
functionalGzkpSeconds(std::size_t logn)
{
    Domain<Fr> dom(logn);
    auto v = bench::scalarVector<Fr>(dom.size(), logn);
    auto expect = v;
    nttInPlace(dom, expect);
    GzkpNtt<Fr> gz;
    Timer t;
    gz.run(dom, v);
    double sec = t.seconds();
    if (v != expect) {
        std::printf("  !! functional mismatch at 2^%zu\n", logn);
        return -1;
    }
    return sec;
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = fullRun(argc, argv);
    auto dev = gpusim::DeviceConfig::v100();
    auto cpu = gpusim::CpuConfig::xeonGold5117x2();
    std::size_t max_functional = full ? 20 : 16;
    bool ok = true;

    header("Table 5: single NTT operation, V100 "
           "(modeled; paper values in parentheses)");
    std::printf("%-6s | %12s %12s %8s | %12s %12s %8s | %s\n", "scale",
                "753b BestCPU", "753b GZKP", "speedup", "256b BestGPU",
                "256b GZKP", "speedup", "host-exec check");

    for (const auto &row : kPaper) {
        // 753-bit: libsnark-like CPU baseline vs GZKP kernel model.
        LibsnarkStyleNtt<ff::Mnt4753Fr> libsnark;
        double t_cpu =
            gpusim::cpuModelSeconds(libsnark.stats(row.logn), cpu);
        GzkpNtt<ff::Mnt4753Fr> gz753;
        double t_753 = ntt::nttModelSeconds(gz753.stats(row.logn, dev), dev, gpusim::Backend::FpuLib);

        // 256-bit: bellperson-like shuffled NTT vs GZKP.
        ShuffledNtt<ff::Bls381Fr> bg;
        GzkpNtt<ff::Bls381Fr> gz256;
        double t_bg = ntt::nttModelSeconds(bg.stats(row.logn, dev), dev, gpusim::Backend::IntOnly);
        double t_256 = ntt::nttModelSeconds(gz256.stats(row.logn, dev), dev, gpusim::Backend::FpuLib);

        std::string func = "-";
        if (row.logn <= max_functional) {
            double fs = functionalGzkpSeconds<ff::Bls381Fr>(row.logn);
            ok = ok && fs >= 0;
            func = fs < 0 ? "MISMATCH" : "ok, " + fmtSec(fs) + " on host";
        }

        std::printf(
            "2^%-4zu | %6s (%5s) %6s (%5s) %8s | %6s (%5s) %6s (%5s) "
            "%8s | %s\n",
            row.logn, fmtSec(t_cpu).c_str(), fmtSec(row.cpu753).c_str(),
            fmtSec(t_753).c_str(), fmtSec(row.gzkp753).c_str(),
            fmtSpeedup(t_cpu / t_753).c_str(), fmtSec(t_bg).c_str(),
            fmtSec(row.bg256).c_str(), fmtSec(t_256).c_str(),
            fmtSec(row.gzkp256).c_str(),
            fmtSpeedup(t_bg / t_256).c_str(), func.c_str());
    }
    std::printf("\npaper speedup ranges: 753-bit 218-697x vs CPU; "
                "256-bit 2.2-10.3x vs GPU\n");
    return ok ? 0 : 1;
}
