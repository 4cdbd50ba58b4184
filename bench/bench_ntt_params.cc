/**
 * @file
 * Ablation: GZKP NTT parameters B (iterations per batch) and G
 * (independent groups per block).
 *
 * Section 3's two claims, in numbers:
 *  - G >= 4 is needed so the block-style chunks fill whole 32 B L2
 *    lines ("as long as G is sufficiently large, e.g., at 4 or
 *    higher"); the bench prints line utilisation per G.
 *  - The internal shuffle design improves NTT performance by up to
 *    ~2.1x over the same kernel with degraded parameters.
 *
 * Functional correctness at every parameter point is re-checked
 * against the reference NTT.
 */

#include <cstdio>
#include <random>

#include "bench_util.hh"
#include "ff/field_tags.hh"
#include "ntt/ntt_cpu.hh"
#include "ntt/ntt_gpu.hh"

using namespace gzkp;
using namespace gzkp::bench;
using namespace gzkp::ntt;
using Fr = ff::Bls381Fr;

int
main()
{
    auto dev = gpusim::DeviceConfig::v100();
    const std::size_t logn = 20;

    header("GZKP NTT parameter ablation (256-bit, 2^20, V100 model)");

    // Functional check of a representative sweep.
    bool all_ok = true;
    {
        Domain<Fr> dom(10);
        auto v = bench::scalarVector<Fr>(dom.size(), 1);
        auto expect = v;
        nttInPlace(dom, expect);
        for (std::size_t b = 2; b <= 8; ++b) {
            for (std::size_t g : {1u, 2u, 4u, 8u, 16u}) {
                auto w = v;
                GzkpNtt<Fr>(b, g).run(dom, w);
                all_ok = all_ok && (w == expect);
            }
        }
        std::printf("functional sweep (B=2..8 x G=1..16 at 2^10): "
                    "%s\n\n", all_ok ? "all match reference" :
                    "MISMATCH");
    }

    std::printf("G sweep at B=6 (global-memory line utilisation of "
                "the block-style loads):\n");
    std::printf("%-4s | %10s | %12s | %s\n", "G", "time", "util",
                "note");
    double t_g1 = 0;
    for (std::size_t g : {1u, 2u, 4u, 8u, 16u}) {
        GzkpNtt<Fr> gz(6, g);
        auto st = gz.stats(logn, dev);
        double util = double(st.compute.usefulBytes) /
            double(st.compute.linesTouched * dev.l2LineBytes);
        double t = nttModelSeconds(st, dev, gpusim::Backend::FpuLib);
        if (g == 1)
            t_g1 = t;
        std::printf("%-4zu | %10s | %10.0f%% | %s\n", g,
                    fmtSec(t).c_str(), util * 100,
                    g >= 4 ? "full lines" : "partial lines");
    }
    GzkpNtt<Fr> best(6, 0); // auto G
    double t_best = nttModelSeconds(best.stats(logn, dev), dev,
                                    gpusim::Backend::FpuLib);
    std::printf("auto-G vs G=1: %s (paper: internal-shuffle design "
                "worth up to 2.1x)\n\n",
                fmtSpeedup(t_g1 / t_best).c_str());

    std::printf("B sweep (auto G): batches = ceil(logN / B); fewer "
                "iterations per batch = more staging passes\n");
    std::printf("%-4s | %8s | %10s\n", "B", "batches", "time");
    for (std::size_t b : {2u, 4u, 6u, 8u}) {
        GzkpNtt<Fr> gz(b, 0);
        auto st = gz.stats(logn, dev);
        double t = nttModelSeconds(st, dev, gpusim::Backend::FpuLib);
        std::printf("%-4zu | %8zu | %10s\n", b,
                    makeBatches(logn, b).size(), fmtSec(t).c_str());
    }
    std::printf("\nGZKP default B=6 balances staging passes against "
                "shared-memory pressure and keeps blocks warp-full "
                "in the final batch.\n");
    return all_ok ? 0 : 1;
}
