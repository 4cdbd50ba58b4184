/**
 * @file
 * Zcash shielded-transaction example (paper Section 5.2, Tables 3/4).
 *
 * A shielded transaction combines Sapling_Spend, Sapling_Output, and
 * (for legacy notes) Sprout proofs. This example:
 *
 *  1. runs the GZKP kernels *functionally* on a reduced-scale
 *     Sapling-like instance (sparse witness, real NTT + MSM
 *     execution, results cross-checked against the references), and
 *  2. reports the modeled V100 latency of the full-size transaction
 *     using the same models the Table 3/4 benches use, for 1 and 4
 *     GPUs.
 */

#include <cstdio>
#include <random>

#include "ec/curves.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "ntt/ntt_cpu.hh"
#include "ntt/ntt_gpu.hh"
#include "workload/workloads.hh"
#include "zkp/qap.hh"

using namespace gzkp;
using Fr = ff::Bls381Fr;
using Cfg = ec::Bls381G1Cfg;

int
main()
{
    std::mt19937_64 rng(2022);
    auto dev = gpusim::DeviceConfig::v100();

    std::printf("== functional reduced-scale Sapling-like proof "
                "kernels (BLS12-381) ==\n");
    const std::size_t logn = 10;
    const std::size_t n = std::size_t(1) << logn;

    // Sparse witness vector with the Zcash profile.
    auto u = workload::sparseScalars<Fr>(n, workload::zcashProfile(),
                                         rng);
    std::size_t trivial = 0;
    for (auto &s : u)
        if (s.isZero() || s == Fr::one())
            ++trivial;
    std::printf("witness: %zu scalars, %.0f%% zero/one (sparse)\n", n,
                100.0 * double(trivial) / double(n));

    // POLY-stage kernel: GZKP shuffle-less NTT vs reference.
    ntt::Domain<Fr> dom(logn);
    std::vector<Fr> a(u.begin(), u.end());
    auto expect = a;
    ntt::nttInPlace(dom, expect);
    ntt::GzkpNtt<Fr>().run(dom, a);
    bool nttOk = a == expect;
    std::printf("GZKP NTT (2^%zu): %s\n", logn,
                nttOk ? "matches reference" : "MISMATCH");

    // MSM-stage kernel: GZKP cross-window merging vs serial oracle.
    std::vector<ec::AffinePoint<Cfg>> pts;
    auto g = ec::Bls381G1::generator();
    for (std::size_t i = 0; i < n; ++i)
        pts.push_back(g.mul(Fr::random(rng)).toAffine());
    auto ref = msm::PippengerSerial<Cfg>().run(pts, u);
    auto got = msm::GzkpMsm<Cfg>().run(pts, u);
    bool msmOk = got == ref;
    std::printf("GZKP MSM (2^%zu, sparse): %s\n", logn,
                msmOk ? "matches serial Pippenger" : "MISMATCH");

    std::printf("\n== modeled full-scale shielded transaction "
                "latency (V100) ==\n");
    struct Part {
        const char *name;
        std::size_t n;
    };
    const Part parts[] = {
        {"Sapling_Spend", 131071},
        {"Sapling_Output", 8191},
        {"Sprout", 2097151},
    };
    double total1 = 0;
    for (const auto &p : parts) {
        std::size_t dlog = zkp::domainLogFor(p.n + 1);
        auto w = workload::sparseScalars<Fr>(
            p.n, workload::zcashProfile(), rng);
        ntt::GzkpNtt<Fr> nttk;
        double poly = 7.0 * ntt::nttModelSeconds(
            nttk.stats(dlog, dev), dev, gpusim::Backend::FpuLib);
        msm::GzkpMsm<Cfg> msmk({}, dev);
        double m_sparse = gpusim::modelSeconds(
            msmk.gpuStats(p.n, dev, &w), dev,
            gpusim::Backend::FpuLib);
        double m_dense = gpusim::modelSeconds(
            msmk.gpuStats(p.n, dev), dev, gpusim::Backend::FpuLib);
        double msm_t = 3.8 * m_sparse + m_dense; // 4 sparse (1 in G2)
        std::printf("  %-15s POLY %7.2f ms  MSM %7.2f ms\n", p.name,
                    poly * 1e3, msm_t * 1e3);
        total1 += poly + msm_t;
    }
    std::printf("one shielded transaction (Spend+Output+Sprout): "
                "%.0f ms on one modeled V100\n", total1 * 1e3);
    std::printf("(paper: GZKP cuts this latency 37.1x vs bellman and "
                "9.2x vs bellperson; see bench_table3/4 for the "
                "side-by-side reproduction)\n");
    return nttOk && msmOk ? 0 : 1;
}
