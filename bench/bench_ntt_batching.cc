/**
 * @file
 * Extension bench: throughput-oriented NTT batching (paper
 * Section 7 future work, implemented in ntt/ntt_batched.hh).
 *
 * HE workloads run many small independent NTTs; GZKP's small
 * independent groups make co-scheduling natural. Shows the modeled
 * gain of batched mode over latency mode by transform size and
 * batch count, plus a functional correctness sweep.
 */

#include <cstdio>
#include <random>

#include "bench_util.hh"
#include "ff/field_tags.hh"
#include "ntt/ntt_batched.hh"
#include "ntt/ntt_cpu.hh"

using namespace gzkp;
using namespace gzkp::bench;
using namespace gzkp::ntt;
using Fr = ff::Bn254Fr;

int
main()
{
    auto dev = gpusim::DeviceConfig::v100();

    header("NTT batching for HE-style throughput (256-bit, V100 "
           "model)");

    // Functional sweep: every transform of the batch must equal the
    // reference NTT of its own input.
    bool ok = false;
    {
        Domain<Fr> dom(9);
        std::vector<std::vector<Fr>> batch(8), expect(8);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            batch[i] = bench::scalarVector<Fr>(dom.size(), 3 + i);
            expect[i] = batch[i];
            nttInPlace(dom, expect[i]);
        }
        BatchedNtt<Fr>().run(dom, batch);
        ok = batch == expect;
        std::printf("functional batch check (8 x 2^9): %s\n\n",
                    ok ? "ok" : "MISMATCH");
    }

    std::printf("%-7s %-7s | %12s %12s | %s\n", "size", "count",
                "latency-mode", "batched-mode", "gain");
    BatchedNtt<Fr> bn;
    for (std::size_t logn : {10u, 12u, 14u, 18u}) {
        for (std::size_t count : {16u, 64u, 256u}) {
            double lat = bn.latencyModeSeconds(logn, count, dev);
            double bat = bn.batchedModeSeconds(logn, count, dev);
            std::printf("2^%-5zu %-7zu | %12s %12s | %s\n", logn,
                        count, fmtSec(lat).c_str(),
                        fmtSec(bat).c_str(),
                        fmtSpeedup(lat / bat).c_str());
        }
    }
    std::printf("\nsmall transforms gain most (a lone small NTT "
                "cannot fill 80 SMs); large transforms are already "
                "latency-optimal, matching the paper's Section 7 "
                "discussion.\n");
    return ok ? 0 : 1;
}
