/**
 * @file
 * Portable dispatch arm: unrolled scalar CIOS with two interleaved
 * independent limb chains per step (see mont_scalar.hh for why the
 * interleaving matters on dependency-latency-bound cores). Always
 * compiled; the reference every vector arm is differentially tested
 * against, and the tail handler the vector arms borrow for
 * batch-size remainders.
 */

#include "ff/simd/arms.hh"
#include "ff/simd/mont_scalar.hh"

namespace gzkp::ff::simd::detail {

namespace {

void
mulPortable(std::uint64_t *out, const std::uint64_t *a,
            const std::uint64_t *b, std::size_t n, const Mont4 &m)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        montMulLimbs2<4>(out + 4 * i, a + 4 * i, b + 4 * i,
                         out + 4 * (i + 1), a + 4 * (i + 1),
                         b + 4 * (i + 1), m.p, m.inv);
    }
    if (i < n)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, b + 4 * i, m.p, m.inv);
}

void
sqrPortable(std::uint64_t *out, const std::uint64_t *a, std::size_t n,
            const Mont4 &m)
{
    mulPortable(out, a, a, n, m);
}

void
mulcPortable(std::uint64_t *out, const std::uint64_t *a,
             const std::uint64_t *c, std::size_t n, const Mont4 &m)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        montMulLimbs2<4>(out + 4 * i, a + 4 * i, c,
                         out + 4 * (i + 1), a + 4 * (i + 1), c, m.p,
                         m.inv);
    }
    if (i < n)
        montMulLimbs<4>(out + 4 * i, a + 4 * i, c, m.p, m.inv);
}

} // namespace

const Kernels4 &
portableKernels4()
{
    static const Kernels4 k = {mulPortable, sqrPortable, mulcPortable,
                               "portable-cios2"};
    return k;
}

} // namespace gzkp::ff::simd::detail
