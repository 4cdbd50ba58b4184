/**
 * @file
 * The biased field-element pool shared by the field differential
 * tests (test_ff_dispatch's cross-arm checks and test_fp's kernel
 * checks against the generic oracle).
 */

#ifndef GZKP_TESTS_FIELD_POOL_HH
#define GZKP_TESTS_FIELD_POOL_HH

#include <cstdint>
#include <vector>

#include "testkit/generators.hh"

namespace gzkp::testpool {

/**
 * Boundary elements: algebraic boundaries (0, 1, -1, small, p -
 * small), raw Montgomery boundaries (representation 1, p-1 -- legal
 * raw values that no fromBigInt round trip would pick first), and
 * 32-bit digit boundaries that stress the vector kernels' digit
 * splits.
 */
template <typename FpT>
std::vector<FpT>
boundaryPool()
{
    using Repr = typename FpT::Repr;
    const Repr &p = FpT::modulus();

    std::vector<FpT> pool;
    pool.push_back(FpT::zero());
    pool.push_back(FpT::one());
    pool.push_back(-FpT::one()); // p - 1 as a field value
    for (std::uint64_t s : {1ull, 2ull, 3ull, 0xffffffffull,
                            0x100000000ull, ~0ull}) {
        pool.push_back(FpT::fromUint64(s));
        pool.push_back(-FpT::fromUint64(s)); // p - small
    }
    // Raw Montgomery boundary values: any raw < p is a valid element.
    auto pushRaw = [&](Repr r) {
        if (r < p)
            pool.push_back(FpT::fromRaw(r));
    };
    pushRaw(Repr::one());
    Repr pm1;
    Repr::sub(p, Repr::one(), pm1);
    pushRaw(pm1);
    // Digit-boundary patterns: alternating 32-bit halves, all-ones
    // low limb, single bits at limb boundaries.
    Repr alt;
    for (std::size_t i = 0; i < FpT::kLimbs; ++i)
        alt.limbs[i] = 0x00000000ffffffffull;
    pushRaw(alt);
    for (std::size_t i = 0; i < FpT::kLimbs; ++i)
        alt.limbs[i] = 0xffffffff00000000ull;
    pushRaw(alt);
    for (std::size_t b = 0; b < FpT::kLimbs * 64; b += 52) {
        Repr bit;
        bit.limbs[b / 64] = std::uint64_t(1) << (b % 64);
        pushRaw(bit);
    }
    return pool;
}

/** The boundary elements, then random fill, cut to n elements. */
template <typename FpT>
std::vector<FpT>
biasedPool(std::size_t n, std::uint64_t seed)
{
    std::vector<FpT> pool = boundaryPool<FpT>();
    testkit::Rng rng(seed);
    while (pool.size() < n)
        pool.push_back(FpT::random(rng));
    pool.resize(n);
    return pool;
}

} // namespace gzkp::testpool

#endif // GZKP_TESTS_FIELD_POOL_HH
