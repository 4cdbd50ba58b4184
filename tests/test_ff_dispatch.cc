/**
 * @file
 * Cross-arm differential suite for the vectorized Montgomery field
 * core (ff/simd).
 *
 * The layer's contract is *bit-identity*, not numeric equality: every
 * dispatch arm returns the fully-reduced canonical Montgomery
 * representation, so any two correct arms agree at limb granularity
 * on every input. These tests hold every compiled arm to that
 * contract against the portable reference on biased inputs (0, 1,
 * p-1, p +/- small, digit-boundary and Montgomery-boundary raw
 * values), then push the invariant end to end: a Poseidon-Merkle
 * Groth16 proof must serialize to the same bytes under every arm and
 * thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "ff/bn254_tower.hh"
#include "ff/field_tags.hh"
#include "ff/fp.hh"
#include "ff/simd/dispatch.hh"
#include "ff/simd/mont_scalar.hh"
#include "field_pool.hh"
#include "msm/batch_affine.hh"
#include "testkit/generators.hh"
#include "workload/workloads.hh"
#include "zkp/families.hh"
#include "zkp/groth16.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/qap.hh"
#include "zkp/serialize.hh"

using namespace gzkp;
using ff::simd::Isa;
namespace simd = ff::simd;

using Fr = ff::Bn254Fr;
using Fq = ff::Bn254Fq;
using WideFq = ff::Bls381Fq; // 6 limbs: must bypass the vector arms

namespace {

/** Pin an arm for a scope; restores auto resolution on exit. */
struct IsaGuard {
    explicit IsaGuard(Isa isa) { ff::simd::setActiveIsa(isa); }
    ~IsaGuard() { ff::simd::clearActiveIsa(); }
};

template <typename FpT>
::testing::AssertionResult
limbsEqual(const FpT &a, const FpT &b)
{
    if (a.raw() == b.raw())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "limb mismatch: " << a.toHex() << " vs " << b.toHex();
}

/**
 * Run every batch entry point under `isa` and compare limb-for-limb
 * against the portable results computed up front.
 */
template <typename FpT>
void
expectArmMatchesPortable(Isa isa, std::uint64_t seed)
{
    // Sizes straddle the kernels' internal strides (4- and 8-wide
    // blocks plus scalar tails) and batchInverse's blocked threshold.
    for (std::size_t n : {1, 3, 7, 8, 15, 64, 257}) {
        auto a = testpool::biasedPool<FpT>(n, seed);
        auto b = testpool::biasedPool<FpT>(n, seed + 1);
        const FpT c = a[n / 2];
        const auto e = ff::BigInt<2>::fromHex("1f3a9c0d5b");

        std::vector<FpT> mulP(n), sqrP(n), mulcP(n), addP(n), subP(n),
            powP(n);
        {
            IsaGuard g(Isa::Portable);
            ff::mulBatch(mulP.data(), a.data(), b.data(), n);
            ff::sqrBatch(sqrP.data(), a.data(), n);
            ff::mulcBatch(mulcP.data(), a.data(), c, n);
            ff::addBatch(addP.data(), a.data(), b.data(), n);
            ff::subBatch(subP.data(), a.data(), b.data(), n);
            ff::powBatch(powP.data(), a.data(), e, n);
        }
        std::vector<FpT> invP = a;
        {
            IsaGuard g(Isa::Portable);
            ff::batchInverse(invP);
        }

        IsaGuard g(isa);
        std::vector<FpT> out(n);
        ff::mulBatch(out.data(), a.data(), b.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(limbsEqual(out[i], mulP[i]))
                << "mul n=" << n << " i=" << i;
        ff::sqrBatch(out.data(), a.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(limbsEqual(out[i], sqrP[i]))
                << "sqr n=" << n << " i=" << i;
        ff::mulcBatch(out.data(), a.data(), c, n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(limbsEqual(out[i], mulcP[i]))
                << "mulc n=" << n << " i=" << i;
        ff::addBatch(out.data(), a.data(), b.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(limbsEqual(out[i], addP[i]))
                << "add n=" << n << " i=" << i;
        ff::subBatch(out.data(), a.data(), b.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(limbsEqual(out[i], subP[i]))
                << "sub n=" << n << " i=" << i;
        ff::powBatch(out.data(), a.data(), e, n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(limbsEqual(out[i], powP[i]))
                << "pow n=" << n << " i=" << i;

        // batchInverse with zeros sprinkled in (a has a leading zero
        // from the pool): the skip-and-preserve contract plus bit
        // identity must both survive the blocked vector path.
        std::vector<FpT> inv = a;
        ff::batchInverse(inv);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(limbsEqual(inv[i], invP[i]))
                << "batchInverse n=" << n << " i=" << i;

        // Scalar single-element ops are ISA-independent by design
        // (always inline scalar CIOS); pin that too.
        for (std::size_t i = 0; i < std::min<std::size_t>(n, 8); ++i) {
            EXPECT_TRUE(limbsEqual(a[i] * b[i], mulP[i]));
            EXPECT_TRUE(limbsEqual(a[i].inverse(),
                                   a[i].isZero() ? FpT::zero()
                                                 : invP[i]));
        }

        // In-place aliasing: out == a must behave as documented.
        std::vector<FpT> alias = a;
        ff::mulBatch(alias.data(), alias.data(), b.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(limbsEqual(alias[i], mulP[i]))
                << "alias mul n=" << n << " i=" << i;
    }
}

/**
 * Raw elements that stress the IFMA core's 52-bit digits: p - 1, R mod
 * p, every digit at its maximum 2^52 - 1 (the top digit one below
 * p's), runs of maximal digits over zero digits and the reverse, and
 * single set digits.
 */
template <typename FpT>
std::vector<FpT>
digitPool()
{
    using Repr = typename FpT::Repr;
    constexpr std::uint64_t kMax = (std::uint64_t(1) << 52) - 1;
    auto fromDigits = [](const std::uint64_t (&d)[5]) {
        Repr r;
        for (std::size_t j = 0; j < 5; ++j)
            for (std::size_t b = 0; b < 52; ++b)
                if (d[j] >> b & 1) {
                    std::size_t bit = 52 * j + b;
                    r.limbs[bit / 64] |= std::uint64_t(1) << (bit % 64);
                }
        return r;
    };
    const Repr &p = FpT::modulus();
    const std::uint64_t pTop = p.limbs[3] >> 16; // p's top digit
    std::vector<Repr> raws = {
        fromDigits({kMax, kMax, kMax, kMax, pTop - 1}),
        fromDigits({kMax, kMax, kMax, kMax, 0}),
        fromDigits({kMax, 0, kMax, 0, pTop - 1}),
        fromDigits({0, kMax, 0, kMax, 0}),
        fromDigits({0, 0, 0, 0, pTop - 1}),
        fromDigits({kMax, 0, 0, 0, 0}),
        fromDigits({0, 0, 0, kMax, 0}),
        fromDigits({1, 0, 0, 0, 0}),
        fromDigits({0, 1, 0, 0, 0}),
        fromDigits({0, 0, 0, 0, 1}),
    };
    std::vector<FpT> pool = {-FpT::one(), FpT::one(), FpT::zero()};
    for (const Repr &r : raws) {
        EXPECT_TRUE(r < p);
        pool.push_back(FpT::fromRaw(r));
    }
    return pool;
}

/**
 * mul, sqr and mulc of every arm against simd::montMulLimbs, on the
 * digit pool's pairs (b runs the pool at an offset, so every boundary
 * value meets several others) and random fill.
 */
template <typename FpT>
void
expectKernelsMatchOracle(std::uint64_t seed)
{
    const simd::Mont4 &m = ff::mont4Params<FpT>();
    const auto pool = digitPool<FpT>();
    auto oracle = [&m](const FpT &x, const FpT &y) {
        FpT r;
        simd::montMulLimbs<4>(ff::detail::limbPtr(&r),
                              ff::detail::limbPtr(&x),
                              ff::detail::limbPtr(&y), m.p, m.inv);
        return r;
    };
    for (std::size_t n : {8, 9, 16, 17, 1000}) {
        testkit::Rng rng(seed + n);
        std::vector<FpT> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
            bool boundary = i < 4 * pool.size();
            a[i] = boundary ? pool[i % pool.size()] : FpT::random(rng);
            b[i] = boundary ? pool[(i / pool.size() + 3 * i) % pool.size()]
                            : FpT::random(rng);
        }
        for (Isa isa : ff::simd::supportedIsas()) {
            IsaGuard g(isa);
            std::vector<FpT> out(n);
            ff::mulBatch(out.data(), a.data(), b.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(limbsEqual(out[i], oracle(a[i], b[i])))
                    << ff::simd::name(isa) << " mul n=" << n << " i=" << i;
            ff::sqrBatch(out.data(), a.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(limbsEqual(out[i], oracle(a[i], a[i])))
                    << ff::simd::name(isa) << " sqr n=" << n << " i=" << i;
            for (const FpT &c : pool) {
                ff::mulcBatch(out.data(), a.data(), c, n);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_TRUE(limbsEqual(out[i], oracle(a[i], c)))
                        << ff::simd::name(isa) << " mulc n=" << n
                        << " i=" << i;
            }
        }
    }
}

} // namespace

// ----------------------------------------------- dispatch mechanics

TEST(FfDispatch, SupportedIsasStartWithPortable)
{
    auto isas = ff::simd::supportedIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), Isa::Portable);
    for (Isa isa : isas)
        EXPECT_TRUE(ff::simd::isaSupported(isa));
    // bestIsa is one of them.
    EXPECT_TRUE(ff::simd::isaSupported(ff::simd::bestIsa()));
}

TEST(FfDispatch, SetActiveIsaRejectsUnsupportedArms)
{
    for (int i = 0; i < int(ff::simd::kIsaCount); ++i) {
        Isa isa = Isa(i);
        if (ff::simd::isaSupported(isa)) {
            IsaGuard g(isa);
            EXPECT_EQ(ff::simd::activeIsa(), isa);
            EXPECT_NE(ff::simd::kernels4(isa).impl, nullptr);
        } else {
            EXPECT_THROW(ff::simd::setActiveIsa(isa),
                         std::invalid_argument);
        }
    }
    EXPECT_NE(ff::simd::describeActiveIsa(), nullptr);
}

TEST(FfDispatch, ParseIsaAcceptsExactSpellingsOnly)
{
    Isa out;
    EXPECT_TRUE(ff::simd::parseIsa("portable", out));
    EXPECT_EQ(out, Isa::Portable);
    EXPECT_TRUE(ff::simd::parseIsa("avx2", out));
    EXPECT_EQ(out, Isa::Avx2);
    EXPECT_TRUE(ff::simd::parseIsa("avx512", out));
    EXPECT_EQ(out, Isa::Avx512);
    EXPECT_FALSE(ff::simd::parseIsa("auto", out));
    EXPECT_FALSE(ff::simd::parseIsa("", out));
    EXPECT_FALSE(ff::simd::parseIsa("AVX2", out));
    EXPECT_FALSE(ff::simd::parseIsa(nullptr, out));
    for (int i = 0; i < int(ff::simd::kIsaCount); ++i) {
        EXPECT_TRUE(ff::simd::parseIsa(ff::simd::name(Isa(i)), out));
        EXPECT_EQ(out, Isa(i));
    }
}

// ------------------------------------------- cross-arm bit identity

TEST(FfDispatchDifferential, EveryArmMatchesPortableOnBn254Fr)
{
    for (Isa isa : ff::simd::supportedIsas())
        expectArmMatchesPortable<Fr>(isa, 0xf00d);
}

TEST(FfDispatchDifferential, EveryArmMatchesPortableOnBn254Fq)
{
    for (Isa isa : ff::simd::supportedIsas())
        expectArmMatchesPortable<Fq>(isa, 0xbeef);
}

TEST(FfDispatchDifferential, WideFieldsBypassTheVectorArms)
{
    // 6-limb fields have no vector kernels; the batch API must give
    // the scalar results under every arm (the IsSimd4 routing).
    for (Isa isa : ff::simd::supportedIsas())
        expectArmMatchesPortable<WideFq>(isa, 0xcafe);
}

TEST(FfDispatchDifferential, KernelDigitBoundariesMatchOracle)
{
    // The IFMA core carries lazily (digits unnormalized until the
    // end), so its edge cases are digit patterns, not just values.
    expectKernelsMatchOracle<Fq>(0x1f3a);
    expectKernelsMatchOracle<Fr>(0x2b4c);
}

TEST(FfDispatchDifferential, AddSubBatchMatchOperators)
{
    // addBatch/subBatch run their own mask-select rows, not the
    // operators; hold them to the operators on the biased pool, in
    // place too.
    auto check = [](auto tag, std::uint64_t seed) {
        using FpT = decltype(tag);
        for (std::size_t n : {1, 3, 8, 64, 257}) {
            auto a = testpool::biasedPool<FpT>(n, seed);
            auto b = testpool::biasedPool<FpT>(n, seed + 1);
            std::reverse(b.begin(), b.end()); // boundary meets boundary
            std::vector<FpT> sum(n), diff(n), swapped(n);
            ff::addBatch(sum.data(), a.data(), b.data(), n);
            ff::subBatch(diff.data(), a.data(), b.data(), n);
            ff::subBatch(swapped.data(), b.data(), a.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_TRUE(limbsEqual(sum[i], a[i] + b[i])) << i;
                EXPECT_TRUE(limbsEqual(diff[i], a[i] - b[i])) << i;
                EXPECT_TRUE(limbsEqual(swapped[i], b[i] - a[i])) << i;
            }
            std::vector<FpT> x = a;
            ff::addBatch(x.data(), x.data(), x.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(limbsEqual(x[i], a[i] + a[i])) << i;
            x = a;
            ff::subBatch(x.data(), x.data(), b.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(limbsEqual(x[i], a[i] - b[i])) << i;
        }
    };
    check(Fr(), 0xadd);
    check(Fq(), 0x5ab);
    check(WideFq(), 0x51de);
}

TEST(FfDispatchDifferential, Fp2BatchOpsMatchElementwise)
{
    // Fp2 batches run as Fq rows through the active arm; every op must
    // equal the Fp2 operators, into a fresh row and in place (out == a),
    // with zeros and pure real or imaginary elements in the mix.
    using Fp2 = ff::Bn254Fp2;
    struct Op {
        const char *name;
        void (*batch)(Fp2 *out, const Fp2 *a, const Fp2 *b, std::size_t n);
        Fp2 (*one)(const Fp2 &a, const Fp2 &b);
    };
    const Op ops[] = {
        {"mul",
         [](Fp2 *o, const Fp2 *a, const Fp2 *b, std::size_t n) {
             ff::mulBatch(o, a, b, n);
         },
         [](const Fp2 &a, const Fp2 &b) { return a * b; }},
        {"sqr",
         [](Fp2 *o, const Fp2 *a, const Fp2 *, std::size_t n) {
             ff::sqrBatch(o, a, n);
         },
         [](const Fp2 &a, const Fp2 &) { return a.squared(); }},
        {"add",
         [](Fp2 *o, const Fp2 *a, const Fp2 *b, std::size_t n) {
             ff::addBatch(o, a, b, n);
         },
         [](const Fp2 &a, const Fp2 &b) { return a + b; }},
        {"sub",
         [](Fp2 *o, const Fp2 *a, const Fp2 *b, std::size_t n) {
             ff::subBatch(o, a, b, n);
         },
         [](const Fp2 &a, const Fp2 &b) { return a - b; }},
        {"inverse",
         [](Fp2 *o, const Fp2 *a, const Fp2 *, std::size_t n) {
             std::vector<Fp2> x(a, a + n);
             ff::batchInverse(x);
             std::copy(x.begin(), x.end(), o);
         },
         [](const Fp2 &a, const Fp2 &) {
             return a.isZero() ? Fp2::zero() : a.inverse();
         }},
    };
    for (Isa isa : ff::simd::supportedIsas()) {
        IsaGuard g(isa);
        for (std::size_t n : {0, 1, 7, 8, 9, 1000}) {
            testkit::Rng rng(0xf2 + n);
            std::vector<Fp2> a(n), b(n);
            for (std::size_t i = 0; i < n; ++i) {
                a[i] = Fp2::random(rng);
                b[i] = Fp2::random(rng);
            }
            for (std::size_t i = 0; i < n; i += 5)
                a[i] = Fp2::zero();
            for (std::size_t i = 1; i < n; i += 7)
                b[i] = Fp2(Fq::zero(), b[i].c1);
            for (std::size_t i = 2; i < n; i += 7)
                a[i] = Fp2(a[i].c0, Fq::zero());
            for (const Op &op : ops) {
                std::vector<Fp2> out(n), inPlace = a;
                op.batch(out.data(), a.data(), b.data(), n);
                op.batch(inPlace.data(), inPlace.data(), b.data(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    Fp2 want = op.one(a[i], b[i]);
                    EXPECT_EQ(out[i], want) << ff::simd::name(isa) << " "
                                            << op.name << " n=" << n
                                            << " i=" << i;
                    EXPECT_EQ(inPlace[i], want)
                        << ff::simd::name(isa) << " " << op.name
                        << " in place n=" << n << " i=" << i;
                }
            }
            std::vector<Fp2> x = a; // out == a == b
            ff::mulBatch(x.data(), x.data(), x.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(x[i], a[i] * a[i]) << "a*a n=" << n << " i=" << i;
        }
    }
}

TEST(FfDispatchDifferential, BlockedBatchInverseMatchesSerial)
{
    // Straddle the blocked threshold (64) and the lane width (16),
    // with zeros at lane boundaries.
    for (std::size_t n : {63, 64, 65, 80, 96, 255, 1024}) {
        auto xs = testpool::biasedPool<Fr>(n, n * 31);
        for (std::size_t i = 0; i < n; i += 17)
            xs[i] = Fr::zero();
        std::vector<Fr> serial = xs, blocked = xs;
        ff::detail::batchInverseSerial(serial);
        ff::detail::batchInverseBlocked(blocked);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(limbsEqual(blocked[i], serial[i]))
                << "n=" << n << " i=" << i;
    }
}

// ------------------------------------------------ end-to-end proofs

TEST(FfDispatchProofs, PoseidonMerkleProofBytesIdenticalPerArm)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;

    testkit::Rng crng(61);
    auto b = workload::makePoseidonMerkleCircuit<Fr>(2, 2, 1, crng);
    testkit::Rng srng(testkit::deriveSeed(61, 1));
    auto keys = G16::setup(b.cs(), srng);

    // Cross arm x thread count, every byte sequence must match.
    std::string base;
    for (Isa isa : ff::simd::supportedIsas()) {
        IsaGuard g(isa);
        for (int threads : {1, 2}) {
            testkit::Rng prng(testkit::deriveSeed(61, 2));
            auto proof =
                G16::prove(keys.pk, b.cs(), b.assignment(), prng,
                           nullptr, zkp::CpuNttEngine<Fr>(), threads);
            auto text = zkp::serializeProof<Family>(proof);
            if (base.empty()) {
                base = text;
                std::vector<Fr> pub(b.assignment().begin() + 1,
                                    b.assignment().begin() + 1 +
                                        b.cs().numPublic());
                EXPECT_TRUE(zkp::verifyBn254(keys.vk, proof, pub));
            } else {
                EXPECT_EQ(text, base) << "isa=" << ff::simd::name(isa)
                                      << " threads=" << threads;
            }
        }
    }
}
