/**
 * @file
 * Runtime-dispatched batched Montgomery kernels.
 *
 * The field hot paths that dominate prover profiles -- the shared
 * batched inversion of the batch-affine MSM scheduler, the NTT
 * butterfly rows, the chord-addition rounds of bucket accumulation --
 * all reduce to *batches of independent Montgomery multiplications*.
 * That is the one shape SIMD units like: this layer exposes batch
 * mul/sqr entry points over raw 4-limb (256-bit) elements and selects
 * an implementation arm at runtime:
 *
 *   portable  unrolled scalar CIOS, two interleaved limb chains
 *   avx2      4 elements per batch step, 32-bit-digit CIOS
 *   avx512    8 elements per batch step; radix-2^52 IFMA CIOS when
 *             the host has AVX-512 IFMA, 32-bit-digit CIOS otherwise
 *
 * Selection: GZKP_FF_ISA environment variable (auto | portable |
 * avx2 | avx512) resolved against CPUID once and cached; tests and
 * tools override programmatically with setActiveIsa() (the same
 * config pattern as runtime::setDefaultThreads). The arm is
 * process-wide because every field op in the binary dispatches
 * through it. Requesting an arm the build or the host cannot run
 * falls back to portable with a one-time stderr notice -- CI runs
 * the same test tier under explicit GZKP_FF_ISA values and relies
 * on that skip-with-notice behaviour on runners without the ISA.
 *
 * Bit-identity invariant (stronger than numeric equality): every arm
 * returns the fully-reduced canonical representation, which is a pure
 * function of the inputs. Arms are therefore interchangeable at limb
 * granularity, proofs are byte-identical across arms, and
 * tests/test_ff_dispatch.cc + the ffdispatch fuzz target assert
 * exactly that.
 *
 * Only 4-limb fields get vector arms (BN254 Fr/Fq, BLS12-381 Fr --
 * every field on the MSM/NTT hot path). 6- and 12-limb fields use the
 * scalar path regardless of the active ISA; fp.hh handles that
 * routing.
 */

#ifndef GZKP_FF_SIMD_DISPATCH_HH
#define GZKP_FF_SIMD_DISPATCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ff/simd/isa.hh"

namespace gzkp::ff::simd {

/**
 * The kernel-facing slice of MontParams<4>: modulus limbs and
 * -p^-1 mod 2^64. Kept free of fp.hh so arm translation units
 * (compiled with per-file ISA flags) need no field headers.
 */
struct Mont4 {
    std::uint64_t p[4];
    std::uint64_t inv;
};

/**
 * Batched Montgomery operations over arrays of `n` elements, each 4
 * little-endian 64-bit limbs, fully reduced (< p). Outputs are fully
 * reduced. `out` may alias `a` or `b` wholesale (no partial overlap).
 */
struct Kernels4 {
    void (*mul)(std::uint64_t *out, const std::uint64_t *a,
                const std::uint64_t *b, std::size_t n, const Mont4 &m);
    void (*sqr)(std::uint64_t *out, const std::uint64_t *a,
                std::size_t n, const Mont4 &m);
    /** out[i] = a[i] * c for one shared c (4 limbs). */
    void (*mulc)(std::uint64_t *out, const std::uint64_t *a,
                 const std::uint64_t *c, std::size_t n,
                 const Mont4 &m);
    const char *impl; //!< human-readable kernel id ("avx512-ifma", ...)
};

/** True when the arm was compiled into this binary. */
bool isaCompiled(Isa isa);

/** True when the arm is compiled *and* the host CPU can run it. */
bool isaSupported(Isa isa);

/** Every supported arm, portable first. Never empty. */
std::vector<Isa> supportedIsas();

/** The highest-preference supported arm. */
Isa bestIsa();

/**
 * The arm every batch entry point uses. Resolution order: a
 * setActiveIsa() override, else GZKP_FF_ISA, else bestIsa(). Cached;
 * reading it on the hot path is one relaxed atomic load.
 */
Isa activeIsa();

/**
 * Process-wide programmatic override (the Config hook used by tests,
 * benches and the differential registry). Throws
 * std::invalid_argument if the arm is not supported on this host, so
 * a test that wants to *try* an arm checks isaSupported() first.
 */
void setActiveIsa(Isa isa);

/** Drop the override; the next activeIsa() re-reads GZKP_FF_ISA. */
void clearActiveIsa();

/**
 * One-line description of the resolved dispatch state, e.g.
 * "avx512 (avx512-ifma), GZKP_FF_ISA=auto". For startup banners.
 */
const char *describeActiveIsa();

/** Kernel table of a specific arm (precondition: isaSupported). */
const Kernels4 &kernels4(Isa isa);

/** Kernel table of the active arm. */
inline const Kernels4 &
kernels4()
{
    return kernels4(activeIsa());
}

} // namespace gzkp::ff::simd

#endif // GZKP_FF_SIMD_DISPATCH_HH
