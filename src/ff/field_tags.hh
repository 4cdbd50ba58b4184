/**
 * @file
 * Field tag definitions for the three curve families GZKP supports
 * (paper Table 1): ALT-BN128 (256-bit), BLS12-381 (381-bit), and
 * MNT4753 (753-bit).
 *
 * The BN254 ("ALT-BN128") and BLS12-381 constants are the standard,
 * widely deployed values. The 753-bit pair is MNT4753-sim: a
 * synthetic field pair of the same bit-width and NTT-friendliness
 * (scalar field 2-adicity 30, base field q = 3 mod 4), generated
 * offline with Miller-Rabin -- see DESIGN.md, substitution table.
 */

#ifndef GZKP_FF_FIELD_TAGS_HH
#define GZKP_FF_FIELD_TAGS_HH

#include <cstddef>

#include "ff/fp.hh"

namespace gzkp::ff {

/** Scalar field Fr of ALT-BN128 (aka BN254); 2-adicity 28. */
struct Bn254FrTag {
    static constexpr std::size_t kLimbs = 4;
    static constexpr const char *
    modulusHex()
    {
        return "0x30644e72e131a029b85045b68181585d"
               "2833e84879b9709143e1f593f0000001";
    }
    static const char *name() { return "bn254.Fr"; }
};

/** Base field Fq of ALT-BN128. */
struct Bn254FqTag {
    static constexpr std::size_t kLimbs = 4;
    static constexpr const char *
    modulusHex()
    {
        return "0x30644e72e131a029b85045b68181585d"
               "97816a916871ca8d3c208c16d87cfd47";
    }
    static const char *name() { return "bn254.Fq"; }
};

/** Scalar field Fr of BLS12-381; 2-adicity 32. */
struct Bls381FrTag {
    static constexpr std::size_t kLimbs = 4;
    static constexpr const char *
    modulusHex()
    {
        return "0x73eda753299d7d483339d80809a1d805"
               "53bda402fffe5bfeffffffff00000001";
    }
    static const char *name() { return "bls12_381.Fr"; }
};

/** Base field Fq of BLS12-381 (381 bits, 6 limbs). */
struct Bls381FqTag {
    static constexpr std::size_t kLimbs = 6;
    static constexpr const char *
    modulusHex()
    {
        return "0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf"
               "6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab";
    }
    static const char *name() { return "bls12_381.Fq"; }
};

/**
 * Scalar field of MNT4753-sim: a 753-bit prime r = c * 2^30 + 1
 * (2-adicity exactly 30, like the real MNT4-753 scalar field).
 */
struct Mnt4753FrTag {
    static constexpr std::size_t kLimbs = 12;
    static constexpr const char *
    modulusHex()
    {
        return "0x1944a43d66e9d1fc9c552451118ab442345282c28050fa5c93b58373"
               "9cff2e199195a47adab045217130a06842d08059e6e169500f8d2c2253"
               "2616542c07fe53e143fe6985007c9c985435b663b5af9de3bbd164527c"
               "78a763db5c0000001";
    }
    static const char *name() { return "mnt4753_sim.Fr"; }
};

/**
 * Base field of MNT4753-sim: a 753-bit prime with q = 3 mod 4 so
 * curve points can be sampled via the simple square root.
 */
struct Mnt4753FqTag {
    static constexpr std::size_t kLimbs = 12;
    static constexpr const char *
    modulusHex()
    {
        return "0x1799c46381c18aa304edb4f17b7481cbfe1206e8509195d254aed345"
               "cea16aca5903053abc2569b177872a64102e2b601e7bad1592a931ce91"
               "845d2528179441434ab6e7a1cb40001b9e0ce7c0e1c7074b79f4372"
               "6d432bcfa6285e1ca64b";
    }
    static const char *name() { return "mnt4753_sim.Fq"; }
};

using Bn254Fr = Fp<Bn254FrTag>;
using Bn254Fq = Fp<Bn254FqTag>;
using Bls381Fr = Fp<Bls381FrTag>;
using Bls381Fq = Fp<Bls381FqTag>;
using Mnt4753Fr = Fp<Mnt4753FrTag>;
using Mnt4753Fq = Fp<Mnt4753FqTag>;

} // namespace gzkp::ff

#endif // GZKP_FF_FIELD_TAGS_HH
