/**
 * @file
 * Curve configurations for the three families in the paper's
 * Table 1: ALT-BN128 (G1 and G2), BLS12-381 (G1), MNT4753-sim (G1).
 *
 * All generator constants for BN254 and BLS12-381 are the standard
 * published values (validated against independent computation; the
 * unit tests additionally assert r * G == identity). MNT4753-sim is
 * the synthetic 753-bit configuration described in DESIGN.md.
 */

#ifndef GZKP_EC_CURVES_HH
#define GZKP_EC_CURVES_HH

#include "ec/point.hh"
#include "ff/bn254_tower.hh"
#include "ff/field_tags.hh"

namespace gzkp::ec {

/** ALT-BN128 G1: y^2 = x^3 + 3 over Fq, generator (1, 2). */
struct Bn254G1Cfg {
    using Field = ff::Bn254Fq;
    using Scalar = ff::Bn254Fr;
    static constexpr bool kAZero = true;
    static Field a() { return Field::zero(); }
    static Field b() { return Field::fromUint64(3); }
    static Field genX() { return Field::one(); }
    static Field genY() { return Field::fromUint64(2); }
    static const char *name() { return "bn254.G1"; }
};
using Bn254G1 = ECPoint<Bn254G1Cfg>;
using Bn254G1Affine = AffinePoint<Bn254G1Cfg>;

/**
 * ALT-BN128 G2: y^2 = x^3 + 3/(9+u) over Fp2, order-r subgroup
 * generator from the standard (Ethereum precompile) constants.
 */
struct Bn254G2Cfg {
    using Field = ff::Bn254Fp2;
    using Scalar = ff::Bn254Fr;
    static constexpr bool kAZero = true;
    static Field a() { return Field::zero(); }
    static Field
    b()
    {
        static const Field v = Field(ff::Bn254Fq::fromUint64(3),
                                     ff::Bn254Fq::zero()) *
            ff::Bn254Fp6Cfg::xi().inverse();
        return v;
    }
    static Field
    genX()
    {
        static const Field v(
            ff::Bn254Fq::fromHex("0x1800deef121f1e76426a00665e5c44796"
                                 "74322d4f75edadd46debd5cd992f6ed"),
            ff::Bn254Fq::fromHex("0x198e9393920d483a7260bfb731fb5d25f"
                                 "1aa493335a9e71297e485b7aef312c2"));
        return v;
    }
    static Field
    genY()
    {
        static const Field v(
            ff::Bn254Fq::fromHex("0x12c85ea5db8c6deb4aab71808dcb408fe"
                                 "3d1e7690c43d37b4ce6cc0166fa7daa"),
            ff::Bn254Fq::fromHex("0x90689d0585ff075ec9e99ad690c3395b"
                                 "c4b313370b38ef355acdadcd122975b"));
        return v;
    }
    static const char *name() { return "bn254.G2"; }
};
using Bn254G2 = ECPoint<Bn254G2Cfg>;
using Bn254G2Affine = AffinePoint<Bn254G2Cfg>;

/** BLS12-381 G1: y^2 = x^3 + 4 over Fq. */
struct Bls381G1Cfg {
    using Field = ff::Bls381Fq;
    using Scalar = ff::Bls381Fr;
    static constexpr bool kAZero = true;
    static Field a() { return Field::zero(); }
    static Field b() { return Field::fromUint64(4); }
    static Field
    genX()
    {
        static const Field v = Field::fromHex(
            "0x17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905"
            "a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb");
        return v;
    }
    static Field
    genY()
    {
        static const Field v = Field::fromHex(
            "0x08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af6"
            "00db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1");
        return v;
    }
    static const char *name() { return "bls12_381.G1"; }
};
using Bls381G1 = ECPoint<Bls381G1Cfg>;
using Bls381G1Affine = AffinePoint<Bls381G1Cfg>;

/**
 * MNT4753-sim G1: y^2 = x^3 + 2x + 5 over the synthetic 753-bit q.
 * Exercises the 12-limb (753-bit) code paths of every kernel; used
 * for timing-shape experiments only (see DESIGN.md substitutions).
 */
struct Mnt4753G1Cfg {
    using Field = ff::Mnt4753Fq;
    using Scalar = ff::Mnt4753Fr;
    static constexpr bool kAZero = false;
    static Field a() { return Field::fromUint64(2); }
    static Field b() { return Field::fromUint64(5); }
    static Field genX() { return Field::fromUint64(4); }
    static Field
    genY()
    {
        static const Field v = Field::fromHex(
            "0x10b71bd731e7406378f7ed0e6068be13011f0f6397956143a4f5cdc2"
            "c0db98cc4bf24a2d3bc32780cd6a582d89f480586368fe93b539e2c253"
            "54b6530c0b85745b8b5957f523c0153be76014431f02e9b5a86101de74"
            "b12bf2851d56e197b");
        return v;
    }
    static const char *name() { return "mnt4753_sim.G1"; }
};
using Mnt4753G1 = ECPoint<Mnt4753G1Cfg>;
using Mnt4753G1Affine = AffinePoint<Mnt4753G1Cfg>;

} // namespace gzkp::ec

#endif // GZKP_EC_CURVES_HH
