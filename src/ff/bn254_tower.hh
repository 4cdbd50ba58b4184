/**
 * @file
 * BN254 (ALT-BN128) instantiation of the extension tower.
 *
 *   Fp2  = Fq[u] / (u^2 + 1)
 *   Fp6  = Fp2[v] / (v^3 - (9 + u))
 *   Fp12 = Fp6[w] / (w^2 - v)
 */

#ifndef GZKP_FF_BN254_TOWER_HH
#define GZKP_FF_BN254_TOWER_HH

#include "ff/field_tags.hh"
#include "ff/tower.hh"

namespace gzkp::ff {

struct Bn254Fp2Cfg {
    using Fq = Bn254Fq;
    static Fq
    beta()
    {
        static const Fq b = -Fq::one();
        return b;
    }
    static Fq mulByBeta(const Fq &a) { return -a; }
};
using Bn254Fp2 = Fp2T<Bn254Fp2Cfg>;

struct Bn254Fp6Cfg {
    using Fp2 = Bn254Fp2;
    static Fp2
    xi()
    {
        static const Fp2 x(Bn254Fq::fromUint64(9), Bn254Fq::one());
        return x;
    }
    /** (9 + u)(a0 + a1 u) = (9 a0 - a1) + (9 a1 + a0) u, as adds. */
    static Fp2
    mulByXi(const Fp2 &a)
    {
        Bn254Fq nine0 = a.c0.dbl().dbl().dbl() + a.c0;
        Bn254Fq nine1 = a.c1.dbl().dbl().dbl() + a.c1;
        return Fp2(nine0 - a.c1, nine1 + a.c0);
    }
};
using Bn254Fp6 = Fp6T<Bn254Fp6Cfg>;

struct Bn254Fp12Cfg {
    using Fp6 = Bn254Fp6;
};
using Bn254Fp12 = Fp12T<Bn254Fp12Cfg>;

} // namespace gzkp::ff

#endif // GZKP_FF_BN254_TOWER_HH
