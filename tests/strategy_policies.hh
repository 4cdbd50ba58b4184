/**
 * @file
 * Groth16 MSM policies pinned to one bucket-accumulation strategy and
 * GLV mode, for the proof-byte cross-products over every engine
 * strategy (test_batch_affine, test_workload_proofs). The production
 * policies in zkp/groth16.hh run each engine at its defaults (batch
 * affine + GLV); these set the engine options on every call instead,
 * so one process can prove under all four (accumulator, GLV) pairs.
 */

#ifndef GZKP_TESTS_STRATEGY_POLICIES_HH
#define GZKP_TESTS_STRATEGY_POLICIES_HH

#include <vector>

#include "msm/msm_bellperson.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"

namespace gzkp::zkp::strategy {

/** The serial, bellperson and GZKP policies at one strategy pair. */
template <msm::Accumulator Acc, msm::GlvMode Glv>
struct Strategy {
    static constexpr msm::Accumulator accumulator = Acc;
    static constexpr msm::GlvMode glv = Glv;

    struct Serial {
        template <typename Cfg>
        static ec::ECPoint<Cfg>
        msm(const std::vector<ec::AffinePoint<Cfg>> &pts,
            const std::vector<typename Cfg::Scalar> &scs,
            std::size_t threads = 0)
        {
            return gzkp::msm::PippengerSerial<Cfg>(0, threads, Acc, Glv)
                .run(pts, scs);
        }
    };

    /** The bellperson engine has no GLV split; Glv does not apply. */
    struct Bellperson {
        template <typename Cfg>
        static ec::ECPoint<Cfg>
        msm(const std::vector<ec::AffinePoint<Cfg>> &pts,
            const std::vector<typename Cfg::Scalar> &scs,
            std::size_t threads = 0)
        {
            return gzkp::msm::BellpersonMsm<Cfg>(10, 0, threads, Acc)
                .run(pts, scs);
        }
    };

    struct Gzkp {
        template <typename Cfg>
        static ec::ECPoint<Cfg>
        msm(const std::vector<ec::AffinePoint<Cfg>> &pts,
            const std::vector<typename Cfg::Scalar> &scs,
            std::size_t threads = 0)
        {
            typename gzkp::msm::GzkpMsm<Cfg>::Options opt;
            opt.threads = threads;
            opt.accumulator = Acc;
            opt.glv = Glv;
            return gzkp::msm::GzkpMsm<Cfg>(opt).run(pts, scs);
        }
    };
};

/** Calls f(Strategy<Acc, Glv>{}) for all four strategy pairs. */
template <typename F>
void
forEachStrategy(F &&f)
{
    using A = msm::Accumulator;
    using G = msm::GlvMode;
    f(Strategy<A::Jacobian, G::Off>{});
    f(Strategy<A::Jacobian, G::On>{});
    f(Strategy<A::BatchAffine, G::Off>{});
    f(Strategy<A::BatchAffine, G::On>{});
}

} // namespace gzkp::zkp::strategy

#endif // GZKP_TESTS_STRATEGY_POLICIES_HH
