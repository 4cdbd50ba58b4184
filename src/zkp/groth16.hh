/**
 * @file
 * The Groth16 zkSNARK: setup, prover, and verification.
 *
 * The prover follows the paper's two-stage structure (Figure 1): the
 * POLY stage (seven NTTs, qap.hh::computeH) and the MSM stage with
 * five multi-scalar multiplications -- A (G1), B (G2), B (G1), the
 * aux/L query, and the h query. Only the h MSM reads POLY's output,
 * so every entry point runs one planned path (prove_plan.hh): POLY
 * heads the h task while the other MSMs run beside it, and each MSM
 * gets a thread share sized by its cost. Both stages take pluggable
 * engines so the same prover runs the CPU baseline, the BG-like
 * kernels, or GZKP's kernels.
 *
 * Verification:
 *  - verifyWithTrapdoor(): the test-harness self-check described in
 *    DESIGN.md -- with the setup's toxic waste and the witness it
 *    recomputes the expected exponents of A, B, C in the scalar
 *    field and compares against the proof points. Works on every
 *    family whose G1 has order r.
 *  - pairing verification (BN254 only) lives in groth16_bn254.hh.
 */

#ifndef GZKP_ZKP_GROTH16_HH
#define GZKP_ZKP_GROTH16_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "ec/fixed_base.hh"
#include "faultsim/faultsim.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "runtime/runtime.hh"
#include "zkp/families.hh"
#include "zkp/prove_plan.hh"
#include "zkp/qap.hh"

namespace gzkp::zkp {

/** MSM engine policy: serial CPU Pippenger (baseline). */
struct SerialMsmPolicy {
    template <typename Cfg>
    static ec::ECPoint<Cfg>
    msm(const std::vector<ec::AffinePoint<Cfg>> &pts,
        const std::vector<typename Cfg::Scalar> &scs,
        std::size_t threads = 0)
    {
        return gzkp::msm::PippengerSerial<Cfg>(0, threads).run(pts, scs);
    }
};

/** MSM engine policy: the GZKP MSM engine. */
struct GzkpMsmPolicy {
    template <typename Cfg>
    static ec::ECPoint<Cfg>
    msm(const std::vector<ec::AffinePoint<Cfg>> &pts,
        const std::vector<typename Cfg::Scalar> &scs,
        std::size_t threads = 0)
    {
        typename gzkp::msm::GzkpMsm<Cfg>::Options opt;
        opt.threads = threads;
        return gzkp::msm::GzkpMsm<Cfg>(opt).run(pts, scs);
    }
};

template <typename Family>
class Groth16
{
  public:
    using Fr = typename Family::Fr;
    using G1 = ec::ECPoint<typename Family::G1Cfg>;
    using G2 = ec::ECPoint<typename Family::G2Cfg>;
    using G1Affine = ec::AffinePoint<typename Family::G1Cfg>;
    using G2Affine = ec::AffinePoint<typename Family::G2Cfg>;

    struct ProvingKey {
        std::size_t numVars = 0;
        std::size_t numPublic = 0;
        std::size_t domainLog = 0;
        G1Affine alphaG1, betaG1, deltaG1;
        G2Affine betaG2, deltaG2;
        std::vector<G1Affine> aQuery;  //!< A_i(tau), all variables
        std::vector<G1Affine> b1Query; //!< B_i(tau) in G1
        std::vector<G2Affine> b2Query; //!< B_i(tau) in G2
        std::vector<G1Affine> lQuery;  //!< aux-variable query (/delta)
        std::vector<G1Affine> hQuery;  //!< tau^j Z(tau)/delta
    };

    struct VerifyingKey {
        G1Affine alphaG1;
        G2Affine betaG2, gammaG2, deltaG2;
        std::vector<G1Affine> ic; //!< public-input query (/gamma)
    };

    /** The setup's toxic waste, kept only for the test self-check. */
    struct Trapdoor {
        Fr tau, alpha, beta, gamma, delta;
    };

    struct Proof {
        G1Affine a;
        G2Affine b;
        G1Affine c;
    };

    /** Prover randomness, exposed for verifyWithTrapdoor(). */
    struct ProofAux {
        Fr r, s;
    };

    struct Keys {
        ProvingKey pk;
        VerifyingKey vk;
        Trapdoor td;
    };

    template <typename Rng>
    static Keys
    setup(const R1cs<Fr> &cs, Rng &rng)
    {
        std::size_t dlog = domainLogFor(cs.numConstraints());
        ntt::Domain<Fr> dom(dlog);

        Trapdoor td;
        td.tau = nonzeroRandom(rng);
        td.alpha = nonzeroRandom(rng);
        td.beta = nonzeroRandom(rng);
        td.gamma = nonzeroRandom(rng);
        td.delta = nonzeroRandom(rng);

        auto q = evaluateQapAt(cs, dom, td.tau);
        Fr gamma_inv = td.gamma.inverse();
        Fr delta_inv = td.delta.inverse();

        ec::FixedBaseMul<typename Family::G1Cfg> g1(G1::generator());
        ec::FixedBaseMul<typename Family::G2Cfg> g2(G2::generator());

        Keys keys;
        ProvingKey &pk = keys.pk;
        pk.numVars = cs.numVars();
        pk.numPublic = cs.numPublic();
        pk.domainLog = dlog;
        pk.alphaG1 = g1.mul(td.alpha).toAffine();
        pk.betaG1 = g1.mul(td.beta).toAffine();
        pk.deltaG1 = g1.mul(td.delta).toAffine();
        pk.betaG2 = g2.mul(td.beta).toAffine();
        pk.deltaG2 = g2.mul(td.delta).toAffine();

        std::size_t nv = cs.numVars();
        std::vector<G1> tmp1(nv);
        for (std::size_t i = 0; i < nv; ++i)
            tmp1[i] = g1.mul(q.a[i]);
        pk.aQuery = ec::batchToAffine<typename Family::G1Cfg>(tmp1);
        for (std::size_t i = 0; i < nv; ++i)
            tmp1[i] = g1.mul(q.b[i]);
        pk.b1Query = ec::batchToAffine<typename Family::G1Cfg>(tmp1);
        std::vector<G2> tmp2(nv);
        for (std::size_t i = 0; i < nv; ++i)
            tmp2[i] = g2.mul(q.b[i]);
        pk.b2Query = ec::batchToAffine<typename Family::G2Cfg>(tmp2);

        // L query (aux variables) and IC (public variables).
        std::size_t npub = cs.numPublic();
        std::vector<G1> ltmp(nv - npub - 1);
        std::vector<G1> ictmp(npub + 1);
        for (std::size_t i = 0; i < nv; ++i) {
            Fr e = td.beta * q.a[i] + td.alpha * q.b[i] + q.c[i];
            if (i <= npub)
                ictmp[i] = g1.mul(e * gamma_inv);
            else
                ltmp[i - npub - 1] = g1.mul(e * delta_inv);
        }
        pk.lQuery = ec::batchToAffine<typename Family::G1Cfg>(ltmp);
        keys.vk.ic = ec::batchToAffine<typename Family::G1Cfg>(ictmp);

        // h query: tau^j * Z(tau) / delta for j = 0 .. N-2.
        std::size_t n = dom.size();
        std::vector<G1> htmp(n - 1);
        Fr cur = q.zTau * delta_inv;
        for (std::size_t j = 0; j + 1 < n; ++j) {
            htmp[j] = g1.mul(cur);
            cur *= td.tau;
        }
        pk.hQuery = ec::batchToAffine<typename Family::G1Cfg>(htmp);

        keys.vk.alphaG1 = pk.alphaG1;
        keys.vk.betaG2 = pk.betaG2;
        keys.vk.gammaG2 = g2.mul(td.gamma).toAffine();
        keys.vk.deltaG2 = pk.deltaG2;
        keys.td = td;
        return keys;
    }

    /**
     * The five MSM-stage results, kept separate so a scheduler can
     * run the stage on one executor and combine on another.
     */
    struct MsmOutputs {
        G1 a;  //!< over aQuery and z
        G2 b2; //!< over b2Query and z
        G1 b1; //!< over b1Query and z
        G1 l;  //!< over lQuery and the aux slice of z
        G1 h;  //!< over hQuery and the h polynomial
    };

    /**
     * POLY stage: the seven NTTs producing the h polynomial, exactly
     * as prove() runs them. A pure function of (pk, cs, z) -- the
     * prover randomness (r, s) is *not* drawn here, so a placement
     * scheduler can run this stage anywhere, draw (r, s) from the
     * request rng afterwards, and still match the single-lane
     * prove() bytes draw for draw.
     */
    template <typename NttEngine = CpuNttEngine<Fr>>
    static std::vector<Fr>
    polyStage(const ProvingKey &pk, const R1cs<Fr> &cs,
              const std::vector<Fr> &z, const ntt::Domain<Fr> &dom,
              const NttEngine &ntt_engine = NttEngine())
    {
        auto h = computeH(dom, polyInputs(cs, z, dom), ntt_engine);
        h.resize(pk.hQuery.size()); // degree <= N-2
        // Simulated soft error on the POLY-stage output held in
        // device memory between the two prover stages.
        faultsim::maybeCorruptElement(faultsim::FaultKind::BitFlip,
                                      h.data(), h.size(),
                                      "groth16.poly.h", 0);
        return h;
    }

    /**
     * MSM stage over a computed h: the five MSMs on the planned path,
     * each on its planned thread share. Every MSM engine is itself
     * thread-count deterministic and the results are combined
     * (assembleProof) in a fixed order, so the proof bytes are
     * identical at any thread count.
     */
    template <typename MsmPolicy = GzkpMsmPolicy>
    static MsmOutputs
    msmStage(const ProvingKey &pk, const std::vector<Fr> &z,
             const std::vector<Fr> &h, std::size_t threads = 0)
    {
        return runPlanned<MsmPolicy>(pk, KeyQueries{pk}, z, h, threads);
    }

    /**
     * Fold the five MSM results and the prover randomness into the
     * three proof points. Fixed combination order: the bytes depend
     * only on the inputs, never on where the MSMs ran.
     */
    static Proof
    assembleProof(const ProvingKey &pk, const MsmOutputs &m,
                  const Fr &r, const Fr &s)
    {
        G1 a_pt = G1::fromAffine(pk.alphaG1) + m.a +
            G1::fromAffine(pk.deltaG1).mul(r);
        G2 b2_pt = G2::fromAffine(pk.betaG2) + m.b2 +
            G2::fromAffine(pk.deltaG2).mul(s);
        G1 b1_pt = G1::fromAffine(pk.betaG1) + m.b1 +
            G1::fromAffine(pk.deltaG1).mul(s);
        G1 c_pt = m.l + m.h + a_pt.mul(s) + b1_pt.mul(r) -
            G1::fromAffine(pk.deltaG1).mul(r * s);

        Proof p;
        p.a = a_pt.toAffine();
        p.b = b2_pt.toAffine();
        p.c = c_pt.toAffine();
        return p;
    }

    /**
     * Generate a proof. `z` is the full assignment (with z[0] = 1),
     * already checked to satisfy the constraint system.
     *
     * `threads` is the CPU runtime budget (0 = GZKP_THREADS default),
     * shared between POLY and the five MSMs by the plan. The stage
     * split is an implementation boundary only -- for the same rng
     * stream the bytes are identical whether the stages run here
     * side by side or on two different devices (pinned by
     * tests/test_device.cc).
     */
    template <typename MsmPolicy = GzkpMsmPolicy,
              typename NttEngine = CpuNttEngine<Fr>, typename Rng>
    static Proof
    prove(const ProvingKey &pk, const R1cs<Fr> &cs,
          const std::vector<Fr> &z, Rng &rng, ProofAux *aux = nullptr,
          const NttEngine &ntt_engine = NttEngine(),
          std::size_t threads = 0)
    {
        if (z.size() != pk.numVars)
            throw std::invalid_argument("Groth16::prove: bad witness");
        ntt::Domain<Fr> dom(pk.domainLog);
        return provePlanned<MsmPolicy>(pk, KeyQueries{pk}, cs, z, rng, aux,
                                       dom, ntt_engine, threads);
    }

    /**
     * The reusable per-circuit MSM artifacts: Algorithm-1 weighted-
     * point tables for all five proving-key queries. A proving key
     * never changes per application (Section 4.1), so these are the
     * dominant one-time cost the serving layer amortizes across
     * proofs -- build once (buildMsmArtifacts() in
     * prover_pipeline.hh), then hand the same tables to every
     * proveWithArtifacts() call for that circuit.
     */
    struct MsmArtifacts {
        using G1Pre =
            typename msm::GzkpMsm<typename Family::G1Cfg>::Preprocessed;
        using G2Pre =
            typename msm::GzkpMsm<typename Family::G2Cfg>::Preprocessed;

        G1Pre a;  //!< aQuery table (MSM 1)
        G2Pre b2; //!< b2Query table (MSM 2)
        G1Pre b1; //!< b1Query table (MSM 3)
        G1Pre l;  //!< lQuery table (MSM 4)
        G1Pre h;  //!< hQuery table (MSM 5)

        /** Matches this proving key's query shapes? */
        bool
        matches(const ProvingKey &pk) const
        {
            return a.n == pk.aQuery.size() &&
                b2.n == pk.b2Query.size() &&
                b1.n == pk.b1Query.size() &&
                l.n == pk.lQuery.size() && h.n == pk.hQuery.size();
        }

        /** Sum of the five tables' host footprints (cache budget). */
        std::uint64_t
        bytes() const
        {
            return a.bytes() + b2.bytes() + b1.bytes() + l.bytes() +
                h.bytes();
        }
    };

    /**
     * prove() over cached MSM artifacts and a cached NTT domain: the
     * GZKP engine's run() phase only, with Algorithm-1 preprocessing
     * and twiddle construction skipped entirely. Preprocessing is a
     * pure deterministic function of the key, so for the same rng
     * stream the returned proof is byte-identical to
     * prove<GzkpMsmPolicy>() rebuilding the tables from scratch --
     * the property the warm-cache serving tests pin down.
     */
    template <typename NttEngine = CpuNttEngine<Fr>, typename Rng>
    static Proof
    proveWithArtifacts(const ProvingKey &pk, const R1cs<Fr> &cs,
                       const std::vector<Fr> &z, Rng &rng,
                       const MsmArtifacts &art,
                       const ntt::Domain<Fr> &dom,
                       ProofAux *aux = nullptr,
                       const NttEngine &ntt_engine = NttEngine(),
                       std::size_t threads = 0)
    {
        if (z.size() != pk.numVars)
            throw std::invalid_argument("Groth16::prove: bad witness");
        if (dom.logSize() != pk.domainLog)
            throw std::invalid_argument(
                "Groth16::proveWithArtifacts: domain mismatch");
        if (!art.matches(pk))
            throw std::invalid_argument(
                "Groth16::proveWithArtifacts: artifacts do not match "
                "proving key");

        return provePlanned<CachedMsm>(pk, art, cs, z, rng, aux, dom,
                                       ntt_engine, threads);
    }

    /**
     * msmStage() over cached Algorithm-1 tables: the GZKP engine's
     * run() phase only. Preprocessing is a pure deterministic
     * function of the key, so the outputs are bit-identical to
     * msmStage<GzkpMsmPolicy>() rebuilding the tables from scratch.
     */
    static MsmOutputs
    msmStageWithArtifacts(const ProvingKey &pk, const MsmArtifacts &art,
                          const std::vector<Fr> &z,
                          const std::vector<Fr> &h,
                          std::size_t threads = 0)
    {
        return runPlanned<CachedMsm>(pk, art, z, h, threads);
    }

    /**
     * Test-harness verification with the trapdoor, the witness, and
     * the prover randomness: recomputes the expected exponents of
     * A, B, C and checks the proof points against generator
     * multiples. Any error in either prover stage is caught here.
     */
    static bool
    verifyWithTrapdoor(const Keys &keys, const R1cs<Fr> &cs,
                       const std::vector<Fr> &z, const Proof &proof,
                       const ProofAux &aux)
    {
        ntt::Domain<Fr> dom(keys.pk.domainLog);
        auto q = evaluateQapAt(cs, dom, keys.td.tau);

        Fr a_exp = keys.td.alpha + aux.r * keys.td.delta;
        Fr b_exp = keys.td.beta + aux.s * keys.td.delta;
        Fr a_lin = Fr::zero(), b_lin = Fr::zero(), c_lin = Fr::zero();
        for (std::size_t i = 0; i < z.size(); ++i) {
            a_lin += z[i] * q.a[i];
            b_lin += z[i] * q.b[i];
            c_lin += z[i] * q.c[i];
        }
        a_exp += a_lin;
        b_exp += b_lin;

        // H(tau) Z(tau) = A(tau) B(tau) - C(tau) by the QAP identity.
        Fr hz = a_lin * b_lin - c_lin;
        Fr l_sum = Fr::zero();
        for (std::size_t i = keys.pk.numPublic + 1; i < z.size(); ++i) {
            l_sum += z[i] * (keys.td.beta * q.a[i] +
                             keys.td.alpha * q.b[i] + q.c[i]);
        }
        Fr c_exp = (l_sum + hz) * keys.td.delta.inverse() +
            aux.s * a_exp + aux.r * b_exp -
            aux.r * aux.s * keys.td.delta;

        if (G1::fromAffine(proof.a) != G1::generator().mul(a_exp))
            return false;
        if (G2::fromAffine(proof.b) != G2::generator().mul(b_exp))
            return false;
        if (G1::fromAffine(proof.c) != G1::generator().mul(c_exp))
            return false;
        return true;
    }

  private:
    /** The proving key's five queries, named as MsmArtifacts' tables. */
    struct KeyQueries {
        const std::vector<G1Affine> &a, &b1, &l, &h;
        const std::vector<G2Affine> &b2;

        explicit KeyQueries(const ProvingKey &pk)
            : a(pk.aQuery), b1(pk.b1Query), l(pk.lQuery), h(pk.hQuery),
              b2(pk.b2Query)
        {}
    };

    /**
     * MSM policy over cached tables: run() with the exact engine
     * configuration GzkpMsmPolicy builds (Options defaults + thread
     * share), so warm and cold paths compute bit-identical points.
     * Without preprocessing, the bucket phase is most of a run, so
     * its task groups bound the threads an MSM can use (taskGroups();
     * the other policies scale with their share).
     */
    struct CachedMsm {
        template <typename Pre>
        using CfgOf = std::conditional_t<
            std::is_same_v<Pre, typename MsmArtifacts::G1Pre>,
            typename Family::G1Cfg, typename Family::G2Cfg>;

        template <typename Pre>
        static auto
        msm(const Pre &pp, const std::vector<Fr> &scalars, std::size_t t)
        {
            typename msm::GzkpMsm<CfgOf<Pre>>::Options o;
            o.threads = t;
            return msm::GzkpMsm<CfgOf<Pre>>(o).run(pp, scalars);
        }

        template <typename Pre>
        static std::size_t
        taskGroups(const Pre &pp)
        {
            return msm::GzkpMsm<CfgOf<Pre>>().taskGroups(pp);
        }
    };

    /**
     * The planned prove: POLY heads the h task, and (r, s) are drawn
     * the moment POLY returns, so they stay the first two draws of
     * `rng` and a POLY fault leaves the stream untouched, as when
     * POLY ran alone first.
     */
    template <typename Engine, typename Sources, typename NttEngine,
              typename Rng>
    static Proof
    provePlanned(const ProvingKey &pk, const Sources &src,
                 const R1cs<Fr> &cs, const std::vector<Fr> &z, Rng &rng,
                 ProofAux *aux, const ntt::Domain<Fr> &dom,
                 const NttEngine &ntt_engine, std::size_t threads)
    {
        std::vector<Fr> h;
        Fr r, s;
        auto poly = [&] {
            h = polyStage(pk, cs, z, dom, ntt_engine);
            r = Fr::random(rng);
            s = Fr::random(rng);
        };
        MsmOutputs m = runPlanned<Engine>(pk, src, z, h, threads, poly);
        if (aux) {
            aux->r = r;
            aux->s = s;
        }
        return assembleProof(pk, m, r, s);
    }

    /**
     * The one planned path under every entry point: plan the five MSMs
     * (and POLY, when `poly` is set) on the resolved budget and the
     * engine's task groups, when it reports them, then run the plan's
     * waves through parallelInvoke with its shares. `h` is
     * read only by the h task, after POLY when POLY is in the plan.
     */
    template <typename Engine, typename Sources>
    static MsmOutputs
    runPlanned(const ProvingKey &pk, const Sources &src,
               const std::vector<Fr> &z, const std::vector<Fr> &h,
               std::size_t threads,
               const std::function<void()> &poly = nullptr)
    {
        std::size_t budget = runtime::resolveThreads(threads);
        std::optional<double> polyCost;
        if (poly)
            polyCost = kPolyCostPerDomainPoint *
                double(std::size_t(1) << pk.domainLog);
        MsmGroups groups{};
        if constexpr (requires { Engine::taskGroups(src.a); })
            groups = {Engine::taskGroups(src.a), Engine::taskGroups(src.b2),
                      Engine::taskGroups(src.b1), Engine::taskGroups(src.l),
                      Engine::taskGroups(src.h)};
        ProvePlan plan = planProve({pk.aQuery.size(), pk.b2Query.size(),
                                    pk.b1Query.size(), pk.lQuery.size(),
                                    pk.hQuery.size()},
                                   polyCost, budget, groups);

        std::vector<Fr> aux_scalars(z.begin() + pk.numPublic + 1,
                                    z.end());
        MsmOutputs m;
        auto run = [&](ProveTask task, std::size_t t) {
            switch (task) {
            case ProveTask::A: m.a = Engine::msm(src.a, z, t); break;
            case ProveTask::B2: m.b2 = Engine::msm(src.b2, z, t); break;
            case ProveTask::B1: m.b1 = Engine::msm(src.b1, z, t); break;
            case ProveTask::L:
                m.l = Engine::msm(src.l, aux_scalars, t);
                break;
            case ProveTask::H: m.h = Engine::msm(src.h, h, t); break;
            case ProveTask::Poly: poly(); break;
            }
        };
        for (const PlanWave &wave : plan.waves) {
            std::vector<std::function<void(std::size_t)>> lanes;
            std::vector<std::size_t> shares;
            for (const PlanLane &lane : wave) {
                lanes.push_back([&run, &lane](std::size_t t) {
                    for (ProveTask task : lane.tasks)
                        run(task, t);
                });
                shares.push_back(lane.share);
            }
            runtime::parallelInvoke(budget, lanes, shares);
        }
        return m;
    }

    template <typename Rng>
    static Fr
    nonzeroRandom(Rng &rng)
    {
        for (;;) {
            Fr v = Fr::random(rng);
            if (!v.isZero())
                return v;
        }
    }
};

} // namespace gzkp::zkp

#endif // GZKP_ZKP_GROTH16_HH
