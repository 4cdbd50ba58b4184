/**
 * @file
 * QAP reduction and the prover's POLY stage.
 *
 * Setup side: evaluate the QAP polynomials A_i, B_i, C_i (defined by
 * interpolation of the constraint matrices over the domain) at the
 * secret point tau, via Lagrange coefficients with batch inversion.
 *
 * Prover side: computeH() is the POLY stage of Figure 1 -- it turns
 * the per-constraint inner products (the paper's vectors a, b, c)
 * into the coefficient vector h of
 *
 *     H(x) = (A(x) B(x) - C(x)) / (x^N - 1)
 *
 * using exactly seven NTT-sized transforms (3 INTT + 3 coset NTT +
 * 1 coset INTT), matching the paper's "seven NTT operations in the
 * POLY stage" accounting. The NTT engine is pluggable so the same
 * code path runs the CPU reference, the BG variant, or GZKP's
 * shuffle-less kernel.
 */

#ifndef GZKP_ZKP_QAP_HH
#define GZKP_ZKP_QAP_HH

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "ff/fp.hh"
#include "ntt/domain.hh"
#include "ntt/ntt_cpu.hh"
#include "zkp/r1cs.hh"

namespace gzkp::zkp {

/** Smallest power-of-two exponent with 2^e >= n (and >= 1). */
inline std::size_t
domainLogFor(std::size_t n)
{
    std::size_t e = 0;
    while ((std::size_t(1) << e) < n)
        ++e;
    return e == 0 ? 1 : e;
}

/**
 * Evaluations of all Lagrange basis polynomials at tau:
 * L_j(tau) = (tau^N - 1)/N * omega^j / (tau - omega^j).
 */
template <typename Fr>
std::vector<Fr>
lagrangeAt(const ntt::Domain<Fr> &dom, const Fr &tau)
{
    std::size_t n = dom.size();
    std::vector<Fr> denom(n);
    Fr wj = Fr::one();
    for (std::size_t j = 0; j < n; ++j) {
        denom[j] = tau - wj;
        wj *= dom.omega();
    }
    ff::batchInverse(denom);

    Fr z = tau;
    for (std::size_t i = 0; i < dom.logSize(); ++i)
        z = z.squared();
    z = z - Fr::one(); // tau^N - 1
    Fr scale = z * dom.nInv();

    std::vector<Fr> out(n);
    wj = Fr::one();
    for (std::size_t j = 0; j < n; ++j) {
        out[j] = scale * wj * denom[j];
        wj *= dom.omega();
    }
    return out;
}

/** Per-variable QAP evaluations at tau (setup-time). */
template <typename Fr>
struct QapEvaluation {
    std::vector<Fr> a, b, c; //!< indexed by variable
    Fr zTau;                 //!< Z(tau) = tau^N - 1
};

template <typename Fr>
QapEvaluation<Fr>
evaluateQapAt(const R1cs<Fr> &cs, const ntt::Domain<Fr> &dom,
              const Fr &tau)
{
    if (cs.numConstraints() > dom.size())
        throw std::invalid_argument("evaluateQapAt: domain too small");
    auto lag = lagrangeAt(dom, tau);
    QapEvaluation<Fr> q;
    q.a.assign(cs.numVars(), Fr::zero());
    q.b.assign(cs.numVars(), Fr::zero());
    q.c.assign(cs.numVars(), Fr::zero());
    const auto &cons = cs.constraints();
    for (std::size_t j = 0; j < cons.size(); ++j) {
        for (const auto &[v, coeff] : cons[j].a.terms)
            q.a[v] += coeff * lag[j];
        for (const auto &[v, coeff] : cons[j].b.terms)
            q.b[v] += coeff * lag[j];
        for (const auto &[v, coeff] : cons[j].c.terms)
            q.c[v] += coeff * lag[j];
    }
    Fr z = tau;
    for (std::size_t i = 0; i < dom.logSize(); ++i)
        z = z.squared();
    q.zTau = z - Fr::one();
    return q;
}

/**
 * The paper's input vectors for one proof: a, b, c are the
 * per-constraint inner products <a_j, z>, padded to the domain size.
 */
template <typename Fr>
struct PolyInputs {
    std::vector<Fr> a, b, c;
};

template <typename Fr>
PolyInputs<Fr>
polyInputs(const R1cs<Fr> &cs, const std::vector<Fr> &z,
           const ntt::Domain<Fr> &dom)
{
    PolyInputs<Fr> in;
    std::size_t n = dom.size();
    in.a.assign(n, Fr::zero());
    in.b.assign(n, Fr::zero());
    in.c.assign(n, Fr::zero());
    // Per chunk of constraints, every term's coefficient and witness
    // value are gathered into two rows and multiplied by one batched
    // kernel call; each linear combination then sums its run of
    // products in term order, as LinComb::evaluate does.
    constexpr std::size_t kChunk = 256;
    const auto &cons = cs.constraints();
    std::vector<Fr> prod, val;
    std::vector<std::size_t> ends;
    for (std::size_t lo = 0; lo < cons.size(); lo += kChunk) {
        std::size_t hi = std::min(cons.size(), lo + kChunk);
        prod.clear();
        val.clear();
        ends.clear();
        for (std::size_t j = lo; j < hi; ++j)
            for (const auto *lc : {&cons[j].a, &cons[j].b, &cons[j].c}) {
                for (const auto &[v, coeff] : lc->terms) {
                    prod.push_back(coeff);
                    val.push_back(z[v]);
                }
                ends.push_back(prod.size());
            }
        ff::mulBatch(prod.data(), prod.data(), val.data(), prod.size());
        std::size_t e = 0, lc = 0;
        for (std::size_t j = lo; j < hi; ++j)
            for (auto *out : {&in.a, &in.b, &in.c}) {
                Fr acc = Fr::zero();
                for (; e < ends[lc]; ++e)
                    acc += prod[e];
                (*out)[j] = acc;
                ++lc;
            }
    }
    return in;
}

/**
 * POLY stage: compute the coefficients of H with seven transforms.
 * NttEngine must provide run(domain, vec, invert).
 */
template <typename Fr, typename NttEngine>
std::vector<Fr>
computeH(const ntt::Domain<Fr> &dom, PolyInputs<Fr> in,
         const NttEngine &eng)
{
    std::size_t n = dom.size();

    // (1-3) interpolate a, b, c to coefficient form.
    eng.run(dom, in.a, true);
    eng.run(dom, in.b, true);
    eng.run(dom, in.c, true);

    // (4-6) evaluate on the coset g*H.
    ntt::cosetScale(in.a, dom.cosetGen());
    ntt::cosetScale(in.b, dom.cosetGen());
    ntt::cosetScale(in.c, dom.cosetGen());
    eng.run(dom, in.a, false);
    eng.run(dom, in.b, false);
    eng.run(dom, in.c, false);

    // Pointwise: on the coset, Z(g w^i) = g^N - 1 is constant.
    Fr gn = dom.cosetGen();
    for (std::size_t i = 0; i < dom.logSize(); ++i)
        gn = gn.squared();
    Fr zinv = (gn - Fr::one()).inverse();
    std::vector<Fr> h(n);
    for (std::size_t i = 0; i < n; ++i)
        h[i] = (in.a[i] * in.b[i] - in.c[i]) * zinv;

    // (7) back to coefficients of H.
    eng.run(dom, h, true);
    ntt::cosetScale(h, dom.cosetGenInv());
    return h;
}

/** Default CPU NTT engine for computeH. */
template <typename Fr>
struct CpuNttEngine {
    void
    run(const ntt::Domain<Fr> &dom, std::vector<Fr> &v, bool invert) const
    {
        ntt::nttInPlace(dom, v, invert);
    }
};

} // namespace gzkp::zkp

#endif // GZKP_ZKP_QAP_HH
