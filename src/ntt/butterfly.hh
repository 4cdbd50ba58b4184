/**
 * @file
 * Batched radix-2 butterfly rows.
 *
 * One Cooley-Tukey iteration applies the same butterfly to `half`
 * independent lane pairs; with the twiddles of an iteration stored
 * contiguously (Domain::twiddleRow) the whole inner loop is three
 * batch field operations. The multiply is the hot one and routes
 * through the dispatched vector kernels (ff::mulBatch); results are
 * bit-identical to the element-wise loop, which is what lets
 * nttInPlace keep its "GPU variants must match bit-for-bit" oracle
 * role while being vectorized itself.
 */

#ifndef GZKP_NTT_BUTTERFLY_HH
#define GZKP_NTT_BUTTERFLY_HH

#include <cstddef>

#include "ff/fp.hh"

namespace gzkp::ntt {

/**
 * In-place butterflies over n lane pairs:
 *   t    = v[i] * w[i]
 *   v[i] = u[i] - t
 *   u[i] = u[i] + t
 * `scratch` must hold n elements and not alias u/v/w. The sub must
 * precede the add: it reads the untouched u row while v is dead.
 */
template <typename Fr>
inline void
butterflyRows(Fr *u, Fr *v, const Fr *w, std::size_t n, Fr *scratch)
{
    ff::mulBatch(scratch, v, w, n);
    ff::subBatch(v, u, scratch, n);
    ff::addBatch(u, u, scratch, n);
}

} // namespace gzkp::ntt

#endif // GZKP_NTT_BUTTERFLY_HH
