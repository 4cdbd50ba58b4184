/**
 * @file
 * Greedy shrinkers: minimize a failing instance while it keeps
 * failing, so divergence reports come with a near-minimal reproducer
 * instead of a 10k-element haystack.
 *
 * The strategy is the classic delta-debugging loop specialised to
 * our instance shapes:
 *   1. structural: drop chunks of (point, scalar) pairs, halving the
 *      chunk size down to single elements;
 *   2. value-level: replace scalars by 0 (drops the term entirely)
 *      then by 1, and points by the group generator.
 * Each accepted step restarts the scan; the loop ends at a fixpoint
 * or after `maxChecks` predicate evaluations (failing predicates can
 * be expensive -- they usually re-run a whole differential).
 */

#ifndef GZKP_TESTKIT_SHRINK_HH
#define GZKP_TESTKIT_SHRINK_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "testkit/generators.hh"

namespace gzkp::testkit {

/**
 * Shrink a failing MSM instance: drop (point, scalar) pairs, then
 * simplify surviving scalars (-> 0, -> 1) and points (-> generator).
 */
template <typename Cfg, typename Fails>
MsmInstance<Cfg>
shrinkMsm(MsmInstance<Cfg> cur, Fails &&stillFails,
          std::size_t max_checks = 500)
{
    using Scalar = typename Cfg::Scalar;
    std::size_t checks = 0;
    auto tryAccept = [&](MsmInstance<Cfg> &cand) {
        if (checks >= max_checks)
            return false;
        ++checks;
        if (stillFails(cand)) {
            cur = std::move(cand);
            return true;
        }
        return false;
    };

    bool progress = true;
    while (progress && checks < max_checks) {
        progress = false;

        // 1. Drop chunks of pairs, largest first.
        for (std::size_t chunk = cur.size() / 2; chunk >= 1;
             chunk /= 2) {
            for (std::size_t at = 0; at + chunk <= cur.size();) {
                MsmInstance<Cfg> cand;
                auto copyRange = [&](auto &src, auto &dst) {
                    dst.assign(src.begin(), src.begin() + at);
                    dst.insert(dst.end(), src.begin() + at + chunk,
                               src.end());
                };
                copyRange(cur.points, cand.points);
                copyRange(cur.scalars, cand.scalars);
                if (tryAccept(cand))
                    progress = true;
                else
                    at += chunk;
                if (checks >= max_checks)
                    break;
            }
            if (chunk == 1)
                break;
        }

        // 2. Simplify scalar values in place.
        for (std::size_t i = 0;
             i < cur.size() && checks < max_checks; ++i) {
            for (const Scalar &simple :
                 {Scalar::zero(), Scalar::one()}) {
                if (cur.scalars[i] == simple)
                    continue;
                MsmInstance<Cfg> cand = cur;
                cand.scalars[i] = simple;
                if (tryAccept(cand)) {
                    progress = true;
                    break;
                }
            }
        }

        // 3. Simplify points to the generator.
        auto gen = ec::ECPoint<Cfg>::generator().toAffine();
        for (std::size_t i = 0;
             i < cur.size() && checks < max_checks; ++i) {
            if (cur.points[i] == gen)
                continue;
            MsmInstance<Cfg> cand = cur;
            cand.points[i] = gen;
            if (tryAccept(cand))
                progress = true;
        }
    }
    return cur;
}

} // namespace gzkp::testkit

#endif // GZKP_TESTKIT_SHRINK_HH
