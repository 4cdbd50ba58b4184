/**
 * @file
 * Collision-aware batch-affine bucket accumulation.
 *
 * Every CPU MSM engine spends its time adding affine base points into
 * bucket accumulators. The Jacobian mixed add costs ~11 field muls;
 * the affine chord add costs 3 muls plus one inversion, and
 * Montgomery's trick (ff::batchInverse) amortizes the inversion over a
 * whole batch at 3 muls per element -- ~6 muls per add, plus one
 * shared inversion per batch (gnark/bellman's biggest CPU win).
 *
 * The affine formulas only apply to two *distinct, finite* points, so
 * the scheduler drains per-slot addition queues in rounds:
 *
 *  - each slot owns a running affine accumulator; an incoming point
 *    pairs with it and is *staged* (both points' coordinates appended
 *    to the round's coordinate rows) -- at most one staged add per
 *    slot per round, enforced by an epoch counter;
 *  - a second add to a claimed slot in the same round, or a doubling
 *    (x1 == x2, y1 == y2), falls back to a per-slot *Jacobian side
 *    accumulator* -- graceful degradation, never a stall;
 *  - a cancellation (x1 == x2, y1 == -y2) just clears the slot;
 *  - when kBatch adds (or the caller's round size) are staged, one
 *    subBatch forms the denominators x2 - x1 and one ff::batchInverse
 *    over them resolves the whole round with cheap affine chord
 *    additions, and the chord formulas themselves run as batched
 *    field ops through the dispatched vector kernels;
 *  - a *small* final round (fewer than kMinAffineRound staged adds,
 *    the tail a window drain leaves behind) is cheaper as plain
 *    Jacobian mixed adds than as a shared inversion whose fixed cost
 *    nothing amortizes, so it drains to the side accumulators
 *    instead. This is what restored the batch-affine win at small n
 *    (2^14 single-thread), where per-window tails dominated.
 *
 * Determinism: a slot's value depends only on the sequence of points
 * added to it (affine coordinates are the canonical representation of
 * a group element, and batch boundaries are a function of the
 * insertion sequence alone), so as long as an engine feeds each
 * accumulator in a fixed order -- which the src/runtime chunking
 * rules already guarantee -- results are bit-identical at any thread
 * count, matching the Jacobian path exactly.
 */

#ifndef GZKP_MSM_BATCH_AFFINE_HH
#define GZKP_MSM_BATCH_AFFINE_HH

#include <cstdint>
#include <vector>

#include "ec/point.hh"
#include "ff/fp.hh"

namespace gzkp::msm {

/**
 * Bucket accumulation strategy for the CPU MSM engines. The engines
 * default to BatchAffine; benches and tests pick Jacobian per engine
 * through its options.
 */
enum class Accumulator {
    Jacobian,    //!< the original mixed-add path
    BatchAffine, //!< shared-inversion affine scheduler
};

/** GLV decomposition switch for GLV-capable curves (default On). */
enum class GlvMode {
    Off,
    On,
};

/**
 * The batch-add scheduler. Slots are bucket indices (or any engine-
 * chosen mapping); see the file comment for the round semantics.
 */
template <typename Cfg>
class BatchAffineAccumulator
{
  public:
    using Field = typename Cfg::Field;
    using Affine = ec::AffinePoint<Cfg>;
    using Point = ec::ECPoint<Cfg>;

    /** Staged adds per shared inversion. */
    static constexpr std::size_t kBatch = 256;

    // Cost model in field-multiplication equivalents, used by the
    // small-round routing decision and exposed via modeledMulCost()
    // so tests can pin "batch-affine never does more work than
    // Jacobian" as an invariant instead of a timing assertion.
    static constexpr double kChordMuls = 6.0;    //!< 3 chord + 3 inv share
    static constexpr double kMixedAddMuls = 11.0;
    static constexpr double kDoublingMuls = 9.0;
    static constexpr double kInversionMuls = 320.0; //!< Fermat inverse

    /**
     * Below this staged-round size the shared inversion's fixed cost
     * exceeds what the chord saves: flushing costs
     * kChordMuls * s + kInversionMuls, side-routing costs
     * kMixedAddMuls * s; breakeven at s = 320 / 5 = 64.
     */
    static constexpr std::size_t kMinAffineRound =
        std::size_t(kInversionMuls / (kMixedAddMuls - kChordMuls));

    /**
     * `batch` is the staged-add count that triggers an in-feed flush.
     * A caller that flushes at its own round boundaries passes its
     * round size, so the in-feed flush never splits a round.
     */
    explicit BatchAffineAccumulator(std::size_t slots = 0,
                                    std::size_t batch = kBatch)
        : batch_(batch)
    {
        reset(slots);
    }

    std::size_t slots() const { return cur_.size(); }

    /** Clear to `slots` identity slots; reuses capacity. */
    void
    reset(std::size_t slots)
    {
        cur_.assign(slots, Affine::identity());
        side_.assign(slots, Point::identity());
        claimed_.assign(slots, 0);
        epoch_ = 1;
        clearStaged();
        for (auto *row : {&ax_, &ay_, &px_, &py_})
            row->reserve(batch_);
        staged_.reserve(batch_);
    }

    /** Queue `slot += p`; may trigger a round flush. */
    void
    add(std::size_t slot, const Affine &p)
    {
        if (p.infinity)
            return;
        if (claimed_[slot] == epoch_) {
            // Same-round collision: the slot's staged add is still
            // pending, so this point joins the Jacobian side sum.
            side_[slot] = side_[slot].addMixed(p);
            ++collisions_;
            return;
        }
        Affine &acc = cur_[slot];
        if (acc.infinity) {
            acc = p;
            return;
        }
        if (acc.x == p.x) {
            if (acc.y == p.y) {
                // Doubling: the chord formula divides by zero; send
                // 2p to the side accumulator and clear the slot.
                side_[slot] = side_[slot] + Point::fromAffine(p).dbl();
                ++doublings_;
            }
            // else cancellation: p == -acc, the pair annihilates.
            acc = Affine::identity();
            return;
        }
        // Stage straight into the coordinate rows flush() computes on;
        // acc cannot change before then (the slot is claimed).
        claimed_[slot] = epoch_;
        staged_.push_back(slot);
        ax_.push_back(acc.x);
        ay_.push_back(acc.y);
        px_.push_back(p.x);
        py_.push_back(p.y);
        ++affineAdds_;
        if (staged_.size() >= batch_)
            flush();
    }

    /**
     * Resolve the staged round: one shared inversion, then a chord
     * addition per staged slot, all as batched field ops. Rounds too
     * small to amortize the inversion (see kMinAffineRound) drain to
     * the Jacobian side accumulators instead -- the group value of
     * every slot is the same either way, only the cost changes.
     * Safe to call with nothing staged.
     */
    void
    flush()
    {
        const std::size_t n = staged_.size();
        if (n == 0) {
            ++epoch_;
            return;
        }
        if (n < kMinAffineRound) {
            for (std::size_t i = 0; i < n; ++i)
                side_[staged_[i]] =
                    side_[staged_[i]].addMixed(Affine(px_[i], py_[i]));
            sideRouted_ += n;
            clearStaged();
            ++epoch_;
            return;
        }
        // Denominators are nonzero by construction (x1 != x2),
        // but batchInverse's skip-and-preserve zero handling
        // makes a bug here loud (a zero survives and the curve
        // check in tests catches the off-curve result) rather
        // than corrupting neighbouring entries.
        denoms_.resize(n);
        ff::subBatch(denoms_.data(), px_.data(), ax_.data(), n);
        ff::batchInverse(denoms_);
        ++inversions_;
        // Chord formulas over the staged coordinate rows:
        //   lambda = (p.y - acc.y) / (p.x - acc.x)
        //   x3 = lambda^2 - acc.x - p.x
        //   y3 = lambda * (acc.x - x3) - acc.y
        // Same per-element operation sequence as the scalar form, so
        // results are bit-identical on every dispatch arm.
        lambda_.resize(n);
        x3_.resize(n);
        ff::subBatch(lambda_.data(), py_.data(), ay_.data(), n);
        ff::mulBatch(lambda_.data(), lambda_.data(), denoms_.data(), n);
        ff::sqrBatch(x3_.data(), lambda_.data(), n);
        ff::subBatch(x3_.data(), x3_.data(), ax_.data(), n);
        ff::subBatch(x3_.data(), x3_.data(), px_.data(), n);
        ff::subBatch(ax_.data(), ax_.data(), x3_.data(), n);
        ff::mulBatch(ax_.data(), lambda_.data(), ax_.data(), n);
        ff::subBatch(ay_.data(), ax_.data(), ay_.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            cur_[staged_[i]] = Affine(x3_[i], ay_[i]);
        clearStaged();
        ++epoch_;
    }

    /** Slot value; only meaningful after flush(). */
    Point
    result(std::size_t slot) const
    {
        if (cur_[slot].infinity)
            return side_[slot];
        return side_[slot].addMixed(cur_[slot]);
    }

    /** sum_d d * result(d) by suffix sums; flushes first. */
    Point
    reduceWeighted()
    {
        flush();
        Point acc, sum;
        for (std::size_t d = cur_.size(); d-- > 1;) {
            acc += result(d);
            sum += acc;
        }
        return sum;
    }

    // Op counters (introspection for tests and the hot-path bench).
    std::uint64_t affineAdds() const { return affineAdds_; }
    std::uint64_t inversions() const { return inversions_; }
    std::uint64_t collisions() const { return collisions_; }
    std::uint64_t doublings() const { return doublings_; }
    /** Staged adds that a small round resolved as Jacobian side adds
     *  instead of chords (a subset of affineAdds()). */
    std::uint64_t sideRouted() const { return sideRouted_; }

    /**
     * Field-mul-equivalent cost of the work performed so far under
     * the file's cost model. The small-round pin test asserts this
     * never exceeds the all-Jacobian cost of the same add sequence.
     */
    double
    modeledMulCost() const
    {
        return double(affineAdds_ - sideRouted_) * kChordMuls +
               double(inversions_) * kInversionMuls +
               double(collisions_ + sideRouted_) * kMixedAddMuls +
               double(doublings_) * (kDoublingMuls + kMixedAddMuls);
    }

    /** The all-Jacobian cost of the same add sequence, for the pin
     *  (sideRouted is a subset of affineAdds, not extra adds). */
    double
    jacobianMulCost() const
    {
        return double(affineAdds_ + collisions_ + doublings_) *
               kMixedAddMuls;
    }

  private:
    void
    clearStaged()
    {
        staged_.clear();
        for (auto *row : {&ax_, &ay_, &px_, &py_})
            row->clear();
    }

    std::size_t batch_;
    std::vector<Affine> cur_;
    std::vector<Point> side_;
    std::vector<std::uint32_t> claimed_;
    std::uint32_t epoch_ = 1;
    // The round's staged adds: slot i adds (px_[i], py_[i]) to its
    // accumulator (ax_[i], ay_[i]). The rows double as flush()'s
    // scratch, and every row is a member so repeated rounds reuse the
    // allocations.
    std::vector<std::size_t> staged_;
    std::vector<Field> ax_, ay_, px_, py_;
    std::vector<Field> denoms_, lambda_, x3_;
    std::uint64_t affineAdds_ = 0;
    std::uint64_t inversions_ = 0;
    std::uint64_t collisions_ = 0;
    std::uint64_t doublings_ = 0;
    std::uint64_t sideRouted_ = 0;
};

/**
 * A window's bucket array behind either accumulation strategy -- the
 * shim the window-major engines (serial Pippenger, bellperson) drop
 * in where they held a plain std::vector<Point>.
 */
template <typename Cfg>
class BucketSet
{
  public:
    using Affine = ec::AffinePoint<Cfg>;
    using Point = ec::ECPoint<Cfg>;

    BucketSet(std::size_t nbuckets, bool batch_affine)
        : batchAffine_(batch_affine), nbuckets_(nbuckets)
    {
        if (batchAffine_)
            ba_.reset(nbuckets);
        else
            jac_.assign(nbuckets, Point::identity());
    }

    /** Re-arm for the next window. */
    void
    reset()
    {
        if (batchAffine_)
            ba_.reset(nbuckets_);
        else
            jac_.assign(nbuckets_, Point::identity());
    }

    void
    add(std::size_t d, const Affine &p)
    {
        if (batchAffine_)
            ba_.add(d, p);
        else
            jac_[d] = jac_[d].addMixed(p);
    }

    /** Bucket reduction sum_d d * B_d (identical on both paths). */
    Point
    reduceWeighted()
    {
        if (batchAffine_)
            return ba_.reduceWeighted();
        Point acc, sum;
        for (std::size_t d = jac_.size(); d-- > 1;) {
            acc += jac_[d];
            sum += acc;
        }
        return sum;
    }

  private:
    bool batchAffine_;
    std::size_t nbuckets_;
    BatchAffineAccumulator<Cfg> ba_{0};
    std::vector<Point> jac_;
};

} // namespace gzkp::msm

#endif // GZKP_MSM_BATCH_AFFINE_HH
