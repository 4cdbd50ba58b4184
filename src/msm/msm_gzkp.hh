/**
 * @file
 * The GZKP MSM engine (paper Section 4).
 *
 * Three ideas compose (Figure 5):
 *
 *  1. Computation consolidation: the sub-MSM split is discarded and
 *     *all* windows are folded into a single set of 2^k cross-window
 *     buckets. Points are made window-less in advance by
 *     preprocessing the weighted points 2^(t*k) (x) P_i; with the
 *     checkpoint interval M (Algorithm 1), only every M-th window's
 *     weights are stored, trading at most (M-1)*k extra doublings for
 *     an M-fold memory reduction. After merging, a single bucket
 *     reduction finishes the job -- the window-reduction step is gone.
 *
 *  2. Space-efficient preprocessing: the bucket-info array p_index
 *     packs (window, element) as t*N + r, sorted by bucket.
 *
 *  3. Workload management (Section 4.2): buckets are grouped into
 *     similar-load task groups, scheduled heaviest-first, with warps
 *     allocated proportionally to load.
 *
 * Both readings of Algorithm 1 are implemented: the literal per-point
 * doubling chain (CheckpointMode::PerPoint) and the per-bucket Horner
 * variant that honours the same "(M-1)*k PADDs" bound while sharing
 * the doubling chains (CheckpointMode::Horner, the default -- see the
 * checkpoint ablation bench).
 */

#ifndef GZKP_MSM_MSM_GZKP_HH
#define GZKP_MSM_MSM_GZKP_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ec/glv.hh"
#include "faultsim/faultsim.hh"
#include "gpusim/device.hh"
#include "gpusim/perf_model.hh"
#include "msm/batch_affine.hh"
#include "msm/msm_common.hh"
#include "runtime/runtime.hh"

namespace gzkp::msm {

enum class CheckpointMode {
    PerPoint, //!< Algorithm 1 literal: doubling chain per entry
    Horner,   //!< per-delta partial sums, one chain per bucket
};

/**
 * Sustained fraction of warp issue slots when a PADD is spread
 * across a cooperative group: the add/double formulas are a serial
 * dependency chain, so CG lanes stall between steps.
 */
inline constexpr double kCgEfficiency = 0.6;

template <typename Cfg>
class GzkpMsm
{
  public:
    using Point = ec::ECPoint<Cfg>;
    using Affine = ec::AffinePoint<Cfg>;
    using Scalar = typename Cfg::Scalar;

    struct Options {
        std::size_t k = 0;           //!< window bits; 0 = profile
        std::size_t checkpointM = 0; //!< 0 = fit the memory budget
        CheckpointMode mode = CheckpointMode::Horner;
        bool loadBalance = true;
        double memoryBudgetFraction = 0.6;
        std::size_t threads = 0;     //!< 0 = GZKP_THREADS default
        /** Bucket strategy for the functional CPU execution (Horner
         * mode only; PerPoint and the modeled GPU kernels stay
         * Jacobian). */
        Accumulator accumulator = Accumulator::BatchAffine;
        /** GLV preprocessing (GLV-capable curves only). The switch
         * acts at preprocess() time; run() follows what the table was
         * built with. */
        GlvMode glv = GlvMode::On;
        /**
         * Minimum average adds per bucket-delta slot before the
         * batch-affine drain engages; below it the drain falls back
         * to Jacobian even when the accumulator option asks for batch
         * affine (the same modeled-cost principle as the scheduler's
         * own kMinAffineRound side routing, one level up). A slot's
         * first add is a plain fill and stages no chord, so at
         * occupancy q only (q-1)/q of the entries can ride the shared
         * inversion while every entry pays the staging copies; the
         * measured crossover on the hot-path bench is between q = 4
         * (2^14 GLV at k = 13: batch affine trails the Jacobian
         * Horner walk) and q = 8+ (2^16: batch affine wins). 0
         * forces the affine drain regardless of occupancy.
         */
        std::size_t minDrainOccupancy = 8;
    };

    /** The preprocessed (weighted, checkpointed) point set. */
    struct Preprocessed {
        std::size_t n = 0;
        std::size_t k = 0;
        std::size_t m = 1;           //!< checkpoint interval M
        std::size_t windows = 0;
        std::size_t checkpoints = 0; //!< ceil(windows / M)
        /**
         * GLV table: the base vector is doubled to
         * [P_0..P_{n-1}, phi(P_0)..phi(P_{n-1})] and windows cover
         * the 132-bit decomposed halves instead of the full scalar
         * width -- scalar-independent (the per-scalar signs are
         * applied at bucket-insertion time), so the table is as
         * reusable as the plain one. Within each checkpoint block the
         * phi half is the endomorphism of the base half.
         */
        bool glv = false;
        /** Base count: entries per checkpoint block. */
        std::size_t nb() const { return glv ? 2 * n : n; }
        /** pre[c * nb() + j] = 2^(c*M*k) * B_j, affine. */
        std::vector<Affine> pre;

        std::uint64_t
        memoryBytes() const
        {
            std::uint64_t pt = 2 * Cfg::Field::kLimbs * 8;
            std::uint64_t sc = Scalar::kLimbs * 8;
            // Checkpoint tables + scalars + p_index entries.
            return pre.size() * pt + std::uint64_t(n) * sc +
                std::uint64_t(nb()) * windows * 8;
        }

        /**
         * Host-resident size of this table: the sum of its containers
         * plus the fixed header. This is what the serving layer's
         * ArtifactCache charges against its byte budget (unlike
         * memoryBytes(), which models the *device* footprint of a
         * whole MSM run, scalars and p_index included).
         */
        std::uint64_t
        bytes() const
        {
            return std::uint64_t(sizeof(*this)) +
                std::uint64_t(pre.size()) * sizeof(Affine);
        }
    };

    explicit GzkpMsm(const Options &opt = Options(),
                     const gpusim::DeviceConfig &dev =
                         gpusim::DeviceConfig::v100())
        : opt_(opt), dev_(dev)
    {}

    // Copies carry configuration only; the last-run drain counters
    // are transient introspection (and atomics are not copyable).
    GzkpMsm(const GzkpMsm &o) : opt_(o.opt_), dev_(o.dev_) {}
    GzkpMsm &
    operator=(const GzkpMsm &o)
    {
        opt_ = o.opt_;
        dev_ = o.dev_;
        return *this;
    }

    /** Window bits actually used for an instance of size n. */
    std::size_t
    window(std::size_t n) const
    {
        return opt_.k != 0 ? opt_.k : profileWindow(n, dev_);
    }

    /** Checkpoint interval actually used for an instance of size n. */
    std::size_t
    checkpointInterval(std::size_t n) const
    {
        if (opt_.checkpointM != 0)
            return opt_.checkpointM;
        return autoInterval(n, window(n), dev_, opt_.memoryBudgetFraction);
    }

    /**
     * Resumable state for the Algorithm-1 weighted-point
     * preprocessing. Each checkpoint block (a chain of M*k doublings
     * per base point, a chunked affine conversion and, on a GLV
     * table, the phi half) is committed into `pp` as it completes, so
     * a fault thrown mid-preprocess loses at most the in-flight
     * block: the recovery layer re-calls preprocessResumable() with
     * the same progress object and work restarts at block `done`,
     * not at block 0.
     */
    struct PreprocessProgress {
        Preprocessed pp;
        /** Doubling-chain state of the n base points; a GLV table's
         * phi half is derived from each block, never doubled. */
        std::vector<Point> cur;
        std::size_t done = 0;   //!< checkpoint blocks committed
        bool started = false;
    };

    /**
     * One-time preprocessing of a fixed point vector (the proving
     * key never changes per application -- Section 4.1).
     */
    Preprocessed
    preprocess(const std::vector<Affine> &points) const
    {
        PreprocessProgress progress;
        return preprocessResumable(points, progress);
    }

    /** Checkpointed preprocess; see PreprocessProgress. */
    Preprocessed
    preprocessResumable(const std::vector<Affine> &points,
                        PreprocessProgress &progress) const
    {
        std::size_t n = points.size();
        if (!progress.started) {
            Preprocessed &pp = progress.pp;
            pp.n = n;
            pp.k = window(n);
            pp.m = checkpointInterval(n);
            pp.glv = ec::Glv<Cfg>::kEnabled && opt_.glv == GlvMode::On;
            std::size_t bits = pp.glv ? ec::Glv<Cfg>::kScalarBits
                                      : Scalar::bits();
            pp.windows = windowCount(bits, pp.k);
            pp.checkpoints = (pp.windows + pp.m - 1) / pp.m;

            faultsim::checkAlloc("msm.gzkp.preprocess", 0);
            progress.cur.resize(n);
            runtime::parallelFor(opt_.threads, n, [&](std::size_t j) {
                progress.cur[j] = Point::fromAffine(points[j]);
            });
            pp.pre.reserve(pp.checkpoints * pp.nb());
            progress.started = true;
        }
        Preprocessed &pp = progress.pp;
        for (std::size_t c = progress.done; c < pp.checkpoints; ++c) {
            faultsim::checkLaunch("msm.gzkp.preprocess", c);
            // Work on a copy of the chain state and commit it only
            // once the whole block lands, so a fault thrown anywhere
            // inside the block leaves `progress` at block c exactly.
            std::vector<Point> next = progress.cur;
            std::vector<Affine> block(pp.nb());
            std::size_t doublings = c == 0 ? 0 : pp.m * pp.k;
            // Chains are independent: each chunk advances its points
            // by M*k doublings and converts them to affine with one
            // shared inversion. Affine coordinates are canonical, so
            // the chunking cannot move a byte of the table.
            runtime::parallelForChunks(
                opt_.threads, n,
                [&](std::size_t lo, std::size_t hi, std::size_t) {
                    for (std::size_t i = lo; i < hi; ++i)
                        for (std::size_t d = 0; d < doublings; ++d)
                            next[i] = next[i].dbl();
                    ec::batchToAffine<Cfg>(next.data() + lo, hi - lo,
                                           block.data() + lo);
                    // phi commutes with doubling, so the phi half of
                    // the block is phi of its base half. Guarded so
                    // it never instantiates for non-GLV curves.
                    if constexpr (ec::Glv<Cfg>::kEnabled) {
                        if (pp.glv)
                            for (std::size_t i = lo; i < hi; ++i)
                                block[n + i] =
                                    ec::Glv<Cfg>::endo(block[i]);
                    }
                });
            pp.pre.insert(pp.pre.end(), block.begin(), block.end());
            progress.cur = std::move(next);
            progress.done = c + 1; // commit the block
        }
        return pp;
    }

    /** Functional MSM over a preprocessed point set. */
    Point
    run(const Preprocessed &pp, const std::vector<Scalar> &scalars) const
    {
        if (scalars.size() != pp.n)
            throw std::invalid_argument("GzkpMsm::run: size mismatch");
        std::size_t threads = runtime::resolveThreads(opt_.threads);

        // The table dictates the digitization: a GLV table carries
        // the doubled base vector, so each scalar splits into its two
        // signed 132-bit halves, k1 driving base j = i and k2 driving
        // endo base j = n + i. Signs live in a side vector and are
        // applied when an entry is loaded for bucket insertion.
        std::vector<typename Scalar::Repr> repr;
        std::vector<std::uint8_t> neg;
        if (pp.glv) {
            if constexpr (ec::Glv<Cfg>::kEnabled) {
                repr.resize(pp.nb());
                neg.resize(pp.nb());
                runtime::parallelFor(
                    threads, pp.n, [&](std::size_t i) {
                        auto d = ec::Glv<Cfg>::decompose(scalars[i]);
                        repr[i] = d.k1;
                        neg[i] = d.neg1;
                        repr[pp.n + i] = d.k2;
                        neg[pp.n + i] = d.neg2;
                    });
            } else {
                throw std::invalid_argument(
                    "GzkpMsm::run: GLV table on a non-GLV curve");
            }
        } else {
            repr = scalarsToRepr(scalars, threads);
        }
        std::size_t nbuckets = std::size_t(1) << pp.k;

        faultsim::checkAlloc("msm.gzkp.buckets", nbuckets);
        std::vector<Point> buckets(nbuckets);
        if (pp.n != 0)
            accumulateBuckets(pp, repr, neg, threads, buckets);

        // Single bucket reduction (parallel prefix sum on the GPU;
        // same operation count): sum_d d * B_d via suffix sums.
        Point acc, sum;
        for (std::size_t d = nbuckets; d-- > 1;) {
            acc += buckets[d];
            sum += acc;
        }
        return sum;
    }

    /** Convenience: preprocess + run in one call. */
    Point
    run(const std::vector<Affine> &points,
        const std::vector<Scalar> &scalars) const
    {
        return run(preprocess(points), scalars);
    }

    /**
     * Batch-affine drain introspection for the last run() (Horner +
     * BatchAffine path only; zero otherwise). Aggregated across task
     * groups with relaxed atomics -- the totals are deterministic
     * because every group's add sequence is. The scheduler regression
     * tests use this to pin that the round-robin drain actually
     * resolves rounds as shared-inversion chords instead of
     * degenerating into same-epoch collisions.
     */
    struct DrainStats {
        std::uint64_t affineAdds = 0; //!< staged chord adds
        std::uint64_t inversions = 0; //!< shared inversions performed
        std::uint64_t collisions = 0; //!< same-round slot collisions
        std::uint64_t doublings = 0;  //!< chord-invalid doublings
        std::uint64_t sideRouted = 0; //!< small rounds drained as Jacobian
    };

    DrainStats
    lastDrainStats() const
    {
        DrainStats s;
        s.affineAdds = drainAffineAdds_.load(std::memory_order_relaxed);
        s.inversions = drainInversions_.load(std::memory_order_relaxed);
        s.collisions = drainCollisions_.load(std::memory_order_relaxed);
        s.doublings = drainDoublings_.load(std::memory_order_relaxed);
        s.sideRouted = drainSideRouted_.load(std::memory_order_relaxed);
        return s;
    }

    /** Total device memory footprint in bytes (Figure 9). */
    std::uint64_t
    memoryBytes(std::size_t n) const
    {
        return memoryForParams(n, window(n), checkpointInterval(n));
    }

    /**
     * Memory for explicit (k, M). The bucket-info array p_index is
     * built and consumed in window segments, so its resident size is
     * capped (space-efficient preprocessing, Section 4.1).
     */
    static std::uint64_t
    memoryForParams(std::size_t n, std::size_t k, std::size_t m)
    {
        std::size_t windows = windowCount(Scalar::bits(), k);
        std::size_t cps = (windows + m - 1) / m;
        std::uint64_t pt = 2 * Cfg::Field::kLimbs * 8;
        std::uint64_t proj = 3 * Cfg::Field::kLimbs * 8;
        std::uint64_t p_index = std::min<std::uint64_t>(
            std::uint64_t(n) * windows * 8, kPIndexSegmentBytes);
        return std::uint64_t(cps) * n * pt +         // checkpoints
            std::uint64_t(n) * Scalar::kLimbs * 8 +  // scalars
            p_index +                                // bucket info
            (std::uint64_t(1) << k) * m * proj;      // accumulators
    }

    /** Resident cap for the segmented p_index array (4 GB). */
    static constexpr std::uint64_t kPIndexSegmentBytes = 4ull << 30;

    /**
     * Kernel statistics. With `scalars`, entry counts and the
     * imbalance factor come from the real digit distribution;
     * otherwise a dense distribution is assumed.
     */
    gpusim::KernelStats
    gpuStats(std::size_t n, const gpusim::DeviceConfig &dev,
             const std::vector<Scalar> *scalars = nullptr) const
    {
        std::size_t k = window(n);
        std::size_t m = checkpointInterval(n);
        return statsForParams(n, k, m, dev, opt_, scalars);
    }

    /**
     * Profiling-based window configuration (Section 4.1): pick the
     * k minimising modeled time for this size and device.
     */
    static std::size_t
    profileWindow(std::size_t n, const gpusim::DeviceConfig &dev,
                  const Options &opt = Options())
    {
        std::size_t best_k = 8;
        double best_t = -1;
        for (std::size_t k = 6; k <= 18; ++k) {
            std::size_t m = opt.checkpointM
                ? opt.checkpointM
                : autoInterval(n, k, dev, opt.memoryBudgetFraction);
            auto st = statsForParams(n, k, m, dev, opt, nullptr);
            double t = gpusim::modelSeconds(st, dev,
                                            gpusim::Backend::FpuLib);
            if (best_t < 0 || t < best_t) {
                best_t = t;
                best_k = k;
            }
        }
        return best_k;
    }

    /**
     * Smallest checkpoint interval M whose tables fit the memory
     * budget (Algorithm 1's control knob).
     */
    static std::size_t
    autoInterval(std::size_t n, std::size_t k,
                 const gpusim::DeviceConfig &dev, double budget_frac)
    {
        std::size_t windows = windowCount(Scalar::bits(), k);
        std::uint64_t budget =
            std::uint64_t(double(dev.globalMemBytes) * budget_frac);
        for (std::size_t m = 1; m < windows; ++m) {
            if (memoryForParams(n, k, m) <= budget)
                return m;
        }
        return windows; // single checkpoint (base points only)
    }

  private:
    /**
     * Chunk count for the p_index build. Shape-only formula (the
     * determinism rule): capped so the per-chunk count/cursor matrices
     * stay small relative to the entry array itself.
     */
    static std::size_t
    pIndexChunks(std::size_t n, std::size_t windows, std::size_t nbuckets)
    {
        std::size_t cap = std::max<std::size_t>(
            1, n * windows / (4 * nbuckets));
        return runtime::chunkCount(n, std::min(runtime::kMaxChunks, cap));
    }

    /**
     * The CPU rendering of Algorithm 1's bucket phase. Builds the
     * bucket-info array p_index (entries t*N + i, grouped by bucket,
     * each bucket's entries in (i, t) order -- the same order the
     * point-major serial loops visited them), then processes buckets
     * as tasks grouped by load: nonzero buckets are ordered
     * heaviest-first (Section 4.2's LPT policy) and dealt round-robin
     * into task groups so every group carries a similar load. Each
     * bucket is owned by exactly one group and its entry order is
     * fixed by construction, so buckets[] is bit-identical at any
     * thread count.
     */
    void
    accumulateBuckets(const Preprocessed &pp,
                      const std::vector<typename Scalar::Repr> &repr,
                      const std::vector<std::uint8_t> &neg,
                      std::size_t threads,
                      std::vector<Point> &buckets) const
    {
        std::size_t nb = pp.nb();
        std::size_t nbuckets = buckets.size();
        std::size_t chunks = pIndexChunks(nb, pp.windows, nbuckets);

        drainAffineAdds_.store(0, std::memory_order_relaxed);
        drainInversions_.store(0, std::memory_order_relaxed);
        drainCollisions_.store(0, std::memory_order_relaxed);
        drainDoublings_.store(0, std::memory_order_relaxed);
        drainSideRouted_.store(0, std::memory_order_relaxed);

        // The three modeled kernels (merge, Horner, reduce) map to
        // the three phases below; each gets a launch probe.
        faultsim::checkLaunch("msm.gzkp.kernel.count", 0);

        // Pass 1: per-(chunk, bucket) entry counts.
        std::vector<std::uint64_t> counts(chunks * nbuckets, 0);
        runtime::parallelForChunks(
            threads, nb,
            [&](std::size_t lo, std::size_t hi, std::size_t ch) {
                auto *cnt = counts.data() + ch * nbuckets;
                for (std::size_t i = lo; i < hi; ++i) {
                    for (std::size_t t = 0; t < pp.windows; ++t) {
                        std::uint64_t d = windowDigit(repr[i], t, pp.k);
                        if (d != 0)
                            ++cnt[d];
                    }
                }
            },
            chunks);

        // Bucket-major exclusive prefix: start[d] is bucket d's first
        // slot, cursor[ch][d] where chunk ch scatters into bucket d.
        std::vector<std::uint64_t> start(nbuckets + 1);
        std::vector<std::uint64_t> cursor(chunks * nbuckets);
        std::uint64_t pos = 0;
        for (std::size_t d = 0; d < nbuckets; ++d) {
            start[d] = pos;
            for (std::size_t ch = 0; ch < chunks; ++ch) {
                cursor[ch * nbuckets + d] = pos;
                pos += counts[ch * nbuckets + d];
            }
        }
        start[nbuckets] = pos;

        // Pass 2: scatter packed entries t*NB + j, bucket-sorted.
        faultsim::checkLaunch("msm.gzkp.kernel.scatter", 1);
        faultsim::checkAlloc("msm.gzkp.p_index", pos);
        std::vector<std::uint64_t> p_index(pos);
        runtime::parallelForChunks(
            threads, nb,
            [&](std::size_t lo, std::size_t hi, std::size_t ch) {
                auto *cur = cursor.data() + ch * nbuckets;
                for (std::size_t i = lo; i < hi; ++i) {
                    for (std::size_t t = 0; t < pp.windows; ++t) {
                        std::uint64_t d = windowDigit(repr[i], t, pp.k);
                        if (d != 0)
                            p_index[cur[d]++] =
                                std::uint64_t(t) * nb + i;
                    }
                }
            },
            chunks);

        // Load-aware task grouping: heaviest buckets first, dealt
        // round-robin so groups carry similar totals (bucket 0 and
        // empty buckets need no processing).
        std::vector<std::size_t> order;
        order.reserve(nbuckets);
        for (std::size_t d = 1; d < nbuckets; ++d)
            if (start[d + 1] > start[d])
                order.push_back(d);
        if (order.empty())
            return;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      std::uint64_t la = start[a + 1] - start[a];
                      std::uint64_t lb = start[b + 1] - start[b];
                      if (la != lb)
                          return la > lb;
                      return a < b;
                  });
        std::size_t groups =
            std::min(order.size(), runtime::kMaxChunks);
        bool ba = opt_.mode == CheckpointMode::Horner &&
            opt_.accumulator == Accumulator::BatchAffine;
        // Occupancy routing (see Options::minDrainOccupancy): with
        // `pos` total entries spread over order.size() live buckets
        // of s delta slots each, an average slot sees pos / (live*s)
        // adds; when that is below the threshold the shared inversion
        // and staging copies cannot amortize and the Jacobian walk is
        // cheaper, so the request is routed there wholesale.
        if (ba && opt_.minDrainOccupancy > 0) {
            std::uint64_t s = std::min(
                pp.m, std::max<std::size_t>(pp.windows, 1));
            if (pos < std::uint64_t(opt_.minDrainOccupancy) *
                          order.size() * s)
                ba = false;
        }

        faultsim::checkLaunch("msm.gzkp.kernel.bucket", 2);
        runtime::parallelForChunks(
            threads, groups,
            [&](std::size_t glo, std::size_t ghi, std::size_t) {
                std::vector<Point> acc(pp.m);
                for (std::size_t g = glo; g < ghi; ++g) {
                    if (ba) {
                        bucketGroupBatchAffine(pp, neg, p_index, start,
                                               order, g, groups,
                                               buckets);
                        continue;
                    }
                    for (std::size_t p = g; p < order.size();
                         p += groups) {
                        std::size_t d = order[p];
                        if (opt_.mode == CheckpointMode::Horner)
                            buckets[d] = bucketHorner(pp, neg, p_index,
                                                      start[d],
                                                      start[d + 1], acc);
                        else
                            buckets[d] = bucketPerPoint(pp, neg, p_index,
                                                        start[d],
                                                        start[d + 1]);
                        // Simulated warp-level soft error: a bucket
                        // accumulator is written with a corrupted
                        // coordinate. Deterministic in d.
                        faultsim::maybeCorruptPoint(
                            faultsim::FaultKind::Bucket, buckets[d],
                            "msm.gzkp.bucket", d);
                    }
                }
            },
            groups);
    }

    /** Table entry j of checkpoint block c, sign-folded for GLV. */
    Affine
    preEntry(const Preprocessed &pp,
             const std::vector<std::uint8_t> &neg, std::size_t c,
             std::size_t j) const
    {
        const Affine &p = pp.pre[c * pp.nb() + j];
        if (!neg.empty() && neg[j])
            return p.negate();
        return p;
    }

    /** Per-delta partial sums, then one shared doubling chain. */
    Point
    bucketHorner(const Preprocessed &pp,
                 const std::vector<std::uint8_t> &neg,
                 const std::vector<std::uint64_t> &p_index,
                 std::uint64_t lo, std::uint64_t hi,
                 std::vector<Point> &acc) const
    {
        std::size_t nb = pp.nb();
        for (auto &a : acc)
            a = Point::identity();
        for (std::uint64_t e = lo; e < hi; ++e) {
            std::size_t t = std::size_t(p_index[e] / nb);
            std::size_t i = std::size_t(p_index[e] % nb);
            std::size_t c = t / pp.m, delta = t % pp.m;
            acc[delta] = acc[delta].addMixed(preEntry(pp, neg, c, i));
        }
        Point x = acc[pp.m - 1];
        for (std::size_t delta = pp.m - 1; delta-- > 0;) {
            for (std::size_t j = 0; j < pp.k; ++j)
                x = x.dbl();
            x += acc[delta];
        }
        return x;
    }

    /** Algorithm 1 literal: a doubling chain per entry. */
    Point
    bucketPerPoint(const Preprocessed &pp,
                   const std::vector<std::uint8_t> &neg,
                   const std::vector<std::uint64_t> &p_index,
                   std::uint64_t lo, std::uint64_t hi) const
    {
        std::size_t nb = pp.nb();
        Point sum;
        for (std::uint64_t e = lo; e < hi; ++e) {
            std::size_t t = std::size_t(p_index[e] / nb);
            std::size_t i = std::size_t(p_index[e] % nb);
            std::size_t c = t / pp.m, delta = t % pp.m;
            Point tmp = Point::fromAffine(preEntry(pp, neg, c, i));
            for (std::size_t j = 0; j < delta * pp.k; ++j)
                tmp = tmp.dbl();
            sum += tmp;
        }
        return sum;
    }

    /**
     * One task group's buckets on the batch-affine scheduler. The
     * group's buckets share one accumulator with s slots per bucket
     * (slot = localBucket * s + delta, s = min(m, windows) -- with GLV
     * on, the decomposed halves use fewer windows than the checkpoint
     * interval, and the extra slots would only inflate the reset
     * footprint and the unwind), and the drain is round-robin *across*
     * buckets: a bucket's p_index range is consecutive, so a bucket-
     * major walk would revisit the same slot every step and collide
     * its way into pure Jacobian adds. Interleaving visits every live
     * bucket once per round, and the *explicit per-round flush* is
     * what re-arms the slots: the epoch only advances on flush, so
     * without it every round after the first would find its slots
     * still claimed and degrade into Jacobian side adds (a group's
     * round is smaller than the accumulator's kBatch auto-flush
     * threshold, so the drain must own the round boundary). Rounds on
     * the heavy tail (fewer live buckets than kMinAffineRound) are
     * side-routed by flush() itself, where the shared inversion would
     * not amortize. Entry order within a bucket is unchanged
     * (ascending e), and groups are a pure function of the load
     * histogram, so buckets[] stays thread-count invariant.
     */
    void
    bucketGroupBatchAffine(const Preprocessed &pp,
                           const std::vector<std::uint8_t> &neg,
                           const std::vector<std::uint64_t> &p_index,
                           const std::vector<std::uint64_t> &start,
                           const std::vector<std::size_t> &order,
                           std::size_t g, std::size_t groups,
                           std::vector<Point> &buckets) const
    {
        std::size_t nb = pp.nb();
        std::size_t s = std::min(pp.m, std::max<std::size_t>(
                                           pp.windows, 1));
        std::vector<std::size_t> mine;
        for (std::size_t p = g; p < order.size(); p += groups)
            mine.push_back(order[p]);

        BatchAffineAccumulator<Cfg> acc(mine.size() * s);
        bool more = true;
        for (std::uint64_t r = 0; more; ++r) {
            more = false;
            for (std::size_t lb = 0; lb < mine.size(); ++lb) {
                std::uint64_t e = start[mine[lb]] + r;
                if (e >= start[mine[lb] + 1])
                    continue;
                more = true;
                std::size_t t = std::size_t(p_index[e] / nb);
                std::size_t j = std::size_t(p_index[e] % nb);
                std::size_t c = t / pp.m, delta = t % pp.m;
                acc.add(lb * s + delta, preEntry(pp, neg, c, j));
            }
            acc.flush();
        }

        drainAffineAdds_.fetch_add(acc.affineAdds(),
                                   std::memory_order_relaxed);
        drainInversions_.fetch_add(acc.inversions(),
                                   std::memory_order_relaxed);
        drainCollisions_.fetch_add(acc.collisions(),
                                   std::memory_order_relaxed);
        drainDoublings_.fetch_add(acc.doublings(),
                                  std::memory_order_relaxed);
        drainSideRouted_.fetch_add(acc.sideRouted(),
                                   std::memory_order_relaxed);

        for (std::size_t lb = 0; lb < mine.size(); ++lb) {
            std::size_t d = mine[lb];
            Point x = acc.result(lb * s + s - 1);
            for (std::size_t delta = s - 1; delta-- > 0;) {
                for (std::size_t j = 0; j < pp.k; ++j)
                    x = x.dbl();
                x += acc.result(lb * s + delta);
            }
            buckets[d] = x;
            faultsim::maybeCorruptPoint(faultsim::FaultKind::Bucket,
                                        buckets[d], "msm.gzkp.bucket",
                                        d);
        }
    }

    static gpusim::KernelStats
    statsForParams(std::size_t n, std::size_t k, std::size_t m,
                   const gpusim::DeviceConfig &dev, const Options &opt,
                   const std::vector<Scalar> *scalars)
    {
        std::size_t windows = windowCount(Scalar::bits(), k);
        double nbuckets = double(std::size_t(1) << k);
        std::size_t pt_bytes = 2 * Cfg::Field::kLimbs * 8;

        double entries;
        double imbalance;
        if (scalars) {
            auto hist = bucketLoadHistogram(*scalars, k, opt.threads);
            entries = double(std::accumulate(hist.begin(), hist.end(),
                                             std::uint64_t(0)));
            imbalance = imbalanceFromHistogram(hist, dev,
                                               opt.loadBalance);
        } else {
            entries = double(n) * double(windows) *
                (nbuckets - 1.0) / nbuckets;
            imbalance = opt.loadBalance ? 1.05 : 1.25;
        }

        // Merging sums each bucket with a warp-level tree reduction
        // over cooperative groups: adds are Jacobian-Jacobian (full)
        // rather than running mixed adds.
        double merge_full = entries;
        double dbls, horner_adds;
        if (opt.mode == CheckpointMode::Horner) {
            dbls = nbuckets * double(m - 1) * double(k);
            horner_adds = nbuckets * double(m - 1);
        } else {
            // Average per-entry chain length: k * (M-1)/2 doublings.
            dbls = entries * double(k) * double(m - 1) / 2.0;
            horner_adds = 0;
        }
        double reduce = 2.0 * nbuckets;

        gpusim::KernelStats st;
        st.limbs = Cfg::Field::kLimbs;
        st.fieldMuls = merge_full * kMulsPerFullAdd +
            dbls * kMulsPerDbl +
            (horner_adds + reduce) * kMulsPerFullAdd;
        st.fieldAdds =
            (merge_full + dbls + horner_adds + reduce) * kAddsPerPadd;

        // Memory: each entry reads its p_index slot and gathers one
        // preprocessed point; points are 3+ full L2 lines each, so
        // gathers stay line-efficient (modest 1.15 overfetch).
        double bytes = entries * (double(pt_bytes) + 8.0) +
            double(n) * Scalar::kLimbs * 8.0;
        st.usefulBytes = std::uint64_t(bytes);
        st.linesTouched =
            std::uint64_t(bytes / dev.l2LineBytes * 1.15);
        st.numBlocks = std::max<std::size_t>(
            dev.numSMs, std::size_t(nbuckets) / 8);
        // Cooperative groups parallelise inside each PADD, but the
        // addition formulas are a sequential dependency chain, so CG
        // lanes stall part of the time and the FP-library's gain is
        // only partially realised (Figure 10: +33%, not +60%).
        st.idleLaneFactor = kCgEfficiency;
        st.libGainFactor = 0.55;
        st.loadImbalanceFactor = imbalance;
        st.numLaunches = 3; // merge, Horner, reduce
        return st;
    }

    /**
     * Makespan ratio of bucket tasks on the device's warp slots,
     * with or without the Section 4.2 scheduling policy.
     */
    static double
    imbalanceFromHistogram(const std::vector<std::uint64_t> &hist,
                           const gpusim::DeviceConfig &dev,
                           bool load_balance)
    {
        std::vector<std::uint64_t> loads;
        for (auto l : hist)
            if (l != 0)
                loads.push_back(l);
        if (loads.empty())
            return 1.0;
        double total = double(std::accumulate(loads.begin(), loads.end(),
                                              std::uint64_t(0)));
        // Concurrent warp slots available for bucket tasks.
        std::size_t slots = dev.numSMs *
            (dev.maxThreadsPerBlock / dev.warpSize);

        if (load_balance) {
            // Heaviest-first (LPT) scheduling with warps allocated
            // proportionally to load (Figure 7: heavy buckets get
            // several warps). A task's finish time is its load over
            // its warp share; the makespan approaches the mean.
            std::sort(loads.begin(), loads.end(), std::greater<>());
            double mean_finish = total / double(std::min(
                loads.size(), slots));
            double share = std::max(1.0, double(slots) *
                double(loads.front()) / total);
            double bound = double(loads.front()) / share;
            return std::max(1.0, std::max(mean_finish, bound) /
                                     mean_finish) * 1.02;
        }

        // Unordered one-warp-per-task: expected makespan grows with
        // the max/mean spread of the final wave.
        double mean = total / double(loads.size());
        double mx = double(*std::max_element(loads.begin(), loads.end()));
        return std::max(1.25, 0.5 * (1.0 + mx / mean));
    }

    Options opt_;
    gpusim::DeviceConfig dev_;
    // Last-run drain counters (see DrainStats); mutable because run()
    // is const, atomic because task groups aggregate concurrently.
    mutable std::atomic<std::uint64_t> drainAffineAdds_{0};
    mutable std::atomic<std::uint64_t> drainInversions_{0};
    mutable std::atomic<std::uint64_t> drainCollisions_{0};
    mutable std::atomic<std::uint64_t> drainDoublings_{0};
    mutable std::atomic<std::uint64_t> drainSideRouted_{0};
};

} // namespace gzkp::msm

#endif // GZKP_MSM_MSM_GZKP_HH
