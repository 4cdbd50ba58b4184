/**
 * @file
 * Deterministic parallel execution runtime.
 *
 * A small, work-stealing-free threading layer with parallelFor /
 * parallelReduce / parallelInvoke primitives, built around one rule:
 *
 *   *Chunk boundaries are a function of the problem size only --
 *   never of the thread count -- and partial results are combined in
 *   ascending chunk order.*
 *
 * Work is split into a fixed sequence of chunks (at most kMaxChunks,
 * see chunkCount()), chunks are assigned to workers statically
 * (chunk j runs on worker j mod W), and reductions fold the per-chunk
 * partials serially in chunk order after the join. Because the chunk
 * sequence and the combine order never change, every parallel entry
 * point produces bit-identical results at any thread count --
 * including threads == 1, which runs the same chunk sequence inline
 * without spawning a single thread (the serial fallback).
 *
 * There is deliberately no work-stealing and no persistent worker
 * pool: stealing makes the execution schedule -- and with it any
 * order-sensitive accumulation -- depend on runtime timing, which is
 * exactly what the bit-reproducibility contract forbids. Load balance
 * comes instead from callers shaping their chunk lists (the MSM engine
 * orders bucket tasks heaviest-first, mirroring the paper's
 * Section 4.2 grouping, and the prover's plan sizes each
 * parallelInvoke task's thread share by its cost). Workers are plain
 * std::threads spawned per parallel region: regions in this codebase
 * are milliseconds to seconds of field arithmetic, so the ~10us spawn
 * cost is noise and every region is trivially race-free at join.
 *
 * Thread count resolution: an explicit per-call/per-engine count wins;
 * 0 means "use the default", which is the GZKP_THREADS environment
 * variable if set and valid, else std::thread::hardware_concurrency().
 *
 * Cancellation: every parallel region cooperates with an optional
 * CancelToken. A caller installs one with a CancelScope; the region
 * checks it between chunks (never inside the field arithmetic, so the
 * determinism contract is untouched on the success path) and aborts
 * the region by throwing CancelledError / DeadlineExceededError --
 * both StatusError subclasses, so statusGuard() at the pipeline
 * boundary maps them to kCancelled / kDeadlineExceeded. Workers
 * inherit the spawning region's token. A cancelled region still joins
 * every worker before the exception propagates: no detached threads,
 * no torn state visible to the caller.
 */

#ifndef GZKP_RUNTIME_RUNTIME_HH
#define GZKP_RUNTIME_RUNTIME_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "status/status.hh"

namespace gzkp::runtime {

/** hardware_concurrency(), never 0. */
std::size_t hardwareThreads();

/**
 * Parse a GZKP_THREADS-style spec: a positive decimal thread count.
 * Returns 0 for null/empty/garbage/zero/absurd (> 1024) values.
 */
std::size_t parseThreadsSpec(const char *spec);

/**
 * The process-wide default thread count: GZKP_THREADS if set and
 * valid, else hardwareThreads(). Cached after the first call.
 */
std::size_t defaultThreads();

/**
 * Override the process-wide default (the runtime config knob used by
 * tests and tools); 0 clears the cache so the next defaultThreads()
 * re-reads the environment.
 */
void setDefaultThreads(std::size_t threads);

/** Resolve a requested count: 0 means defaultThreads(). */
inline std::size_t
resolveThreads(std::size_t requested)
{
    return requested != 0 ? requested : defaultThreads();
}

/** Thrown when a parallel region observes a cancelled token. */
class CancelledError : public StatusError
{
  public:
    CancelledError()
        : StatusError(cancelledError("parallel region cancelled"))
    {}
};

/** Thrown when a parallel region observes an expired deadline. */
class DeadlineExceededError : public StatusError
{
  public:
    DeadlineExceededError()
        : StatusError(deadlineExceededError("deadline exceeded"))
    {}
};

/**
 * Cooperative cancellation + deadline. Shared by reference between
 * the controller (who calls cancel()) and the running pipeline (whose
 * parallel regions poll check()/throwIfStopped() between chunks).
 * All members are safe to call concurrently.
 */
class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    CancelToken() = default;

    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    /** Absolute deadline; once passed, regions stop cooperatively. */
    void
    setDeadline(Clock::time_point deadline)
    {
        deadlineNs_.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                deadline.time_since_epoch())
                .count(),
            std::memory_order_relaxed);
    }

    /** Convenience: deadline = now + timeout. */
    template <typename Rep, typename Period>
    void
    setTimeout(std::chrono::duration<Rep, Period> timeout)
    {
        setDeadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(timeout));
    }

    /**
     * Link this token to a parent (e.g. a request token to its
     * service's shutdown token): the child reports cancelled/expired
     * when either itself or any ancestor does. The parent must
     * outlive the child; linking is one-shot-style configuration
     * done before the token is shared, but the pointer is atomic so
     * a concurrent check() never races it.
     */
    void
    linkParent(const CancelToken *parent)
    {
        parent_.store(parent, std::memory_order_release);
    }

    bool
    cancelled() const
    {
        if (cancelled_.load(std::memory_order_relaxed))
            return true;
        const CancelToken *p = parent_.load(std::memory_order_acquire);
        return p != nullptr && p->cancelled();
    }

    bool
    expired() const
    {
        std::int64_t d = deadlineNs_.load(std::memory_order_relaxed);
        if (d != kNoDeadline &&
            Clock::now().time_since_epoch() >=
                std::chrono::nanoseconds(d))
            return true;
        const CancelToken *p = parent_.load(std::memory_order_acquire);
        return p != nullptr && p->expired();
    }

    /** kOk, kCancelled, or kDeadlineExceeded. */
    Status
    check() const
    {
        if (cancelled())
            return cancelledError("cancel requested");
        if (expired())
            return deadlineExceededError("deadline exceeded");
        return Status::ok();
    }

    /** The polling hook used inside parallel regions. */
    void
    throwIfStopped() const
    {
        if (cancelled())
            throw CancelledError();
        if (expired())
            throw DeadlineExceededError();
    }

    /**
     * The effective absolute deadline: the earliest of this token's
     * own deadline and every ancestor's, or nullopt when none in the
     * chain has one.
     */
    std::optional<Clock::time_point>
    deadline() const
    {
        std::optional<Clock::time_point> best;
        std::int64_t d = deadlineNs_.load(std::memory_order_relaxed);
        if (d != kNoDeadline)
            best = Clock::time_point(std::chrono::duration_cast<
                                     Clock::duration>(
                std::chrono::nanoseconds(d)));
        const CancelToken *p = parent_.load(std::memory_order_acquire);
        if (p != nullptr) {
            auto up = p->deadline();
            if (up && (!best || *up < *best))
                best = up;
        }
        return best;
    }

  private:
    static constexpr std::int64_t kNoDeadline = -1;

    std::atomic<bool> cancelled_{false};
    std::atomic<std::int64_t> deadlineNs_{kNoDeadline};
    std::atomic<const CancelToken *> parent_{nullptr};
};

/**
 * The calling thread's active token (nullptr when none installed).
 * Parallel regions capture it at entry and re-install it on their
 * workers, so nested regions inherit cancellation transparently.
 */
CancelToken *currentCancelToken();

/** Install `token` for the current scope (RAII; nestable). */
class CancelScope
{
  public:
    explicit CancelScope(CancelToken *token);
    ~CancelScope();

    CancelScope(const CancelScope &) = delete;
    CancelScope &operator=(const CancelScope &) = delete;

  private:
    CancelToken *prev_;
};

namespace detail {
/** Used by runWorkers to propagate the token onto worker threads. */
void setCurrentCancelToken(CancelToken *token);
} // namespace detail

/**
 * Upper bound on chunks per parallel region. Large enough that static
 * round-robin assignment balances well up to ~16 threads, small
 * enough that per-chunk state (bucket histograms, partial sums) stays
 * cheap.
 */
inline constexpr std::size_t kMaxChunks = 64;

/**
 * Number of chunks for n items: min(n, max_chunks). Depends only on
 * the problem size, never on the thread count -- the determinism
 * anchor.
 */
inline std::size_t
chunkCount(std::size_t n, std::size_t max_chunks = kMaxChunks)
{
    return std::min(n, max_chunks);
}

/** Half-open bounds of chunk j of `chunks` over [0, n). */
inline std::pair<std::size_t, std::size_t>
chunkBounds(std::size_t n, std::size_t chunks, std::size_t j)
{
    std::size_t base = n / chunks;
    std::size_t rem = n % chunks;
    std::size_t lo = j * base + std::min(j, rem);
    return {lo, lo + base + (j < rem ? 1 : 0)};
}

namespace detail {

/**
 * Run worker(w) for w in [0, workers): w = 0 on the calling thread,
 * the rest on freshly spawned std::threads. The first worker's
 * exception (in worker order) is rethrown after the join, so a
 * throwing chunk reports deterministically.
 */
template <typename Worker>
void
runWorkers(std::size_t workers, Worker &&worker)
{
    if (workers <= 1) {
        worker(std::size_t(0));
        return;
    }
    CancelToken *token = currentCancelToken();
    std::vector<std::exception_ptr> errs(workers);
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
        threads.emplace_back([&errs, &worker, token, w] {
            detail::setCurrentCancelToken(token);
            try {
                worker(w);
            } catch (...) {
                errs[w] = std::current_exception();
            }
        });
    }
    try {
        worker(std::size_t(0));
    } catch (...) {
        errs[0] = std::current_exception();
    }
    for (auto &t : threads)
        t.join();
    for (auto &e : errs)
        if (e)
            std::rethrow_exception(e);
}

} // namespace detail

/**
 * Chunked parallel loop: body(lo, hi, chunk) for every chunk of
 * [0, n), chunks assigned statically (chunk j -> worker j mod W).
 * Pass `max_chunks` to pin the chunk count (it must still be a
 * function of the instance only).
 */
template <typename Body>
void
parallelForChunks(std::size_t threads, std::size_t n, Body &&body,
                  std::size_t max_chunks = kMaxChunks)
{
    std::size_t chunks = chunkCount(n, max_chunks);
    if (chunks == 0)
        return;
    CancelToken *token = currentCancelToken();
    if (token)
        token->throwIfStopped();
    std::size_t workers = std::min(resolveThreads(threads), chunks);
    detail::runWorkers(workers, [&](std::size_t w) {
        for (std::size_t j = w; j < chunks; j += workers) {
            if (token)
                token->throwIfStopped();
            auto [lo, hi] = chunkBounds(n, chunks, j);
            body(lo, hi, j);
        }
    });
}

/** Element-wise parallel loop: body(i) for i in [0, n). */
template <typename Body>
void
parallelFor(std::size_t threads, std::size_t n, Body &&body,
            std::size_t max_chunks = kMaxChunks)
{
    parallelForChunks(
        threads, n,
        [&body](std::size_t lo, std::size_t hi, std::size_t) {
            for (std::size_t i = lo; i < hi; ++i)
                body(i);
        },
        max_chunks);
}

/**
 * Deterministic reduction: map(lo, hi) computes one chunk's partial
 * (T must be default-constructible), combine(acc, partial) folds the
 * partials *in ascending chunk order* after all workers join. The
 * chunk sequence and fold order are thread-count independent, so the
 * result is bit-identical at any thread count even when `combine` is
 * not associative at the representation level.
 */
template <typename T, typename Map, typename Combine>
T
parallelReduce(std::size_t threads, std::size_t n, T init, Map &&map,
               Combine &&combine, std::size_t max_chunks = kMaxChunks)
{
    std::size_t chunks = chunkCount(n, max_chunks);
    if (chunks == 0)
        return init;
    std::vector<T> partial(chunks);
    parallelForChunks(
        threads, n,
        [&partial, &map](std::size_t lo, std::size_t hi, std::size_t j) {
            partial[j] = map(lo, hi);
        },
        max_chunks);
    T acc = std::move(init);
    for (std::size_t j = 0; j < chunks; ++j)
        acc = combine(std::move(acc), std::move(partial[j]));
    return acc;
}

/**
 * Run independent tasks concurrently, each on its own worker (the
 * Groth16 prover runs each wave of its plan through this, see
 * zkp/prove_plan.hh). Task j receives shares[j] threads for its own
 * nested parallel regions. The shares must be positive, one per task,
 * and sum to at most `threads`, so the live thread count never
 * exceeds the budget; anything else throws std::invalid_argument.
 */
inline void
parallelInvoke(std::size_t threads,
               const std::vector<std::function<void(std::size_t)>> &tasks,
               const std::vector<std::size_t> &shares)
{
    std::size_t sum = 0;
    for (std::size_t s : shares)
        sum += s;
    if (shares.size() != tasks.size() ||
        std::find(shares.begin(), shares.end(), std::size_t(0)) !=
            shares.end() ||
        sum > resolveThreads(threads))
        throw std::invalid_argument(
            "parallelInvoke: shares must be positive, one per task, and "
            "sum to at most the thread budget");
    if (tasks.empty())
        return;
    CancelToken *token = currentCancelToken();
    detail::runWorkers(tasks.size(), [&](std::size_t j) {
        if (token)
            token->throwIfStopped();
        tasks[j](shares[j]);
    });
}

} // namespace gzkp::runtime

#endif // GZKP_RUNTIME_RUNTIME_HH
