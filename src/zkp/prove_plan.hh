/**
 * @file
 * The prover's thread plan: which of the five MSMs run together, and
 * on how many threads each.
 *
 * The MSM stage is five independent MSMs (Figure 1). Only the h MSM
 * reads POLY's output; the other four read only the witness z. An
 * equal split of the thread budget leaves the stage waiting on the G2
 * b2 MSM, which costs about 2.3 G1 MSMs of the same length. GZKP
 * balances bucket work across the whole GPU (Section 4.2); here the
 * five MSMs share the CPU budget in proportion to their cost.
 *
 * planProve() is a pure function of the five query lengths, POLY's
 * modeled cost and the budget. It returns waves of lanes. The lanes of
 * a wave run concurrently, each on its own share of the budget, and a
 * wave ends when its slowest lane does. POLY heads the h lane, so h
 * waits for it while the z-MSMs run beside it; POLY itself stays
 * serial. An MSM's cost is its length times kG2PerPointCost on G2 (1
 * on G1), divided by its share's speedup. The speedup is the share
 * itself unless the engine deals the MSM to its threads as a few equal
 * task groups (`groups`): the cached GZKP bucket phase runs one group
 * per kDrainRound live buckets, 4 at sapling's 2^13 tables, so an MSM
 * runs as long on 3 threads as on 2 (see shareSpeedup()).
 *
 * The plan has at most two waves. With a budget of three or more,
 * two waves hold all five MSMs; below that, the equal-share lanes are
 * already within a few percent of an even split (at budget 2, one G2
 * and four G1 MSMs split about 3.2 : 3.0). Within each wave the shares
 * are the greedy min-max fill: every lane starts at one thread and
 * each spare thread goes to the slowest lane. The two-wave plan is
 * used only when its modeled makespan beats the equal-share lanes the
 * prover ran before (POLY alone, then the five MSMs dealt round-robin
 * onto min(budget, 5) lanes of max(1, budget / 5) threads each).
 *
 * MSM results are group elements, so no plan can move a proof byte.
 */

#ifndef GZKP_ZKP_PROVE_PLAN_HH
#define GZKP_ZKP_PROVE_PLAN_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace gzkp::zkp {

/** The prover's tasks: the five MSMs in MSM order, then POLY. */
enum class ProveTask : std::uint8_t { A, B2, B1, L, H, Poly };

inline constexpr std::size_t kMsmCount = 5;

/**
 * Modeled cost of one G2 MSM point, in G1 MSM points. Measured 2.3 on
 * the sapling circuit (2^13): the cached b2 MSM against the mean of
 * the four G1 MSMs, one thread each (median of 27 interleaved reps,
 * quartiles 2.07 and 2.48).
 */
inline constexpr double kG2PerPointCost = 2.3;

/**
 * Modeled cost of POLY per domain point, in G1 MSM points. Measured
 * 0.5 on the sapling circuit (2^13): the serial POLY stage against the
 * cached h MSM on one thread (median of 27 interleaved reps, quartiles
 * 0.47 and 0.53).
 */
inline constexpr double kPolyCostPerDomainPoint = 0.5;

/** Tasks run in order on one worker, each with `share` threads. */
struct PlanLane {
    std::vector<ProveTask> tasks;
    std::size_t share = 1;
};

/** Lanes that run concurrently; the wave ends with its last lane. */
using PlanWave = std::vector<PlanLane>;

struct ProvePlan {
    std::vector<PlanWave> waves;
    /** Modeled makespan, in G1 MSM points. */
    double makespan = 0;
};

/** Task groups per MSM, in MSM order; 0 for a fine-grained MSM. */
using MsmGroups = std::array<std::size_t, kMsmCount>;

/**
 * Modeled speedup of an MSM on `share` threads. An engine that deals
 * the MSM to its threads as `groups` equal task groups, statically,
 * runs ceil(groups / share) of them on its busiest thread, so a share
 * that does not divide the groups buys nothing until it does. 0
 * groups: fine-grained, the speedup is the share.
 */
inline double
shareSpeedup(std::size_t share, std::size_t groups)
{
    if (groups == 0)
        return double(share);
    return double(groups) / double((groups + share - 1) / share);
}

namespace detail {

/** Modeled time of `task` on `share` threads (POLY is serial). */
inline double
planTaskTime(const std::array<double, kMsmCount> &cost,
             const MsmGroups &groups, double poly, std::size_t task,
             std::size_t share)
{
    double t = cost[task] / shareSpeedup(share, groups[task]);
    return task == std::size_t(ProveTask::H) ? poly + t : t;
}

/**
 * One wave of one-task lanes over `tasks` (MSM indices): shares by the
 * greedy min-max fill, lanes heaviest first. Returns its makespan.
 */
inline double
planWave(const std::array<double, kMsmCount> &cost,
         const MsmGroups &groups, double poly, bool polyPending,
         const std::vector<std::size_t> &tasks, std::size_t budget,
         PlanWave &wave)
{
    std::vector<std::size_t> share(tasks.size(), 1);
    auto time = [&](std::size_t i) {
        return planTaskTime(cost, groups, poly, tasks[i], share[i]);
    };
    for (std::size_t spare = budget - tasks.size(); spare > 0; --spare) {
        std::size_t slow = 0;
        for (std::size_t i = 1; i < tasks.size(); ++i)
            if (time(i) > time(slow))
                slow = i;
        if (cost[tasks[slow]] == 0)
            break; // only POLY is left to wait on; it is serial
        ++share[slow];
    }
    std::vector<std::size_t> order(tasks.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                         return planTaskTime(cost, groups, poly, tasks[x],
                                             1) >
                             planTaskTime(cost, groups, poly, tasks[y], 1);
                     });
    double makespan = 0;
    wave.clear();
    for (std::size_t i : order) {
        PlanLane lane;
        if (polyPending && tasks[i] == std::size_t(ProveTask::H))
            lane.tasks.push_back(ProveTask::Poly);
        lane.tasks.push_back(ProveTask(tasks[i]));
        lane.share = share[i];
        wave.push_back(std::move(lane));
        makespan = std::max(makespan, time(i));
    }
    return makespan;
}

/** The equal-share lanes: POLY alone, then the MSMs round-robin. */
inline ProvePlan
equalShareLanes(const std::array<double, kMsmCount> &cost,
                const MsmGroups &groups,
                std::optional<double> polyCost, std::size_t budget)
{
    std::size_t lanes = std::min(budget, kMsmCount);
    std::size_t share = std::max<std::size_t>(1, budget / kMsmCount);
    PlanWave wave(lanes);
    std::vector<double> busy(lanes, 0);
    for (std::size_t j = 0; j < kMsmCount; ++j) {
        wave[j % lanes].tasks.push_back(ProveTask(j));
        wave[j % lanes].share = share;
        busy[j % lanes] += cost[j] / shareSpeedup(share, groups[j]);
    }
    ProvePlan plan;
    plan.makespan = *std::max_element(busy.begin(), busy.end());
    if (polyCost) {
        plan.makespan += *polyCost;
        if (lanes == 1)
            wave[0].tasks.insert(wave[0].tasks.begin(), ProveTask::Poly);
        else
            plan.waves.push_back({PlanLane{{ProveTask::Poly}, 1}});
    }
    plan.waves.push_back(std::move(wave));
    return plan;
}

} // namespace detail

/**
 * Plan the MSM stage for query lengths `points` (MSM order: a, b2,
 * b1, l, h) on `budget` threads. `polyCost` is POLY's modeled cost in
 * G1 MSM points, or nullopt when h is already computed. `groups` are
 * the engine's task groups per MSM (0: fine-grained). Among two-wave
 * plans of equal makespan the one that front-loads more work wins,
 * then the first in MSM-subset order; with POLY pending, its wave runs
 * first.
 */
inline ProvePlan
planProve(const std::array<std::size_t, kMsmCount> &points,
          std::optional<double> polyCost, std::size_t budget,
          const MsmGroups &groups = {})
{
    budget = std::max<std::size_t>(budget, 1);
    std::array<double, kMsmCount> cost;
    for (std::size_t j = 0; j < kMsmCount; ++j)
        cost[j] = double(points[j]) *
            (j == std::size_t(ProveTask::B2) ? kG2PerPointCost : 1.0);
    double poly = polyCost.value_or(0);
    const std::uint32_t hBit = 1u << std::size_t(ProveTask::H);

    ProvePlan best;
    double bestFront = -1;
    for (std::uint32_t mask = 1; mask < (1u << kMsmCount); ++mask) {
        if (polyCost && !(mask & hBit))
            continue;
        std::vector<std::size_t> first, second;
        double front = 0;
        for (std::size_t j = 0; j < kMsmCount; ++j) {
            if (mask & (1u << j)) {
                first.push_back(j);
                front += detail::planTaskTime(cost, groups, poly, j, 1);
            } else {
                second.push_back(j);
            }
        }
        if (first.size() > budget || second.size() > budget)
            continue;
        ProvePlan plan;
        plan.waves.resize(second.empty() ? 1 : 2);
        plan.makespan = detail::planWave(cost, groups, poly,
                                         bool(polyCost), first, budget,
                                         plan.waves[0]);
        if (!second.empty())
            plan.makespan += detail::planWave(cost, groups, poly, false,
                                              second, budget,
                                              plan.waves[1]);
        if (bestFront < 0 || plan.makespan < best.makespan ||
            (plan.makespan == best.makespan && front > bestFront)) {
            best = std::move(plan);
            bestFront = front;
        }
    }
    ProvePlan lanes =
        detail::equalShareLanes(cost, groups, polyCost, budget);
    if (bestFront < 0 || lanes.makespan <= best.makespan)
        return lanes;
    return best;
}

} // namespace gzkp::zkp

#endif // GZKP_ZKP_PROVE_PLAN_HH
