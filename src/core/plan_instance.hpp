// Materialisation of one RM activation's optimisation instance: the task
// set S-bar (active tasks + new candidate + optionally the predicted task)
// with per-resource cpm/epm tables, the planning window K-bar, and
// convenience conversion to ScheduleItems.  Shared by the heuristic, the
// branch-and-bound exact optimiser, and the MILP encoder so that all three
// agree on the instance by construction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/manager.hpp"

namespace rmwp {

/// One task of the optimisation instance.
struct PlanTask {
    TaskUid uid = 0;
    Time release = 0;
    Time abs_deadline = 0;
    bool pinned = false;
    ResourceId pinned_resource = 0;
    bool is_predicted = false;
    bool is_candidate = false;
    /// cpm_{j,i} / epm_{j,i} indexed by resource; kNever / +inf when not
    /// executable.
    std::vector<Time> cpm;
    std::vector<double> epm;
    /// Resources the task can execute on (respecting pinning).
    std::vector<ResourceId> executable;

    [[nodiscard]] Time time_left(Time now) const noexcept { return abs_deadline - now; }
};

struct PlanPool;

/// The full instance for one activation.
struct PlanInstance {
    const Platform* platform = nullptr;
    Time now = 0;
    Time window = 0; ///< K-bar = max_j t_left_j
    std::vector<PlanTask> tasks; ///< candidate and (if any) predicted are last
    std::size_t predicted_count = 0; ///< predicted tasks included (at the tail)
    /// Critical-reservation blocks intersecting the window, per resource.
    std::vector<std::vector<ScheduleItem>> blocks;
    /// Reserved time per resource within the window (capacity reduction).
    std::vector<Time> blocked_time;

    [[nodiscard]] bool has_predicted() const noexcept { return predicted_count > 0; }

    /// Build from an activation context.  `predicted_count` selects how
    /// many of the context's predicted tasks (nearest first) join the
    /// instance as planning constraints — the Sec 4.1 fallback re-plans
    /// with 0; bool converts naturally (true = 1 predicted, false = none).
    [[nodiscard]] static PlanInstance build(const ArrivalContext& context,
                                            std::size_t predicted_count);

    /// build() into a caller-owned arena: fills `pool.instance` in place,
    /// reusing every per-task vector capacity, and returns a reference to
    /// it.  Field-identical to build() on the same context (an RMWP_AUDIT
    /// drift check in the batch planner compares the two), but free of
    /// steady-state heap allocations — this is what the admission ladder
    /// runs on.  The reference is valid until the next build_into on the
    /// same pool.
    static const PlanInstance& build_into(PlanPool& pool, const ArrivalContext& context,
                                          std::size_t predicted_count);

    /// Build a fault-rescue instance over `tasks` (a subset of the rescue
    /// context's survivors): no candidate, no predicted task, resource
    /// health applied (offline resources excluded from `executable`,
    /// throttled cpm inflated).  A task can legitimately end up with an
    /// empty executable set here — it cannot be rescued.
    [[nodiscard]] static PlanInstance build_rescue(const RescueContext& context,
                                                   std::span<const ActiveTask> tasks);

    [[nodiscard]] std::size_t resource_count() const noexcept { return platform->size(); }

    /// ScheduleItem for assigning tasks[index] to resource i.
    [[nodiscard]] ScheduleItem item_for(std::size_t index, ResourceId i) const;

    /// Convert a per-task resource assignment into Decision assignments for
    /// the real tasks (predicted excluded).
    [[nodiscard]] std::vector<TaskAssignment> real_assignments(
        std::span<const ResourceId> mapping) const;
};

/// Arena for pooled PlanInstance construction (build_into).  `spare` parks
/// surplus PlanTask shells — shrinking the task list must not destroy their
/// heap buffers, or the next deeper ladder rung would reallocate them.
/// Obtain via local(): thread-local for the same reason as PlanScratch (one
/// RM object is shared across the parallel experiment engine's threads).
struct PlanPool {
    PlanInstance instance;
    std::vector<PlanTask> spare;

    /// The calling thread's pool.
    [[nodiscard]] static PlanPool& local();
};

namespace plan_detail {
/// Resize a pooled task list without destroying PlanTask heap buffers:
/// surplus shells park in `spare` and return on the next growth, so
/// rung-to-rung (and per-group sub-instance) resizes do no steady-state
/// allocation.  Shared by the ladder, BatchPlanner, and ShardedSolver.
void set_task_count(std::vector<PlanTask>& tasks, std::vector<PlanTask>& spare,
                    std::size_t count);
} // namespace plan_detail

/// Shared planning state for one coalesced batch of same-instant arrivals:
/// the working active set (base) is materialised as plan tasks once, and
/// each item's ladder rungs only rewrite the candidate + predicted tail of
/// the pooled instance.  On admission the candidate folds into the base and
/// only rows whose task actually moved are recomputed — one plan rebuild
/// per batch instead of one per (item × rung).  Under RMWP_AUDIT every
/// assembled instance is compared field-by-field against a from-scratch
/// PlanInstance::build of the equivalent sequential context, proving the
/// incremental base never drifts.
class BatchPlanner {
public:
    /// Buffers (working set, pooled instance, spare task shells) live on a
    /// thread-local arena, so a steady stream of batches does no heap work
    /// beyond the Decision outputs (pinned by tests/test_alloc_count.cpp).
    /// Consequently at most one BatchPlanner may be live per thread — the
    /// one-per-decide_batch usage of the solver RMs.
    explicit BatchPlanner(const BatchArrivalContext& batch);

    [[nodiscard]] std::size_t item_count() const noexcept { return batch_->items.size(); }
    [[nodiscard]] std::size_t predicted_count(std::size_t m) const {
        return batch_->items[m].predicted.size();
    }

    /// Assemble the instance for item `m` at ladder rung `k` (that many
    /// predicted tasks included).  The reference is valid until the next
    /// assemble/admit call.
    [[nodiscard]] const PlanInstance& assemble(std::size_t m, std::size_t k);

    /// Fold item `m`, admitted with `mapping` over the last assembled
    /// instance, into the shared working set (mirroring the simulator's
    /// RM-visible apply) and return its Decision (used_prediction unset —
    /// the ladder fills it).
    [[nodiscard]] Decision admit(std::size_t m, std::span<const ResourceId> mapping);

private:
    static constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);

    const BatchArrivalContext* batch_;
    std::vector<ActiveTask>& working_;  ///< active set incl. prior admissions
    std::size_t base_count_ = 0;        ///< prefix of instance_.tasks mirroring working_
    std::size_t candidate_for_ = kNoItem; ///< item whose candidate row is cached
    PlanInstance& instance_;
    std::vector<PlanTask>& spare_;
};

/// Algorithm 1's per-task view of the remaining platform: the best and
/// second-best desirability over the task's lanes that still fit, and how
/// many lanes fit.  The regret d* is `second - best`.
struct RegretTriple {
    double best = std::numeric_limits<double>::infinity();
    double second = std::numeric_limits<double>::infinity();
    std::size_t feasible = 0;

    friend bool operator==(const RegretTriple&, const RegretTriple&) = default;
};

/// Reusable scratch arena for admission solvers: the desirability matrix,
/// exclusion bitmap, per-resource schedule buffers, and the cached
/// regret triples of the heuristic's outer loop.
/// Admission runs thousands of times per trace, and before this arena every
/// run allocated (and freed) count x n matrices plus one schedule vector
/// per resource; reset() reuses the buffers, so steady-state admission does
/// no heap work at all.  Obtain via local(): the arena is thread-local by
/// design — the parallel experiment engine shares one RM object across
/// threads, so solver scratch must never live on the RM itself.
struct PlanScratch {
    // Knapsack state (task-major matrix: element (j, i) at [j * n + i]).
    std::vector<Time> capacity;          ///< per physical resource
    std::vector<double> f;               ///< desirability f_{j,i}
    std::vector<std::uint8_t> excluded;  ///< lanes the task being placed failed on
    std::vector<ResourceId> mapping;
    std::vector<std::vector<ScheduleItem>> assigned; ///< per physical resource
    std::vector<ResourceId> phys; ///< resource id -> physical anchor id
    /// Physical anchor -> its lanes (the resources sharing that core):
    /// anchor a owns lanes[lane_begin[a] .. lane_begin[a + 1]).
    std::vector<std::size_t> lane_begin;
    std::vector<ResourceId> lanes;

    // Incremental regret state: `open` lists the unmapped tasks in
    // ascending index order (the scan order that keeps ties first-wins);
    // `triple` caches each task's regret triple.
    std::vector<std::size_t> open;
    std::vector<RegretTriple> triple;

    /// Size every buffer for the instance and seed the per-resource
    /// schedule buffers from its reservation blocks.
    void reset(const PlanInstance& instance);

    /// Total heap footprint of the arena's buffers (capacities, not
    /// sizes).  Reported as the obs stage profile's high-water mark.
    [[nodiscard]] std::uint64_t footprint_bytes() const noexcept;

    /// The calling thread's arena.
    [[nodiscard]] static PlanScratch& local();
};

/// The Sec 4.1 admission ladder, generalised to multi-step lookahead:
/// try planning with all predicted tasks, trimming the furthest prediction
/// on failure (nearest predictions are the most reliable), down to the
/// prediction-free plan; reject only when even that fails.  `solve` maps a
/// PlanInstance to an optional per-task mapping.
template <typename Solver>
[[nodiscard]] Decision run_admission_ladder(const ArrivalContext& context, Solver&& solve) {
    Decision decision;
    PlanPool& pool = PlanPool::local();
    for (std::size_t k = context.predicted.size() + 1; k-- > 0;) {
        const PlanInstance& instance = PlanInstance::build_into(pool, context, k);
        if (const auto mapping = solve(instance)) {
            decision.admitted = true;
            decision.used_prediction = k > 0;
            decision.assignments = instance.real_assignments(*mapping);
            return decision;
        }
    }
    return decision; // reject; the previous mapping stays in force
}

/// The admission ladder over a BatchPlanner-assembled instance: identical
/// rung order and semantics to run_admission_ladder, but the instance comes
/// from the batch's shared base and an admission folds back into it.
template <typename Solver>
[[nodiscard]] Decision run_admission_ladder_batch(BatchPlanner& planner, std::size_t m,
                                                  Solver&& solve) {
    for (std::size_t k = planner.predicted_count(m) + 1; k-- > 0;) {
        const PlanInstance& instance = planner.assemble(m, k);
        if (const auto mapping = solve(instance)) {
            Decision decision = planner.admit(m, *mapping);
            decision.used_prediction = k > 0;
            return decision;
        }
    }
    return Decision{}; // reject; the previous mapping stays in force
}

/// The fault-rescue counterpart of the admission ladder: try to re-plan the
/// complete surviving set on the healthy capacity; while that fails, shed
/// the most constraining task (largest best-case load relative to its
/// remaining slack) and retry.  Tasks with no feasible resource at all are
/// shed first.  Terminates because every retry plans one task fewer, and
/// the empty set is trivially feasible.  `solve` maps a PlanInstance to an
/// optional per-task mapping, exactly as in run_admission_ladder.
template <typename Solver>
[[nodiscard]] RescueDecision run_rescue_ladder(const RescueContext& context, Solver&& solve) {
    RescueDecision decision;
    std::vector<ActiveTask> keep(context.active.begin(), context.active.end());
    while (!keep.empty()) {
        const PlanInstance instance = PlanInstance::build_rescue(context, keep);

        bool shed_unsavable = false;
        for (std::size_t j = keep.size(); j-- > 0;) {
            if (!instance.tasks[j].executable.empty()) continue;
            decision.aborted.push_back(keep[j].uid);
            keep.erase(keep.begin() + static_cast<std::ptrdiff_t>(j));
            shed_unsavable = true;
        }
        if (shed_unsavable) continue;

        if (const auto mapping = solve(instance)) {
            decision.kept = instance.real_assignments(*mapping);
            return decision;
        }

        std::size_t victim = 0;
        double worst = -1.0;
        for (std::size_t j = 0; j < keep.size(); ++j) {
            const PlanTask& task = instance.tasks[j];
            Time cheapest = task.cpm[task.executable.front()];
            for (const ResourceId i : task.executable)
                cheapest = std::min(cheapest, task.cpm[i]);
            const Time slack = std::max<Time>(task.time_left(context.now), 1);
            const double ratio = static_cast<double>(cheapest) / static_cast<double>(slack);
            const bool better =
                ratio > worst ||
                (ratio == worst && task.abs_deadline > instance.tasks[victim].abs_deadline) ||
                (ratio == worst && task.abs_deadline == instance.tasks[victim].abs_deadline &&
                 task.uid > instance.tasks[victim].uid);
            if (better) {
                worst = ratio;
                victim = j;
            }
        }
        decision.aborted.push_back(keep[victim].uid);
        keep.erase(keep.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    return decision;
}

} // namespace rmwp
