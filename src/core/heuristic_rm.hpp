// The paper's fast heuristic (Algorithm 1): a max-regret knapsack mapper.
//
// Resources are knapsacks of capacity K-bar (the planning-window length);
// task weights are the occupied times cpm_{j,i}; desirability
// f_{j,i} = epm_{j,i} + M * [cpm_{j,i} > t_left_j].  Tasks are mapped in
// decreasing order of regret (gap between the best and second-best
// desirability); each mapping must pass the EDF IsSchedulable check, falling
// back to the next-best resource until the candidate list is exhausted.
// Worst-case complexity O(N * L * log L).
#pragma once

#include "core/manager.hpp"
#include "core/plan_instance.hpp"

#include <optional>
#include <span>

namespace rmwp {

class HeuristicRM final : public ResourceManager {
public:
    /// Ablation knobs (the defaults are the paper's Algorithm 1; the
    /// alternatives quantify how much each design choice contributes — see
    /// bench_ablations).
    struct Options {
        /// Order in which tasks are mapped.
        enum class Order {
            max_regret, ///< largest best-vs-second-best desirability gap (paper)
            edf,        ///< earliest deadline first
            arrival,    ///< instance order (active tasks, then candidate)
        };
        /// Desirability measure f_{j,i}.
        enum class Desirability {
            energy,         ///< epm_{j,i} (paper)
            energy_density, ///< epm_{j,i} / cpm_{j,i} (energy per occupied ms)
        };
        Order order = Order::max_regret;
        Desirability desirability = Desirability::energy;
    };

    HeuristicRM() = default;
    explicit HeuristicRM(Options options) : options_(options) {}

    [[nodiscard]] Decision decide(const ArrivalContext& context) override;
    /// Batched admission over the shared BatchPlanner base: one plan
    /// rebuild per batch, bit-identical decisions to sequential decide()s.
    /// Both entry points solve per resource group when the platform has
    /// more than one (DESIGN.md §15) — bit-identical to the whole-instance
    /// solve, pinned by tests/test_shard_admission.cpp.
    void decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) override;
    [[nodiscard]] RescueDecision rescue(const RescueContext& context) override;
    [[nodiscard]] std::string name() const override { return "heuristic"; }

    /// Run Algorithm 1 on a prepared instance.  Returns the per-task mapping
    /// (indexed like instance.tasks) or nullopt when no feasible mapping of
    /// the complete task set was found.  The span views this thread's
    /// PlanScratch arena — valid until the next map_tasks call on the same
    /// thread; copy it to keep it (keeps the admission hot path free of
    /// per-decision heap allocations, pinned by tests/test_alloc_count.cpp).
    [[nodiscard]] static std::optional<std::span<const ResourceId>> map_tasks(
        const PlanInstance& instance, const Options& options);
    [[nodiscard]] static std::optional<std::span<const ResourceId>> map_tasks(
        const PlanInstance& instance) {
        return map_tasks(instance, Options{});
    }

private:
    Options options_;
};

} // namespace rmwp
