// Shared admission test fixtures: the test-only whole-instance reference
// RMs, a decision comparison, and the four-island platform.  The reference
// runs the admission ladder over the complete plan instance, never
// decomposed by resource group; it is the specification HeuristicRM and
// ExactRM must reproduce bit for bit (DESIGN.md §15).  Its rescue delegates
// to the real RM, which never decomposes.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"

namespace rmwp {

inline ActiveTask task_of(TaskUid uid, TaskTypeId type, double arrival_ms,
                          double rel_deadline_ms) {
    ActiveTask task;
    task.uid = uid;
    task.type = type;
    task.arrival = ms(arrival_ms);
    task.absolute_deadline = ms(arrival_ms + rel_deadline_ms);
    return task;
}

/// Eight plain cores, two GPUs, one DVFS core: eleven physical resources
/// that generate_partitioned_catalog deals round-robin into four islands
/// (0: CPU0 CPU4 GPU0, 1: CPU1 CPU5 GPU1, 2: CPU2 CPU6 DVFS, 3: CPU3 CPU7),
/// each with at least one CPU.  The DVFS core's operating point exercises
/// the partition's "points join their physical core" rule.
inline Platform make_islands_platform() {
    PlatformBuilder builder;
    for (int k = 0; k < 8; ++k) builder.add_cpu("CPU" + std::to_string(k));
    builder.add_gpu("GPU0");
    builder.add_gpu("GPU1");
    builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
    return builder.build();
}

class WholeInstanceRM final : public ResourceManager {
public:
    enum class Solver { heuristic, exact };

    explicit WholeInstanceRM(Solver solver, ExactRM::Options exact = {})
        : solver_(solver), exact_(exact) {}

    [[nodiscard]] Decision decide(const ArrivalContext& context) override {
        bool proven = true;
        return finish(run_admission_ladder(
                          context, [&](const PlanInstance& i) { return solve(i, proven); }),
                      proven);
    }

    void decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) override {
        BatchPlanner planner(batch);
        out.clear();
        for (std::size_t m = 0; m < planner.item_count(); ++m) {
            bool proven = true;
            out.push_back(finish(run_admission_ladder_batch(
                                     planner, m,
                                     [&](const PlanInstance& i) { return solve(i, proven); }),
                                 proven));
        }
    }

    [[nodiscard]] RescueDecision rescue(const RescueContext& context) override {
        if (solver_ == Solver::heuristic) return HeuristicRM().rescue(context);
        return ExactRM(exact_).rescue(context);
    }

    [[nodiscard]] std::string name() const override {
        return solver_ == Solver::heuristic ? "heuristic" : "exact";
    }

private:
    std::optional<std::span<const ResourceId>> solve(const PlanInstance& instance, bool& proven) {
        if (solver_ == Solver::heuristic) return HeuristicRM::map_tasks(instance);
        bool step_proven = true;
        auto result = ExactRM::optimize(instance, exact_, &step_proven);
        proven = proven && (result.has_value() || step_proven);
        if (!result) return std::nullopt;
        mapping_ = std::move(result->mapping);
        return std::span<const ResourceId>(mapping_);
    }

    [[nodiscard]] Decision finish(Decision decision, bool proven) const {
        if (decision.admitted) return decision;
        if (solver_ == Solver::heuristic) decision.reason = RejectReason::heuristic_exhausted;
        else decision.reason = proven ? RejectReason::proved_infeasible : RejectReason::solver_infeasible;
        return decision;
    }

    Solver solver_;
    ExactRM::Options exact_;
    std::vector<ResourceId> mapping_;
};

inline void expect_same_decision(const Decision& a, const Decision& b, const char* what,
                                 std::uint64_t seed, std::size_t index = 0) {
    EXPECT_EQ(a.admitted, b.admitted) << what << " seed " << seed << " item " << index;
    EXPECT_EQ(a.used_prediction, b.used_prediction)
        << what << " seed " << seed << " item " << index;
    EXPECT_EQ(static_cast<int>(a.reason), static_cast<int>(b.reason))
        << what << " seed " << seed << " item " << index;
    ASSERT_EQ(a.assignments.size(), b.assignments.size())
        << what << " seed " << seed << " item " << index;
    for (std::size_t k = 0; k < a.assignments.size(); ++k) {
        EXPECT_EQ(a.assignments[k].uid, b.assignments[k].uid)
            << what << " seed " << seed << " item " << index;
        EXPECT_EQ(a.assignments[k].resource, b.assignments[k].resource)
            << what << " seed " << seed << " item " << index;
    }
}

} // namespace rmwp
