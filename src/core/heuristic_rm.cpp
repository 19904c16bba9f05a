#include "core/heuristic_rm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/edf.hpp"
#include "core/shard.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The big-M of line 6: large enough to dominate any energy difference yet
/// finite so a desirability order still exists among infeasible choices.
constexpr double kBigM = 1e9;

/// ShardedSolver callback: Algorithm 1 over one bucket's sub-instance.
/// A heuristic rejection is never a proof of infeasibility.
bool sharded_map_tasks(const PlanInstance& sub, std::vector<ResourceId>& mapping, bool& proven,
                       void* ctx) {
    proven = true;
    const auto* options = static_cast<const HeuristicRM::Options*>(ctx);
    const auto result = HeuristicRM::map_tasks(sub, *options);
    if (!result.has_value()) return false;
    // The span views the worker thread's scratch — copy out before the next
    // solve on this thread reuses it.
    mapping.assign(result->begin(), result->end());
    return true;
}

/// Algorithm 1 is incomplete: a rejection means the regret-driven search was
/// exhausted, not that no schedulable mapping exists (Sec 5.2).
RejectReason exhausted(bool /*proven*/) { return RejectReason::heuristic_exhausted; }

} // namespace

std::optional<std::span<const ResourceId>> HeuristicRM::map_tasks(const PlanInstance& instance,
                                                              const Options& options) {
    RMWP_STAGE_SCOPE(obs::Stage::solve);
    const std::size_t n = instance.resource_count();
    const std::size_t count = instance.tasks.size();

    const Platform& platform = *instance.platform;

    PlanScratch& s = PlanScratch::local();
    s.reset(instance);
    // Physical anchors resolved once by reset(); the fit and placement
    // loops below read this table millions of times per serve run.
    auto phys = [&](ResourceId i) { return s.phys[i]; };

    // Lines 1-6: capacities and desirabilities.  Capacities live on
    // *physical* cores (operating points of a DVFS core share one
    // timeline), and critical reservations are carved out up front (Sec 2:
    // the adaptive policy runs "over the remaining set of resources").
    for (ResourceId i = 0; i < n; ++i)
        s.capacity[i] = instance.window - instance.blocked_time[i];

    for (std::size_t j = 0; j < count; ++j) {
        const PlanTask& task = instance.tasks[j];
        double* row = s.f.data() + j * n;
        for (const ResourceId i : task.executable) {
            const double penalty = task.cpm[i] > task.time_left(instance.now) ? kBigM : 0.0;
            const double base = options.desirability == Options::Desirability::energy
                                    ? task.epm[i]
                                    : task.epm[i] / static_cast<double>(task.cpm[i]);
            row[i] = base + penalty;
        }
    }

    // An open task's regret triple depends on capacity only through which
    // of its lanes fit (cpm_{j,i} <= capacity of the lane's anchor); its
    // lanes are never excluded, because exclusions only touch the task
    // being placed, which then leaves the open list either way.  Within one
    // solve capacity only shrinks, so the triple is re-derived only when a
    // placement makes one of its lanes stop fitting (the flip test below).
    auto fit = [&](std::size_t j) {
        const PlanTask& task = instance.tasks[j];
        const double* row = s.f.data() + j * n;
        RegretTriple t;
        for (const ResourceId i : task.executable) {
            if (task.cpm[i] > s.capacity[phys(i)]) continue;
            ++t.feasible;
            if (row[i] < t.best) {
                t.second = t.best;
                t.best = row[i];
            } else if (row[i] < t.second) {
                t.second = row[i];
            }
        }
        return t;
    };
    for (std::size_t j = 0; j < count; ++j) s.triple[j] = fit(j);

    while (!s.open.empty()) {
#ifdef RMWP_AUDIT
        // Drift gate (DESIGN.md §13): every cached triple equals a
        // from-scratch one.
        for (const std::size_t j : s.open) RMWP_ENSURE(s.triple[j] == fit(j));
#endif
        // Lines 8-23: pick the task with the maximum regret d* (or, under an
        // ablation ordering, the next unmapped task by deadline / arrival —
        // the feasibility bookkeeping stays identical).  `open` is
        // ascending, so strict comparisons keep the first task of a tie.
        double best_regret = -kInfinity;
        std::size_t best_pos = s.open.size();
        for (std::size_t k = 0; k < s.open.size(); ++k) {
            const std::size_t j = s.open[k];
            const RegretTriple& t = s.triple[j];
            if (t.feasible == 0) return std::nullopt; // line 22: no solution

            switch (options.order) {
            case Options::Order::max_regret: {
                const double regret = t.feasible == 1 ? kInfinity : t.second - t.best;
                if (regret > best_regret) {
                    best_regret = regret;
                    best_pos = k;
                }
                break;
            }
            case Options::Order::edf:
                if (best_pos == s.open.size() ||
                    instance.tasks[j].abs_deadline <
                        instance.tasks[s.open[best_pos]].abs_deadline)
                    best_pos = k;
                break;
            case Options::Order::arrival:
                if (best_pos == s.open.size()) best_pos = k;
                break;
            }
        }
        RMWP_ENSURE(best_pos < s.open.size());
        const std::size_t best_task = s.open[best_pos];

        // Lines 24-34: map the chosen task to its most desirable resource
        // that passes the schedulability check.
        const PlanTask& task = instance.tasks[best_task];
        const double* row = s.f.data() + best_task * n;
        std::fill(s.excluded.begin(), s.excluded.end(), std::uint8_t{0});
        bool placed = false;
        while (!placed) {
            double best_f = kInfinity;
            ResourceId target = n;
            for (const ResourceId i : task.executable) {
                if (s.excluded[i] || task.cpm[i] > s.capacity[phys(i)]) continue;
                if (row[i] < best_f) {
                    best_f = row[i];
                    target = i;
                }
            }
            if (target == n) return std::nullopt; // lines 31-32: no more resources

            // The per-anchor lists stay demand-ordered across probes
            // (insert / erase-at-index), so the schedulability check scans
            // them in place instead of re-sorting per probe.
            const ResourceId anchor = phys(target);
            const std::size_t pos =
                insert_demand_ordered(s.assigned[anchor], instance.item_for(best_task, target));
            if (resource_feasible_sorted(platform.resource(anchor), instance.now,
                                         s.assigned[anchor])) {
                s.mapping[best_task] = target;
                s.open.erase(s.open.begin() + static_cast<std::ptrdiff_t>(best_pos));
                const Time before = s.capacity[anchor];
                s.capacity[anchor] -= task.cpm[target];
                const Time after = s.capacity[anchor];
                placed = true;
                // Flip test: an open task's triple changes iff one of its
                // lanes on this anchor fitted before the placement and no
                // longer does.
                const ResourceId* lane_first = s.lanes.data() + s.lane_begin[anchor];
                const ResourceId* lane_last = s.lanes.data() + s.lane_begin[anchor + 1];
                for (const std::size_t j : s.open) {
                    const Time* cpm = instance.tasks[j].cpm.data();
                    for (const ResourceId* lane = lane_first; lane != lane_last; ++lane) {
                        if (after < cpm[*lane] && cpm[*lane] <= before) {
                            s.triple[j] = fit(j);
                            break;
                        }
                    }
                }
            } else {
                s.assigned[anchor].erase(s.assigned[anchor].begin() +
                                         static_cast<std::ptrdiff_t>(pos));
                s.excluded[target] = 1;
            }
        }
    }

    return std::span<const ResourceId>(s.mapping);
}

Decision HeuristicRM::decide(const ArrivalContext& context) {
    const ShardConfig& shard = shard_config();
    if (shard.shards > 1)
        return decide_sharded(context, shard, &sharded_map_tasks, &options_, &exhausted);
    Decision decision = run_admission_ladder(
        context, [this](const PlanInstance& instance) { return map_tasks(instance, options_); });
    if (!decision.admitted) decision.reason = RejectReason::heuristic_exhausted;
    RMWP_ENSURE(decision.admitted || decision.reason == RejectReason::heuristic_exhausted);
    return decision;
}

void HeuristicRM::decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) {
    RMWP_EXPECT(batch.platform != nullptr && batch.catalog != nullptr);
    const ShardConfig& shard = shard_config();
    if (shard.shards > 1) {
        decide_batch_sharded(batch, shard, &sharded_map_tasks, &options_, &exhausted, out);
        return;
    }
    BatchPlanner planner(batch);
    out.clear();
    out.reserve(batch.items.size());
    for (std::size_t m = 0; m < planner.item_count(); ++m) {
        Decision decision = run_admission_ladder_batch(planner, m, [this](const PlanInstance& instance) {
            return map_tasks(instance, options_);
        });
        if (!decision.admitted) decision.reason = RejectReason::heuristic_exhausted;
        out.push_back(std::move(decision));
    }
    RMWP_ENSURE(out.size() == batch.items.size());
}

RescueDecision HeuristicRM::rescue(const RescueContext& context) {
    return run_rescue_ladder(
        context, [this](const PlanInstance& instance) { return map_tasks(instance, options_); });
}

} // namespace rmwp
