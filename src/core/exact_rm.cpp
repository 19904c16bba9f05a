#include "core/exact_rm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "core/edf.hpp"
#include "core/shard.hpp"
#include "obs/stage_timer.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Error-free cost accumulator for the branch-and-bound (DESIGN.md §15).
///
/// A plain `double` running sum resolves real-valued cost ties by
/// rounding noise, and that noise depends on accumulation order: the
/// monolithic solve interleaves every resource group's terms while a
/// per-group sub-solve sums only its own group's, so two same-type
/// tasks whose swapped placements cost exactly the same could come out
/// swapped between the two paths.  Admission costs are sums of at most
/// a few dozen task energies of similar magnitude, so the exact sum
/// fits comfortably in the 106 significand bits of a renormalised
/// double-double pair — and exact sums are order-independent, which
/// restores bit-identity between the whole-instance and per-group
/// searches.  The pair is kept canonical (hi carries the rounded
/// value, |lo| <= ulp(hi)/2), so equal reals compare equal and the
/// lexicographic comparison below is a true real comparison.
struct ExactSum {
    double hi = 0.0;
    double lo = 0.0;

    [[nodiscard]] ExactSum plus(double x) const {
        // Knuth two-sum of (hi, x), fold in lo, renormalise.  Exact as
        // long as the true sum's significand fits the pair, which holds
        // for any realistic cost scale (terms within ~15 binades).
        const double s = hi + x;
        const double b = s - hi;
        const double err = ((hi - (s - b)) + (x - b)) + lo;
        const double h = s + err;
        return ExactSum{h, err - (h - s)};
    }

    [[nodiscard]] bool less_than(const ExactSum& other) const {
        if (hi != other.hi) return hi < other.hi;
        return lo < other.lo;
    }
};

/// A rejection is a proof of infeasibility only when every failed ladder
/// step exhausted its search tree; otherwise (node limit hit with no
/// incumbent) it is only the budget speaking.
RejectReason reject_reason(bool proven) {
    return proven ? RejectReason::proved_infeasible : RejectReason::solver_infeasible;
}

/// ShardedSolver callback: branch-and-bound over a whole instance or one
/// group's sub-instance.  Costs and feasibility separate across groups, so
/// the per-group optima compose into the global optimum; `proven` reports
/// whether a failure exhausted the search tree (node budgets are per solve
/// — see the DESIGN.md §15 caveat).
std::optional<std::span<const ResourceId>> solve(const PlanInstance& instance, bool& proven,
                                                 void* ctx) {
    thread_local std::vector<ResourceId> mapping;
    auto result = ExactRM::optimize(instance, *static_cast<const ExactRM::Options*>(ctx), &proven);
    if (!result) return std::nullopt;
    mapping = std::move(result->mapping);
    return std::span<const ResourceId>(mapping);
}

/// Depth-first search state.  Pooled thread-locally (search_scratch):
/// admission runs the search thousands of times per trace, and the
/// per-call vector churn (order, suffix bounds, per-resource partial
/// schedules, candidate lists) was pure allocator traffic.
struct Search {
    const PlanInstance* instance = nullptr;
    const ExactRM::Options* options = nullptr;

    std::vector<std::size_t> order;           ///< task indices, most-constrained first
    std::vector<ExactSum> min_cost_suffix;    ///< optimistic cost of order[d..]
    std::vector<std::vector<ScheduleItem>> assigned; ///< per-resource partial schedule
    /// Executable resources of task order[d], cheapest first, at
    /// candidates[candidate_begin[d] .. candidate_begin[d + 1]).
    std::vector<ResourceId> candidates;
    std::vector<std::size_t> candidate_begin;

    std::vector<ResourceId> current;          ///< current[j] = resource of tasks[j]
    std::vector<ResourceId> best;
    ExactSum best_cost{kInfinity, 0.0};
    bool proven = true;
    std::uint64_t nodes = 0;

    void reset(const PlanInstance& inst, const ExactRM::Options& opts) {
        instance = &inst;
        options = &opts;
        const std::size_t count = inst.tasks.size();
        const std::size_t n = inst.resource_count();

        // Critical-reservation blocks are fixed occupants of every partial
        // schedule the search explores; demand order lets the probe loop
        // keep the lists incrementally sorted.
        if (assigned.size() < n) assigned.resize(n);
        for (ResourceId i = 0; i < n; ++i) {
            assigned[i].clear();
            assigned[i].insert(assigned[i].end(), inst.blocks[i].begin(), inst.blocks[i].end());
            std::sort(assigned[i].begin(), assigned[i].end(), demand_order);
        }
        current.assign(count, 0);
        best.clear();
        best_cost = ExactSum{kInfinity, 0.0};
        proven = true;
        nodes = 0;

        // Most-constrained-first ordering: fewest executable resources,
        // then earliest deadline, then instance position.  Pinned tasks
        // have a single option, so they land at the front and act as fixed
        // context for everything after them.  The final tie-break totalises
        // the order (std::sort is unstable): the search's exploration order
        // — and with it the returned optimum under cost ties — is then a
        // pure function of the instance, which is what lets a per-group
        // sub-solve reproduce the sequential result bit for bit
        // (DESIGN.md §15; a sub-instance preserves instance position).
        order.resize(count);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            const PlanTask& ta = inst.tasks[a];
            const PlanTask& tb = inst.tasks[b];
            if (ta.executable.size() != tb.executable.size())
                return ta.executable.size() < tb.executable.size();
            if (ta.abs_deadline != tb.abs_deadline) return ta.abs_deadline < tb.abs_deadline;
            return a < b;
        });

        // Cheapest-first exploration finds a good incumbent early, and it
        // is what makes dfs's candidate cutoff exact.  Resource id breaks
        // energy ties so the exploration order is total — under equal-cost
        // optima the incumbent that survives the strict `<` improvement
        // test is then the same whether the task set arrived whole or as a
        // per-group sub-instance.  A task's list is the same at every node
        // of the tree, so it is sorted once per solve.
        candidates.clear();
        candidate_begin.resize(count + 1);
        for (std::size_t d = 0; d < count; ++d) {
            const PlanTask& task = inst.tasks[order[d]];
            candidate_begin[d] = candidates.size();
            candidates.insert(candidates.end(), task.executable.begin(), task.executable.end());
            std::sort(candidates.begin() + static_cast<std::ptrdiff_t>(candidate_begin[d]),
                      candidates.end(), [&](ResourceId a, ResourceId b) {
                          if (task.epm[a] != task.epm[b]) return task.epm[a] < task.epm[b];
                          return a < b;
                      });
        }
        candidate_begin[count] = candidates.size();

        min_cost_suffix.assign(count + 1, ExactSum{});
        for (std::size_t d = count; d-- > 0;) {
            const std::span<const ResourceId> list = candidates_at(d);
            const double cheapest =
                list.empty() ? kInfinity : inst.tasks[order[d]].epm[list.front()];
            min_cost_suffix[d] = std::isfinite(cheapest) && std::isfinite(min_cost_suffix[d + 1].hi)
                                     ? min_cost_suffix[d + 1].plus(cheapest)
                                     : ExactSum{kInfinity, 0.0};
        }
    }

    [[nodiscard]] std::span<const ResourceId> candidates_at(std::size_t depth) const {
        return std::span<const ResourceId>(candidates)
            .subspan(candidate_begin[depth], candidate_begin[depth + 1] - candidate_begin[depth]);
    }

    /// True when `cost` plus the optimistic suffix can still strictly
    /// improve on the incumbent.  Every operand is an exact sum, so this
    /// is a real comparison: ties prune (keeping the lex-first optimum)
    /// and the verdict is the same whether the instance is solved whole
    /// or as per-group sub-instances.
    [[nodiscard]] bool can_improve(const ExactSum& cost, const ExactSum& suffix) const {
        if (!std::isfinite(suffix.hi)) return false;
        return cost.plus(suffix.hi).plus(suffix.lo).less_than(best_cost);
    }

    /// Count one node against the budget; false once it is spent.
    bool enter() {
        if (nodes >= options->node_limit) {
            proven = false;
            return false;
        }
        ++nodes;
        return true;
    }

    /// Search below a node its parent has already bounded: the parent ran
    /// can_improve(cost, min_cost_suffix[depth]) against the incumbent
    /// this call starts with, so the node needs no entry bound of its own
    /// (optimize bounds the root).
    void dfs(std::size_t depth, ExactSum cost) {
        if (!enter()) return;

        if (depth == order.size()) {
            if (cost.less_than(best_cost)) {
                best_cost = cost;
                best = current;
            }
            return;
        }

        const std::size_t j = order[depth];
        const PlanTask& task = instance->tasks[j];
        const ExactSum& suffix = min_cost_suffix[depth + 1];
        const std::span<const ResourceId> list = candidates_at(depth);
        for (std::size_t k = 0; k < list.size(); ++k) {
            const ResourceId i = list[k];
            const ExactSum next_cost = cost.plus(task.epm[i]);
            if (!can_improve(next_cost, suffix)) {
                // The list ascends in epm and the sums compare as exact
                // reals, so every later candidate costs at least as much
                // and fails the same bound against the same incumbent.
#ifdef RMWP_AUDIT
                for (std::size_t r = k + 1; r < list.size(); ++r)
                    RMWP_ENSURE(!can_improve(cost.plus(task.epm[list[r]]), suffix));
#endif
                break;
            }

            // Operating points of a DVFS core share the core's timeline, so
            // partial schedules are kept per physical anchor.
            const ResourceId anchor = instance->platform->resource(i).physical();
            const std::size_t pos =
                insert_demand_ordered(assigned[anchor], instance->item_for(j, i));
            // Adding a task to a core can only hurt that core's EDF
            // feasibility, so checking the touched core alone is exact.
            if (resource_feasible_sorted(instance->platform->resource(anchor), instance->now,
                                         assigned[anchor])) {
                current[j] = i;
                dfs(depth + 1, next_cost);
            }
            assigned[anchor].erase(assigned[anchor].begin() + static_cast<std::ptrdiff_t>(pos));
            if (!proven && best.empty()) return; // out of budget with no incumbent
        }
    }
};

Search& search_scratch() {
    static thread_local Search search;
    return search;
}

} // namespace

std::optional<ExactRM::Result> ExactRM::optimize(const PlanInstance& instance,
                                                 const Options& options, bool* proven_out) {
    RMWP_STAGE_SCOPE(obs::Stage::solve);
    const std::size_t count = instance.tasks.size();
    RMWP_EXPECT(instance.platform != nullptr);
    RMWP_EXPECT(instance.blocks.size() == instance.platform->size());

    Search& search = search_scratch();
    search.reset(instance, options);
    // The root is the one node no parent bounds.  Its optimistic cost is
    // infinite only when some task has no finite-energy resource, and then
    // the root alone is the proof of infeasibility.
    if (std::isfinite(search.min_cost_suffix.front().hi)) search.dfs(0, ExactSum{});
    else search.enter();

    if (proven_out != nullptr) *proven_out = search.proven;
    if (search.best.empty()) return std::nullopt;
    RMWP_ENSURE(search.best.size() == count);
    Result result;
    result.mapping = search.best; // copy: the incumbent buffer stays pooled
    result.energy = search.best_cost.hi;
    result.proven_optimal = search.proven;
    result.nodes = search.nodes;
    return result;
}

Decision ExactRM::decide(const ArrivalContext& context) {
    return decide_sharded(context, &solve, &options_, &reject_reason);
}

void ExactRM::decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) {
    decide_batch_sharded(batch, &solve, &options_, &reject_reason, out);
}

RescueDecision ExactRM::rescue(const RescueContext& context) {
    RMWP_EXPECT(context.platform != nullptr && context.health != nullptr);
    Options rescue_options = options_;
    rescue_options.node_limit = std::min(options_.node_limit, options_.rescue_node_limit);
    bool proven = true; // a rescue sheds the next victim either way
    return run_rescue_ladder(context, [&](const PlanInstance& instance) {
        return solve(instance, proven, &rescue_options);
    });
}

} // namespace rmwp
