#include "core/shard.hpp"

#include <algorithm>

#include "obs/stage_timer.hpp"
#include "util/check.hpp"
#include "workload/catalog.hpp"

namespace rmwp {
namespace {

constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

} // namespace

std::size_t ShardPartition::find(std::size_t i) {
    RMWP_EXPECT(i < parent_.size());
    // Path halving: every probed node re-points to its grandparent.
    while (parent_[i] != i) {
        parent_[i] = parent_[parent_[i]];
        i = parent_[i];
    }
    return i;
}

bool ShardPartition::join(std::size_t a, std::size_t b) {
    RMWP_EXPECT(a < parent_.size() && b < parent_.size());
    a = find(a);
    b = find(b);
    if (a == b) return false;
    // The smaller root wins, so every component's representative is its
    // smallest resource id — the dense numbering below leans on that to be
    // a pure function of the inputs.
    if (b < a) std::swap(a, b);
    parent_[b] = a;
    return true;
}

void ShardPartition::rebuild(const Platform& platform, const Catalog& catalog) {
    RMWP_EXPECT(platform.size() > 0);
    const std::size_t n = platform.size();
    parent_.resize(n);
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
    // Operating points contend with their physical core whatever the
    // catalog says; types join every resource they can execute on.  Once
    // one component is left no further join can change anything.
    std::size_t components = n;
    for (const Resource& resource : platform.resources())
        if (join(resource.id(), resource.physical())) --components;
    for (TaskTypeId t = 0; t < catalog.size() && components > 1; ++t) {
        const auto& resources = catalog.type(t).executable_resources();
        for (std::size_t k = 1; k < resources.size(); ++k)
            if (join(resources[0], resources[k])) --components;
    }
    group_of_.assign(n, kNoGroup);
    group_count_ = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t root = find(i);
        if (group_of_[root] == kNoGroup) group_of_[root] = group_count_++;
        group_of_[i] = group_of_[root];
    }
    RMWP_ENSURE(group_count_ == components);
}

void ShardedSolver::begin_batch(const BatchArrivalContext& batch) {
    RMWP_EXPECT(batch.catalog != nullptr);
    const std::size_t count = partition_.group_count();
    if (groups_.size() < count) groups_.resize(count);
    for (std::size_t g = 0; g < count; ++g) {
        Group& group = groups_[g];
        group.version = 1;
        group.cache_cursor = 0;
        for (CacheEntry& entry : group.cache) entry.valid = false;
    }
    tracked_.clear();
    for (const ActiveTask& task : batch.active)
        tracked_.push_back(
            {task.uid, task.resource, partition_.group_of(batch.catalog->type(task.type))});
    RMWP_ENSURE(tracked_.size() == batch.active.size());
}

void ShardedSolver::note_admission(const Decision& decision, const ActiveTask& candidate,
                                   const Catalog& catalog) {
    RMWP_EXPECT(decision.admitted);
    for (const TaskAssignment& assignment : decision.assignments) {
        Tracked* found = nullptr;
        for (Tracked& tracked : tracked_) {
            if (tracked.uid == assignment.uid) {
                found = &tracked;
                break;
            }
        }
        if (found == nullptr) {
            // First sighting: this is the admitted candidate joining the
            // working set — its group gains a task.
            RMWP_ENSURE(assignment.uid == candidate.uid);
            const std::size_t g = partition_.group_of(catalog.type(candidate.type));
            tracked_.push_back({assignment.uid, assignment.resource, g});
            if (g < groups_.size()) ++groups_[g].version;
        } else if (found->resource != assignment.resource) {
            // Moved by this admission (and, when started, charged a
            // migration overhead): its group's cached verdicts are stale.
            found->resource = assignment.resource;
            if (found->group < groups_.size()) ++groups_[found->group].version;
        }
    }
}

void ShardedSolver::build_sub(Group& group, const PlanInstance& instance) {
    RMWP_EXPECT(!group.task_index.empty());
    PlanInstance& sub = group.sub;
    sub.platform = instance.platform;
    sub.now = instance.now;
    // The *global* planning window: per-resource capacities
    // (window - blocked_time) and every demand-bound test must see the
    // horizon the whole-instance solve saw.  Other groups' tasks are
    // absent, but they have no finite WCET on this group's resources, so
    // their absence cannot change any probe here.
    sub.window = instance.window;
    plan_detail::set_task_count(sub.tasks, group.spare, group.task_index.size());
    std::size_t predicted = 0;
    for (std::size_t s = 0; s < group.task_index.size(); ++s) {
        sub.tasks[s] = instance.tasks[group.task_index[s]];
        if (sub.tasks[s].is_predicted) ++predicted;
    }
    sub.predicted_count = predicted;
    sub.blocks = instance.blocks;
    sub.blocked_time = instance.blocked_time;
    RMWP_ENSURE(sub.tasks.size() == group.task_index.size());
}

std::optional<std::span<const ResourceId>> ShardedSolver::run(const PlanInstance& instance,
                                                              SolveFn solve, void* ctx,
                                                              bool use_cache, bool& proven) {
    RMWP_EXPECT(instance.platform != nullptr);
    RMWP_EXPECT(!instance.tasks.empty());
    RMWP_EXPECT(instance.tasks.size() >= 1 + instance.predicted_count);
    const std::size_t group_count = partition_.group_count();
    if (group_count == 1) { // the whole instance, solved in place
        bool step_proven = true;
        const auto mapping = solve(instance, step_proven, ctx);
        if (!mapping.has_value()) proven = proven && step_proven;
        return mapping;
    }
    if (groups_.size() < group_count) groups_.resize(group_count);

    // 1. Partition the instance's tasks into groups, marking those holding
    // this item's candidate / predicted tail (their state is item-specific,
    // so they are never served from or stored to the cross-item cache).
    const std::size_t count = instance.tasks.size();
    const std::size_t item_local_from = count - 1 - instance.predicted_count;
    for (std::size_t g = 0; g < group_count; ++g) {
        groups_[g].task_index.clear();
        groups_[g].item_local = false;
    }
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t g = partition_.group_of(instance.tasks[i]);
        RMWP_EXPECT(g < group_count);
        groups_[g].task_index.push_back(i);
        if (i >= item_local_from) groups_[g].item_local = true;
    }

    // 2. Serve what the cache can; queue the rest for a fresh solve.
    pending_.clear();
    for (std::size_t g = 0; g < group_count; ++g) {
        Group& group = groups_[g];
        if (group.task_index.empty()) {
            group.ok = true;
            group.proven = true;
            group.mapping.clear();
            continue;
        }
        if (use_cache && !group.item_local) {
            bool hit = false;
            for (CacheEntry& entry : group.cache) {
                if (entry.valid && entry.version == group.version &&
                    entry.window == instance.window) {
                    group.ok = entry.ok;
                    group.proven = entry.proven;
                    group.mapping.assign(entry.mapping.begin(), entry.mapping.end());
                    hit = true;
                    break;
                }
            }
            if (hit) continue;
        }
        pending_.push_back(g);
    }

    // 3. Build the pending sub-instances (pooled), then solve them in
    // group order.
    for (const std::size_t g : pending_) build_sub(groups_[g], instance);
    {
        RMWP_STAGE_SCOPE(obs::Stage::shard_solve);
        for (const std::size_t g : pending_) {
            Group& group = groups_[g];
            group.proven = true;
            const auto mapping = solve(group.sub, group.proven, ctx);
            group.ok = mapping.has_value();
            // The span views the solver's thread scratch — copy it out
            // before the next group's solve reuses it.
            if (group.ok) group.mapping.assign(mapping->begin(), mapping->end());
        }
    }
    for (const std::size_t g : pending_) {
        Group& group = groups_[g];
        if (!use_cache || group.item_local) continue;
        CacheEntry& entry = group.cache[group.cache_cursor];
        group.cache_cursor = (group.cache_cursor + 1) % kCacheWays;
        entry.valid = true;
        entry.ok = group.ok;
        entry.proven = group.proven;
        entry.version = group.version;
        entry.window = instance.window;
        entry.mapping.assign(group.mapping.begin(), group.mapping.end());
    }

    // 4. Verdict: the instance is feasible iff every group is; a failed
    // rung is *proven* infeasible when every failing group proved it.
    bool all_ok = true;
    for (std::size_t g = 0; g < group_count; ++g) {
        const Group& group = groups_[g];
        if (!group.ok) {
            all_ok = false;
            proven = proven && group.proven;
        }
    }

#ifdef RMWP_AUDIT
    {
        // Drift gate (DESIGN.md §9): the whole-instance solve of the very
        // same instance must agree with the per-group merge bit for bit,
        // unless some search ran out of its node budget (§15 caveat).
        bool direct_proven = true;
        const auto direct = solve(instance, direct_proven, ctx);
        bool complete = direct_proven;
        for (std::size_t g = 0; g < group_count; ++g) complete = complete && groups_[g].proven;
        RMWP_ENSURE(!complete || direct.has_value() == all_ok);
        if (complete && all_ok) {
            RMWP_ENSURE(direct->size() == count);
            for (std::size_t g = 0; g < group_count; ++g) {
                const Group& group = groups_[g];
                for (std::size_t s = 0; s < group.task_index.size(); ++s)
                    RMWP_ENSURE(group.mapping[s] == (*direct)[group.task_index[s]]);
            }
        }
    }
#endif

    if (!all_ok) return std::nullopt;

    RMWP_STAGE_SCOPE(obs::Stage::shard_merge);
    merged_.assign(count, ResourceId{0});
    for (std::size_t g = 0; g < group_count; ++g) {
        const Group& group = groups_[g];
        RMWP_ENSURE(group.mapping.size() == group.task_index.size());
        for (std::size_t s = 0; s < group.task_index.size(); ++s)
            merged_[group.task_index[s]] = group.mapping[s];
    }
    return std::span<const ResourceId>(merged_);
}

ShardedSolver& ShardedSolver::local() {
    static thread_local ShardedSolver solver;
    return solver;
}

Decision decide_sharded(const ArrivalContext& context, ShardedSolver::SolveFn solve, void* ctx,
                        RejectFn reject) {
    RMWP_EXPECT(context.platform != nullptr && context.catalog != nullptr);
    ShardedSolver& solver = ShardedSolver::local();
    solver.partition(*context.platform, *context.catalog);
    bool proven = true;
    Decision decision = run_admission_ladder(context, [&](const PlanInstance& instance) {
        return solver.run(instance, solve, ctx, /*use_cache=*/false, proven);
    });
    if (!decision.admitted) decision.reason = reject(proven);
    return decision;
}

void decide_batch_sharded(const BatchArrivalContext& batch, ShardedSolver::SolveFn solve,
                          void* ctx, RejectFn reject, std::vector<Decision>& out) {
    RMWP_EXPECT(batch.platform != nullptr && batch.catalog != nullptr);
    BatchPlanner planner(batch);
    ShardedSolver& solver = ShardedSolver::local();
    solver.partition(*batch.platform, *batch.catalog);
    // The cross-item cache keys on group versions begun here: groups no
    // admission touches keep their solved verdict across the whole batch.
    const bool split = solver.group_count() > 1;
    if (split) solver.begin_batch(batch);
    out.clear();
    out.reserve(batch.items.size());
    for (std::size_t m = 0; m < planner.item_count(); ++m) {
        bool proven = true;
        Decision decision =
            run_admission_ladder_batch(planner, m, [&](const PlanInstance& instance) {
                return solver.run(instance, solve, ctx, /*use_cache=*/true, proven);
            });
        if (!decision.admitted)
            decision.reason = reject(proven);
        else if (split)
            solver.note_admission(decision, batch.items[m].candidate, *batch.catalog);
        out.push_back(std::move(decision));
    }
    RMWP_ENSURE(out.size() == batch.items.size());
}

} // namespace rmwp
