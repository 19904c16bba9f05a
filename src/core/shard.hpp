// Admission decomposed by resource group (DESIGN.md §15).
//
// The platform's resources fall into *resource groups*: connected
// components of the relation "some catalog task type can execute on both".
// Tasks from different groups share no feasible resource, so their
// placements, EDF probes, and energy costs never interact — a plan over the
// whole platform decomposes exactly into independent per-group sub-plans.
// ShardPartition computes that decomposition (union-find over the catalog's
// executability sets, group ids assigned in smallest-resource-id order so
// the partition is a pure function of platform + catalog), and
// ShardedSolver solves the per-group sub-instances one after another, in
// group order on the calling thread, then merges the per-group mappings
// back into instance order.  A one-group platform (the paper's) skips all
// of that and solves the whole instance in place.
//
// Determinism contract (DESIGN.md §9): the merged decision is bit-identical
// to the whole-instance solve.  An RMWP_AUDIT build re-solves every split
// instance whole and asserts bit-equality.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/manager.hpp"
#include "core/plan_instance.hpp"

namespace rmwp {

/// Resource-group partition of one (platform, catalog) pair.  Pooled:
/// rebuild() reuses all scratch capacity, so recomputing it per decision
/// costs no steady-state allocation and needs no cross-decision cache keys.
class ShardPartition {
public:
    /// Recompute groups: operating points join their physical core, and
    /// every task type joins all resources it can execute on.  Group ids
    /// are dense [0, group_count()) in order of each group's smallest
    /// resource id — deterministic in the inputs alone.  The catalog scan
    /// stops as soon as one component is left, so a one-group platform
    /// pays for only the few types that connect it.
    void rebuild(const Platform& platform, const Catalog& catalog);

    [[nodiscard]] std::size_t group_count() const noexcept { return group_count_; }
    [[nodiscard]] std::size_t group_of(ResourceId i) const {
        RMWP_EXPECT(i < group_of_.size());
        return group_of_[i];
    }

    /// Group of a plan task.  All of a task's executable resources lie in
    /// one group by construction; a task with an empty executable set (all
    /// its resources offline under faults) deterministically lands in
    /// group 0, where it fails feasibility exactly as it would in the
    /// whole-instance solve.
    [[nodiscard]] std::size_t group_of(const PlanTask& task) const {
        return task.executable.empty() ? 0 : group_of(task.executable.front());
    }

    /// Group of every task of a catalog type.
    [[nodiscard]] std::size_t group_of(const TaskType& type) const {
        const auto& resources = type.executable_resources();
        return resources.empty() ? 0 : group_of(resources.front());
    }

private:
    [[nodiscard]] std::size_t find(std::size_t i);
    /// Union the components of `a` and `b`; true when they were distinct.
    bool join(std::size_t a, std::size_t b);

    std::vector<std::size_t> group_of_; ///< resource id -> dense group id
    std::vector<std::size_t> parent_;   ///< union-find scratch
    std::size_t group_count_ = 0;
};

/// Per-group solve driver, layered over BatchPlanner / the admission
/// ladder: both the heuristic and the exact RM plug their solver in as a
/// stateless callback over a (sub-)instance.  Holds the partition and all
/// per-group state (pooled sub-instances, result slots, the cross-item
/// verdict cache) in thread-local storage — one RM object stays shareable
/// across the experiment engine's threads.
class ShardedSolver {
public:
    /// Solve `instance` (whole or one group's sub-instance) into a mapping,
    /// one resource per task in instance order, valid until the next solve
    /// on this thread; nullopt when infeasible.  On failure `proven`
    /// reports whether the failure is a proof of infeasibility (exact) or
    /// a heuristic give-up.  Runs on the calling thread.
    using SolveFn = std::optional<std::span<const ResourceId>> (*)(const PlanInstance& instance,
                                                                  bool& proven, void* ctx);

    /// Recompute the resource groups of this decision's platform.
    void partition(const Platform& platform, const Catalog& catalog) {
        partition_.rebuild(platform, catalog);
    }
    [[nodiscard]] std::size_t group_count() const noexcept { return partition_.group_count(); }

    /// Start a coalesced batch: resets group versions and the verdict
    /// cache, and snapshots the working set's uid -> (resource, group) map
    /// so note_admission can tell which groups an admission touched.
    void begin_batch(const BatchArrivalContext& batch);

    /// Record an admitted decision: the candidate's group and the group of
    /// every moved task get a new version, invalidating their cached
    /// verdicts; untouched groups keep serving cache hits.
    void note_admission(const Decision& decision, const ActiveTask& candidate,
                        const Catalog& catalog);

    /// Solve one ladder rung.  With one group, `solve` runs on the whole
    /// instance in place.  Otherwise the groups are solved independently
    /// and merged; with `use_cache` (batch loop only, after begin_batch),
    /// groups not containing the item's candidate/predicted tail reuse
    /// their cached verdict when (version, window) match.  Returns the
    /// mapping (valid until the next run on this thread), or nullopt when
    /// any group is infeasible; then `proven` is ANDed with every failed
    /// group's proof.
    std::optional<std::span<const ResourceId>> run(const PlanInstance& instance, SolveFn solve,
                                                   void* ctx, bool use_cache, bool& proven);

    /// The calling thread's pooled solver.
    [[nodiscard]] static ShardedSolver& local();

private:
    static constexpr std::size_t kCacheWays = 4;

    struct CacheEntry {
        bool valid = false;
        bool ok = false;
        bool proven = true;
        std::uint64_t version = 0;
        Time window = -1;
        std::vector<ResourceId> mapping;
    };

    struct Group {
        std::vector<std::size_t> task_index; ///< instance task indices, ascending
        bool item_local = false;             ///< holds the candidate/predicted tail
        PlanInstance sub;                    ///< pooled sub-instance
        std::vector<PlanTask> spare;         ///< shell pool for sub.tasks
        std::vector<ResourceId> mapping;     ///< solve result, sub task order
        bool ok = false;
        bool proven = true;
        std::uint64_t version = 1; ///< bumped on any admission touching the group
        std::array<CacheEntry, kCacheWays> cache;
        std::size_t cache_cursor = 0;
    };

    struct Tracked {
        TaskUid uid = 0;
        ResourceId resource = 0;
        std::size_t group = 0;
    };

    void build_sub(Group& group, const PlanInstance& instance);

    ShardPartition partition_;
    /// Never shrinks: group slots own pooled sub-instances whose capacity
    /// must survive alternating platform sizes on one thread.
    std::vector<Group> groups_;
    std::vector<Tracked> tracked_;
    std::vector<std::size_t> pending_; ///< group ids needing a fresh solve
    std::vector<ResourceId> merged_;
};

/// Maps a rejection's proof flag to its reason: `proven` is the AND over
/// every failed rung's proofs (always true for a heuristic solver).
using RejectFn = RejectReason (*)(bool proven);

/// The admission entry points of every RM whose solver plugs into
/// ShardedSolver.  decide_sharded runs one arrival's admission ladder;
/// decide_batch_sharded runs a coalesced batch over one BatchPlanner and
/// replaces `out` with one decision per item.  On a one-group platform each
/// rung is one whole-instance solve; otherwise each rung is solved per
/// group, and the batch loop adds the cross-item verdict cache with group
/// invalidation on every admission.  A rejected decision's reason is
/// `reject(proven)`.
[[nodiscard]] Decision decide_sharded(const ArrivalContext& context, ShardedSolver::SolveFn solve,
                                      void* ctx, RejectFn reject);
void decide_batch_sharded(const BatchArrivalContext& batch, ShardedSolver::SolveFn solve,
                          void* ctx, RejectFn reject, std::vector<Decision>& out);

} // namespace rmwp
