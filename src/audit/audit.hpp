// Independent plan auditing: re-derives the paper's schedulability and
// accounting invariants (constraints (1)-(14), DESIGN.md §8) from first
// principles and checks every RM artefact against them.
//
// The auditor deliberately does NOT reuse the algebra it audits: durations,
// energies, EDF priorities, and processor demand are recomputed here from
// the raw TaskType tables and ActiveTask states, so a silent encoding bug in
// task_state.cpp, plan_instance.cpp, or edf.cpp surfaces as a diagnosed
// violation instead of a corrupted experiment figure.  Layers:
//
//   audit_window    schedule vs. its items: segment structure, per-resource
//                   EDF order, work conservation, reservation exactness,
//                   processor-demand feasibility, deadline adherence;
//   audit_items     items vs. task states: throttle-inflated WCETs,
//                   migration charged exactly once, pinning, offline masks;
//   audit_instance  PlanInstance encoding vs. the activation context it was
//                   built from (cpm/epm tables, window, reservation blocks);
//   audit_decision  an RM admission verdict end to end (mapping shape,
//                   instance encoding, realized-schedule feasibility);
//   audit_rescue    a fault-rescue verdict (partition, health, feasibility);
//   differential_admission
//                   cross-check of an (arbitrary) RM's verdict against the
//                   complete branch-and-bound search on small instances.
//
// All entry points are const, allocate only locally, and never mutate the
// audited structures, so audited runs are bit-identical to unaudited ones.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "core/plan_instance.hpp"

namespace rmwp {

/// One violated invariant class.  Each code maps to one row of the
/// DESIGN.md §8 invariant table.
enum class AuditCode {
    schedule_shape,        ///< timeline container disagrees with the platform
    segment_bounds,        ///< segment empty, reversed, or before the window start
    segment_overlap,       ///< overlapping segments on one timeline
    unknown_segment,       ///< a segment's uid has no corresponding item
    duplicate_item,        ///< the same uid appears in two items
    wrong_timeline,        ///< a task executes off its assigned physical core
    release_violated,      ///< a task executes before its release
    work_conservation,     ///< executed time differs from the planned duration
    completion_mismatch,   ///< completion map disagrees with the timeline
    deadline_missed,       ///< an admitted/kept task finishes after its deadline
    feasibility_mismatch,  ///< the feasible flag contradicts the completions
    edf_order,             ///< a lower-priority task ran while a higher-priority one was ready
    idle_while_ready,      ///< a preemptable resource idled with ready work queued
    non_preemptable_split, ///< a task was split on a non-preemptable resource
    pinned_violation,      ///< pinning broken (moved, duplicated, or on a CPU)
    reservation_overlap,   ///< two reserved windows overlap on one resource
    reservation_shifted,   ///< a reserved block does not occupy exactly its window
    offline_resource,      ///< work placed on an offline resource
    not_executable,        ///< task mapped to a resource its type cannot use
    throttle_ignored,      ///< duration misses the throttle-inflated WCET
    migration_miscount,    ///< migration overhead not charged exactly once
    duration_mismatch,     ///< duration disagrees with first principles (other)
    item_encoding,         ///< item release/deadline disagree with the task state
    energy_mismatch,       ///< energy accounting does not conserve
    window_mismatch,       ///< planning window is not max_j t_left_j
    instance_shape,        ///< PlanInstance task order/contents malformed
    block_accounting,      ///< blocked_time disagrees with the expanded blocks
    demand_overflow,       ///< processor demand exceeds supply in some interval
    mapping_incomplete,    ///< decision does not cover the task set exactly once
    rescue_partition,      ///< kept + aborted is not a partition of the survivors
    differential_admit,    ///< RM admitted a set the complete search proves infeasible
};

[[nodiscard]] const char* to_string(AuditCode code) noexcept;

/// One concrete violation with a human-readable diagnostic.
struct AuditViolation {
    AuditCode code = AuditCode::schedule_shape;
    std::string detail;
};

/// Outcome of one audit entry point; empty means every invariant held.
struct AuditReport {
    std::vector<AuditViolation> violations;

    [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
    [[nodiscard]] bool has(AuditCode code) const noexcept;
    void add(AuditCode code, std::string detail);
    void merge(AuditReport&& other);
    /// "<n> audit violation(s): [code] detail; ..." — stable, greppable.
    [[nodiscard]] std::string summary() const;
};

/// Thrown by callers (e.g. the simulator under RMWP_AUDIT) when a report is
/// not ok; carries the full summary so tests can assert on the diagnostic.
class audit_error : public std::runtime_error {
public:
    explicit audit_error(const AuditReport& report) : std::runtime_error(report.summary()) {}
};

class ScheduleAuditor {
public:
    struct Options {
        /// Absolute energy comparison slack (energies are sums of doubles
        /// taken in different orders).  Times are integer ticks and are
        /// compared exactly.
        double energy_tolerance = 1e-4;
        /// Largest instance (tasks incl. candidate and predicted) the
        /// differential cross-check solves exactly.
        std::size_t differential_max_tasks = 8;
        /// Node budget for the differential search.  Generous enough that
        /// every instance under differential_max_tasks terminates, making a
        /// nullopt verdict a *proof* of infeasibility.
        std::uint64_t differential_node_limit = 20'000'000;
    };

    ScheduleAuditor() = default;
    explicit ScheduleAuditor(Options options) : options_(options) {}

    /// Audit a window schedule against the items it was built from.
    [[nodiscard]] AuditReport audit_window(const Platform& platform, Time now,
                                           std::span<const ScheduleItem> items,
                                           const WindowSchedule& schedule,
                                           const PlatformHealth* health = nullptr) const;

    /// Audit executable-schedule items against the task states they encode.
    [[nodiscard]] AuditReport audit_items(const Platform& platform, const Catalog& catalog,
                                          Time now, std::span<const ActiveTask> active,
                                          std::span<const ScheduleItem> items,
                                          const PlatformHealth* health = nullptr) const;

    /// Audit a PlanInstance's encoding against the context it came from.
    [[nodiscard]] AuditReport audit_instance(const ArrivalContext& context,
                                             const PlanInstance& instance) const;

    /// Audit one admission decision end to end.
    [[nodiscard]] AuditReport audit_decision(const ArrivalContext& context,
                                             const Decision& decision) const;

    /// Audit one fault-rescue decision end to end.
    [[nodiscard]] AuditReport audit_rescue(const RescueContext& context,
                                           const RescueDecision& decision) const;

    /// Energy conservation: the reported plan energy must equal the sum of
    /// the per-task (per-chunk) energies of the mapping.
    [[nodiscard]] AuditReport audit_plan_energy(const PlanInstance& instance,
                                                const std::vector<ResourceId>& mapping,
                                                double reported_energy) const;

    /// Differential admission cross-check against the exact search.
    struct Differential {
        bool checked = false;      ///< instance small enough to solve exactly
        bool exact_admits = false; ///< the complete search found a feasible plan
        /// Hard violations only: the RM admitted a set the complete search
        /// proves infeasible, or the exact plan's energy fails to conserve.
        /// An RM *rejection* the exact search overturns is reported via
        /// exact_admits and is informational — incomplete heuristics are
        /// allowed to reject feasible sets (Sec 5.2), never the reverse.
        AuditReport report;
    };
    [[nodiscard]] Differential differential_admission(const ArrivalContext& context,
                                                      const Decision& decision) const;

    [[nodiscard]] const Options& options() const noexcept { return options_; }

private:
    Options options_;
};

} // namespace rmwp
