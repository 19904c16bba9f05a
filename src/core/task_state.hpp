// Runtime state of an admitted task instance, and the remaining-cost
// algebra of Sec 4.1:
//   cp_{j,i} = c_{j,i} * (cp_{j,k} / c_{j,k})  (work not yet executed)
//   ep_{j,i} = e_{j,i} * (cp_{j,i} / c_{j,i})  (energy not yet consumed)
//   cpm_{j,i} = cp_{j,i} + cm_{j,k,i}  if relocating a started task k -> i
//   epm_{j,i} = ep_{j,i} + em_{j,k,i}  likewise for energy
//
// Progress is integer resource time still owed on the mapped resource at
// its current speed (DESIGN.md §3): executing d ticks of a planned segment
// retires exactly d ticks, so engine and plan agree to the tick.  Moving
// the work rescales it by one exact ceil-division.  Migration time must
// elapse before progress resumes (`pending_overhead`); migration energy is
// charged once, at the migration decision.
#pragma once

#include <cstdint>

#include "platform/health.hpp"
#include "platform/platform.hpp"
#include "workload/catalog.hpp"
#include "workload/trace.hpp"

namespace rmwp {

/// Unique id of an admitted task instance within one simulation.
using TaskUid = std::uint64_t;

/// State of one admitted, unfinished task.
struct ActiveTask {
    TaskUid uid = 0;
    TaskTypeId type = 0;
    Time arrival = 0;
    Time absolute_deadline = 0;
    ResourceId resource = 0; ///< current mapping
    bool started = false;    ///< has made progress (or begun migrating)
    bool pinned = false;     ///< began executing on a non-preemptable resource
    /// Once started: resource time still owed on `resource` at its current
    /// speed.  Unused before the task starts (it owes its full WCET).
    Time remaining = 0;
    Time pending_overhead = 0; ///< migration time still to be paid on `resource`

    /// Slack until the absolute deadline, t_left_j = s_j + d_j - t.
    [[nodiscard]] Time time_left(Time now) const noexcept { return absolute_deadline - now; }

    [[nodiscard]] bool finished() const noexcept { return started && remaining == 0; }
};

/// c_{j,i} on resource i at its current speed: the WCET stretched by the
/// throttle factor in `health` (null = nominal), rounded up.
[[nodiscard]] Time effective_wcet(const TaskType& type, ResourceId i,
                                  const PlatformHealth* health = nullptr);

/// cp_{j,i}: worst-case execution time not yet consumed, on resource i.
[[nodiscard]] Time remaining_time(const ActiveTask& task, const TaskType& type, ResourceId i,
                                  const PlatformHealth* health = nullptr);

/// ep_{j,i}: average energy not yet consumed, on resource i (the share
/// of the work left on the mapped resource, taken of e_{j,i}).
[[nodiscard]] double remaining_energy(const ActiveTask& task, const TaskType& type, ResourceId i,
                                      const PlatformHealth* health = nullptr);

/// Whether assigning `task` to `to` constitutes a migration (it has started
/// somewhere else).  Unstarted tasks can be re-mapped freely: there is no
/// execution state to move yet.
[[nodiscard]] bool is_migration(const ActiveTask& task, ResourceId to) noexcept;

/// cpm_{j,i}: occupied resource time if `task` ends up on `to` during the
/// current window — remaining work plus migration time (or the unpaid part
/// of a previously started migration when staying put).  The one duration
/// every planner and the engine schedule a real task with.
[[nodiscard]] Time occupied_time(const ActiveTask& task, const TaskType& type, ResourceId to,
                                 const PlatformHealth* health = nullptr);

/// epm contribution: remaining energy plus migration-energy overhead if the
/// assignment relocates a started task.
[[nodiscard]] double assignment_energy(const ActiveTask& task, const TaskType& type,
                                       ResourceId to, const PlatformHealth* health = nullptr);

/// Migration energy overhead of the assignment (0 when not a migration).
[[nodiscard]] double migration_energy_cost(const ActiveTask& task, const TaskType& type,
                                           ResourceId to);

/// Map `task` to `to`: a started task's remaining work is rescaled to `to`
/// and any unpaid migration time is replaced with the new pair's cost —
/// exactly what occupied_time() plans with.  (The engine additionally
/// charges migration energy.)
void relocate(ActiveTask& task, const TaskType& type, ResourceId to,
              const PlatformHealth* health = nullptr);

} // namespace rmwp
