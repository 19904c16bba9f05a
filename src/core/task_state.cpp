#include "core/task_state.hpp"

#include "util/check.hpp"

namespace rmwp {

Time effective_wcet(const TaskType& type, ResourceId i, const PlatformHealth* health) {
    const Time wcet = type.wcet(i);
    if (health == nullptr || health->throttle(i) == 1.0) return wcet;
    return scale_up(wcet, health->throttle(i));
}

Time remaining_time(const ActiveTask& task, const TaskType& type, ResourceId i,
                    const PlatformHealth* health) {
    RMWP_EXPECT(task.type == type.id());
    if (!task.started) return effective_wcet(type, i, health);
    if (i == task.resource) return task.remaining;
    return rescale_up(task.remaining, effective_wcet(type, i, health),
                      effective_wcet(type, task.resource, health));
}

double remaining_energy(const ActiveTask& task, const TaskType& type, ResourceId i,
                        const PlatformHealth* health) {
    RMWP_EXPECT(task.type == type.id());
    if (!task.started) return type.energy(i);
    return type.energy(i) * static_cast<double>(task.remaining) /
           static_cast<double>(effective_wcet(type, task.resource, health));
}

bool is_migration(const ActiveTask& task, ResourceId to) noexcept {
    return task.started && to != task.resource;
}

Time occupied_time(const ActiveTask& task, const TaskType& type, ResourceId to,
                   const PlatformHealth* health) {
    const Time work = remaining_time(task, type, to, health);
    if (is_migration(task, to)) return work + type.migration_time(task.resource, to);
    if (to == task.resource) return work + task.pending_overhead;
    return work;
}

double assignment_energy(const ActiveTask& task, const TaskType& type, ResourceId to,
                         const PlatformHealth* health) {
    return remaining_energy(task, type, to, health) + migration_energy_cost(task, type, to);
}

double migration_energy_cost(const ActiveTask& task, const TaskType& type, ResourceId to) {
    if (!is_migration(task, to)) return 0.0;
    return type.migration_energy(task.resource, to);
}

void relocate(ActiveTask& task, const TaskType& type, ResourceId to,
              const PlatformHealth* health) {
    if (to == task.resource) return;
    if (task.started) {
        task.remaining = remaining_time(task, type, to, health);
        task.pending_overhead = type.migration_time(task.resource, to);
    }
    task.resource = to;
}

} // namespace rmwp
