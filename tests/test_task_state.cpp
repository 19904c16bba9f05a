// Tests for the remaining-cost algebra of Sec 4.1 (cp/ep/cpm/epm and the
// migration rescaling rule).
#include <gtest/gtest.h>

#include "core/task_state.hpp"
#include "platform/health.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

TaskType make_type() {
    const std::size_t n = 2;
    std::vector<std::vector<double>> cm(n, std::vector<double>(n, 0.0));
    std::vector<std::vector<double>> em(n, std::vector<double>(n, 0.0));
    cm[0][1] = 2.0;
    cm[1][0] = 2.5;
    em[0][1] = 1.5;
    em[1][0] = 1.0;
    return TaskType(0, {10.0, 4.0}, {6.0, 2.0}, cm, em);
}

/// A task on `resource`; started tasks owe `remaining` ms of resource time.
ActiveTask make_task(double remaining_ms = 0.0, bool started = false, ResourceId resource = 0) {
    ActiveTask task;
    task.uid = 1;
    task.type = 0;
    task.arrival = 0;
    task.absolute_deadline = ms(100);
    task.resource = resource;
    task.started = started;
    task.remaining = ms(remaining_ms);
    return task;
}

TEST(TaskState, FreshTaskHasFullCosts) {
    const TaskType type = make_type();
    const ActiveTask task = make_task();
    EXPECT_EQ(remaining_time(task, type, 0), ms(10));
    EXPECT_EQ(remaining_time(task, type, 1), ms(4));
    EXPECT_DOUBLE_EQ(remaining_energy(task, type, 0), 6.0);
    EXPECT_DOUBLE_EQ(remaining_energy(task, type, 1), 2.0);
}

TEST(TaskState, MigrationRescalingRule) {
    // Paper: cp_{j,k} = c_{j,k} * (cp_{j,i} / c_{j,i}).  Half the work left
    // on resource 0 means half the work left anywhere.
    const TaskType type = make_type();
    const ActiveTask task = make_task(5.0, /*started=*/true, /*resource=*/0);
    EXPECT_EQ(remaining_time(task, type, 0), ms(5));
    EXPECT_EQ(remaining_time(task, type, 1), ms(2));
    EXPECT_DOUBLE_EQ(remaining_energy(task, type, 1), 1.0);
}

TEST(TaskState, RescalingRoundsUp) {
    // 1 tick of work left on the 10 ms resource is 0.4 ticks on the 4 ms
    // one: the moved work rounds up to a whole tick, never down to zero.
    const TaskType type = make_type();
    ActiveTask task = make_task(0.0, /*started=*/true, /*resource=*/0);
    task.remaining = 1;
    EXPECT_EQ(remaining_time(task, type, 1), 1);
    task.remaining = 3;
    EXPECT_EQ(remaining_time(task, type, 1), 2); // ceil(1.2)
}

TEST(TaskState, ThrottleStretchesTheWcet) {
    const TaskType type = make_type();
    const Platform platform = [] {
        PlatformBuilder builder;
        builder.add_cpu("CPU1");
        builder.add_cpu("CPU2");
        return builder.build();
    }();
    PlatformHealth health;
    health.set_throttle(platform, 1, 1.5);
    EXPECT_EQ(effective_wcet(type, 1, &health), ms(6));
    EXPECT_EQ(remaining_time(make_task(), type, 1, &health), ms(6));
    // Started work on a throttled resource is already owed at its speed.
    EXPECT_EQ(remaining_time(make_task(5.0, true, 0), type, 1, &health), ms(3));
}

TEST(TaskState, MigrationOnlyWhenStartedAndMoving) {
    const TaskType type = make_type();
    EXPECT_FALSE(is_migration(make_task(10.0, false, 0), 1)); // not started: free remap
    EXPECT_FALSE(is_migration(make_task(5.0, true, 0), 0));   // staying put
    EXPECT_TRUE(is_migration(make_task(5.0, true, 0), 1));
}

TEST(TaskState, OccupiedTimeIncludesMigration) {
    const TaskType type = make_type();
    const ActiveTask started = make_task(5.0, true, 0);
    // Staying: remaining work only.
    EXPECT_EQ(occupied_time(started, type, 0), ms(5));
    // Migrating 0 -> 1: rescaled work + cm_{0,1}.
    EXPECT_EQ(occupied_time(started, type, 1), ms(2) + ms(2));
    // Unstarted tasks relocate for free.
    EXPECT_EQ(occupied_time(make_task(), type, 1), ms(4));
}

TEST(TaskState, PendingOverheadCountsWhenStaying) {
    const TaskType type = make_type();
    ActiveTask task = make_task(2.0, true, 1);
    task.pending_overhead = ms(1.25); // mid-migration onto resource 1
    EXPECT_EQ(occupied_time(task, type, 1), ms(2) + ms(1.25));
}

TEST(TaskState, RelocateRescalesAndReplacesOverhead) {
    const TaskType type = make_type();
    ActiveTask task = make_task(5.0, true, 0);
    relocate(task, type, 1);
    EXPECT_EQ(task.resource, 1u);
    EXPECT_EQ(task.remaining, ms(2));
    EXPECT_EQ(task.pending_overhead, ms(2));
    // What the plan charged before the move is what the task now owes.
    EXPECT_EQ(occupied_time(task, type, 1), ms(4));
}

TEST(TaskState, AssignmentEnergyIncludesMigrationEnergy) {
    const TaskType type = make_type();
    const ActiveTask started = make_task(5.0, true, 0);
    EXPECT_DOUBLE_EQ(assignment_energy(started, type, 0), 3.0);
    EXPECT_DOUBLE_EQ(assignment_energy(started, type, 1), 1.0 + 1.5);
    EXPECT_DOUBLE_EQ(migration_energy_cost(started, type, 1), 1.5);
    EXPECT_DOUBLE_EQ(migration_energy_cost(started, type, 0), 0.0);
}

TEST(TaskState, TimeLeftAndFinished) {
    ActiveTask task = make_task(10.0, true, 0);
    EXPECT_EQ(task.time_left(ms(40)), ms(60));
    EXPECT_FALSE(task.finished());
    task.remaining = 0;
    EXPECT_TRUE(task.finished());
}

TEST(TaskState, TypeMismatchThrows) {
    const std::size_t n = 1;
    const std::vector<std::vector<double>> zero(n, std::vector<double>(n, 0.0));
    const TaskType other(3, {5.0}, {1.0}, zero, zero);
    const ActiveTask task = make_task(); // type id 0
    EXPECT_THROW(std::ignore = remaining_time(task, other, 0), precondition_error);
}

} // namespace
} // namespace rmwp
