// Tests for the EDF scheduling engine — the semantics at the heart of both
// resource managers: EDF ordering, the predicted task's release-time
// preemption (the MILP's constraints (4)-(14) as behaviour), non-preemptable
// resources, pinned tasks, and feasibility detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <tuple>
#include <vector>

#include "core/edf.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rmwp {
namespace {

const Resource kCpu(0, ResourceKind::cpu, "CPU");
const Resource kGpu(1, ResourceKind::gpu, "GPU");

/// An item on resource 0; times in ticks.
ScheduleItem item(TaskUid uid, Time duration, Time deadline, Time release = 0, bool pinned = false) {
    ScheduleItem it;
    it.uid = uid;
    it.resource = 0;
    it.release = release;
    it.abs_deadline = deadline;
    it.duration = duration;
    it.pinned_first = pinned;
    return it;
}

/// A task's completion time in a schedule_resource completion list.
Time completion_at(const std::vector<TaskCompletion>& completion, TaskUid uid) {
    const auto it = std::find_if(completion.begin(), completion.end(),
                                 [uid](const TaskCompletion& entry) { return entry.uid == uid; });
    if (it == completion.end()) {
        ADD_FAILURE() << "task " << uid << " has no completion";
        return -1;
    }
    return it->time;
}

/// All segments must be disjoint and time-ordered.
void expect_well_formed(const ResourceTimeline& timeline, Time now) {
    Time previous_end = now;
    for (const Segment& segment : timeline.segments) {
        EXPECT_GE(segment.start, previous_end);
        EXPECT_GT(segment.end, segment.start);
        previous_end = segment.end;
    }
}

TEST(Edf, SingleTaskRunsImmediately) {
    const std::vector<ScheduleItem> items{item(1, ms(5.0), ms(10.0))};
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    ASSERT_EQ(result.timeline.segments.size(), 1u);
    EXPECT_EQ(result.timeline.segments[0].start, ms(0.0));
    EXPECT_EQ(result.timeline.segments[0].end, ms(5.0));
    EXPECT_EQ(completion_at(completion, 1), ms(5.0));
}

TEST(Edf, StartsAtNowNotZero) {
    std::vector<ScheduleItem> items{item(1, ms(5.0), ms(110.0), ms(100.0))};
    const auto result = schedule_resource(kCpu, ms(100), items);
    ASSERT_EQ(result.timeline.segments.size(), 1u);
    EXPECT_EQ(result.timeline.segments[0].start, ms(100.0));
}

TEST(Edf, OrdersByDeadline) {
    const std::vector<ScheduleItem> items{item(1, ms(4.0), ms(20.0)), item(2, ms(3.0), ms(5.0)),
                                          item(3, ms(2.0), ms(12.0))};
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    // EDF: 2 (d=5), then 3 (d=12), then 1 (d=20).
    EXPECT_EQ(completion_at(completion, 2), ms(3.0));
    EXPECT_EQ(completion_at(completion, 3), ms(5.0));
    EXPECT_EQ(completion_at(completion, 1), ms(9.0));
    expect_well_formed(result.timeline, 0);
}

TEST(Edf, DetectsDeadlineViolation) {
    const std::vector<ScheduleItem> items{item(1, ms(4.0), ms(4.0)), item(2, ms(3.0), ms(5.0))};
    const auto result = schedule_resource(kCpu, 0, items);
    // Task 1 finishes at 4 (ok), task 2 at 7 > 5: infeasible.
    EXPECT_FALSE(result.feasible);
    EXPECT_FALSE(resource_feasible(kCpu, 0, items));
}

TEST(Edf, ExactlyMeetingDeadlineIsFeasible) {
    const std::vector<ScheduleItem> items{item(1, ms(4.0), ms(4.0)), item(2, ms(3.0), ms(7.0))};
    EXPECT_TRUE(resource_feasible(kCpu, 0, items));
}

TEST(Edf, DeadlineTieBreaksByUid) {
    const std::vector<ScheduleItem> items{item(7, ms(2.0), ms(10.0)), item(3, ms(2.0), ms(10.0))};
    std::vector<TaskCompletion> completion;
    std::ignore = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_EQ(completion_at(completion, 3), ms(2.0));
    EXPECT_EQ(completion_at(completion, 7), ms(4.0));
}

TEST(Edf, ZeroDurationCompletesInstantly) {
    const std::vector<ScheduleItem> items{item(1, ms(0.0), ms(10.0)), item(2, ms(3.0), ms(5.0))};
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(std::ranges::count(completion, TaskUid{1}, &TaskCompletion::uid), 1);
    ASSERT_EQ(result.timeline.segments.size(), 1u); // no zero-width segment emitted
}

// ---- predicted-task semantics (the virtual task has release = s_p) ----

TEST(EdfPredicted, LaterDeadlineQueuesAfterAll) {
    // Paper case (4)/(5): tau_p has the latest deadline; it runs at
    // max(s_p, q_i) where q_i is when everything else finishes.
    std::vector<ScheduleItem> items{item(1, ms(6.0), ms(10.0)),
                                    item(kPredictedUid, ms(3.0), ms(20.0), /*release=*/ms(2.0))};
    std::vector<TaskCompletion> completion;
    auto result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(completion_at(completion, 1), ms(6.0));
    EXPECT_EQ(completion_at(completion, kPredictedUid), ms(9.0)); // starts at q = 6 > s_p = 2

    // s_p beyond q: starts at s_p.
    items[1].release = ms(8);
    completion.clear();
    result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_EQ(completion_at(completion, kPredictedUid), ms(11.0));
    // The resource idles in [6, 8): verify via the segment start.
    ASSERT_EQ(result.timeline.segments.size(), 2u);
    EXPECT_EQ(result.timeline.segments[1].start, ms(8.0));
}

TEST(EdfPredicted, EarlierDeadlineArrivingDuringSl1DoesNotPreempt) {
    // Paper case (6)/(7) with s_p <= q_i: SL1 (deadline <= d_p) runs first;
    // tau_p follows without preempting.
    const std::vector<ScheduleItem> items{
        item(1, ms(4.0), ms(6.0)),                                   // SL1 (d=6 <= d_p=8)
        item(2, ms(5.0), ms(30.0)),                                  // SL2
        item(kPredictedUid, ms(2.0), ms(8.0), /*release=*/ms(1.0)),      // d_p = 8
    };
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(completion_at(completion, 1), ms(4.0));
    EXPECT_EQ(completion_at(completion, kPredictedUid), ms(6.0));
    EXPECT_EQ(completion_at(completion, 2), ms(11.0));
    // Task 1 must not be split.
    EXPECT_EQ(result.timeline.segments.size(), 3u);
}

TEST(EdfPredicted, ArrivalAfterQPreemptsRunningSl2Task) {
    // Paper constraints (8)-(14): tau_p arrives while an SL2 task runs; the
    // task splits into two chunks around tau_p.
    const std::vector<ScheduleItem> items{
        item(1, ms(3.0), ms(5.0)),                              // SL1, runs [0, 3)
        item(2, ms(8.0), ms(30.0)),                             // SL2, starts at 3
        item(kPredictedUid, ms(2.0), ms(10.0), /*release=*/ms(5.0)) // preempts task 2 at 5
    };
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(completion_at(completion, 1), ms(3.0));
    EXPECT_EQ(completion_at(completion, kPredictedUid), ms(7.0));
    EXPECT_EQ(completion_at(completion, 2), ms(13.0)); // 8 units of work + 2 preempted

    // Task 2 must have exactly two chunks: [3, 5) and [7, 13).
    std::vector<Segment> chunks;
    for (const Segment& segment : result.timeline.segments)
        if (segment.uid == 2) chunks.push_back(segment);
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_EQ(chunks[0].start, ms(3.0));
    EXPECT_EQ(chunks[0].end, ms(5.0));
    EXPECT_EQ(chunks[1].start, ms(7.0));
    EXPECT_EQ(chunks[1].end, ms(13.0));
}

TEST(EdfPredicted, EqualDeadlineDoesNotPreempt) {
    // SL1 is "deadline earlier *or equal*": the predicted task loses ties.
    const std::vector<ScheduleItem> items{
        item(1, ms(6.0), ms(10.0)),
        item(kPredictedUid, ms(2.0), ms(10.0), /*release=*/ms(2.0)),
    };
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_EQ(completion_at(completion, 1), ms(6.0)); // not preempted at t=2
    EXPECT_EQ(completion_at(completion, kPredictedUid), ms(8.0));
    EXPECT_EQ(result.timeline.segments.size(), 2u);
}

TEST(EdfPredicted, NoPreemptionOnGpu) {
    // Sec 4.1: preemption by the predicted task is not applied to a GPU.
    // The same scenario as ArrivalAfterQPreempts... but on the GPU: tau_p
    // waits for the running task to finish.
    const std::vector<ScheduleItem> items{
        item(1, ms(3.0), ms(5.0)),
        item(2, ms(8.0), ms(30.0)),
        item(kPredictedUid, ms(2.0), ms(16.0), /*release=*/ms(5.0)),
    };
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kGpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(completion_at(completion, 2), ms(11.0));              // runs [3, 11) unsplit
    EXPECT_EQ(completion_at(completion, kPredictedUid), ms(13.0));  // boundary dispatch at 11
    for (const Segment& segment : result.timeline.segments)
        if (segment.uid == 2) {
            EXPECT_EQ(segment.duration(), ms(8.0));
        }
}

TEST(EdfPredicted, GpuBoundaryDispatchPrefersPredictedWhenReleased) {
    // At a task boundary past s_p, EDF picks the (earlier-deadline)
    // predicted task before remaining SL2 work.
    const std::vector<ScheduleItem> items{
        item(1, ms(4.0), ms(6.0)),
        item(2, ms(5.0), ms(40.0)),
        item(3, ms(5.0), ms(50.0)),
        item(kPredictedUid, ms(2.0), ms(12.0), /*release=*/ms(3.0)),
    };
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kGpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(completion_at(completion, 1), ms(4.0));
    EXPECT_EQ(completion_at(completion, kPredictedUid), ms(6.0)); // boundary at 4 >= s_p = 3
    EXPECT_EQ(completion_at(completion, 2), ms(11.0));
    EXPECT_EQ(completion_at(completion, 3), ms(16.0));
}

TEST(EdfPredicted, GpuWorkConservingBeforeRelease) {
    // If the boundary comes before s_p, the GPU does not idle waiting for
    // the predicted task: non-preemptive EDF is work-conserving.
    const std::vector<ScheduleItem> items{
        item(1, ms(2.0), ms(4.0)),
        item(2, ms(6.0), ms(40.0)),
        item(kPredictedUid, ms(2.0), ms(12.0), /*release=*/ms(3.0)),
    };
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kGpu, 0, items, &completion);
    // Boundary at t=2 < s_p=3: task 2 dispatches; tau_p must wait until 8.
    EXPECT_EQ(completion_at(completion, 2), ms(8.0));
    EXPECT_EQ(completion_at(completion, kPredictedUid), ms(10.0));
    EXPECT_TRUE(result.feasible);
}

// ---- pinned tasks ----

TEST(EdfPinned, PinnedRunsFirstDespiteLaterDeadline) {
    const std::vector<ScheduleItem> items{
        item(1, ms(5.0), ms(100.0), ms(0.0), /*pinned=*/true), // currently executing on the GPU
        item(2, ms(2.0), ms(8.0)),                         // earlier deadline but must wait
    };
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kGpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(completion_at(completion, 1), ms(5.0));
    EXPECT_EQ(completion_at(completion, 2), ms(7.0));
}

TEST(EdfPinned, PinnedOnPreemptableResourceThrows) {
    const std::vector<ScheduleItem> items{item(1, ms(5.0), ms(100.0), ms(0.0), /*pinned=*/true)};
    EXPECT_THROW(std::ignore = schedule_resource(kCpu, 0, items), precondition_error);
}

// ---- window-level assembly ----

TEST(WindowSchedule, GroupsByResourceAndReportsCompletions) {
    const Platform platform = make_motivational_platform();
    std::vector<ScheduleItem> items;
    ScheduleItem a = item(1, ms(5.0), ms(10.0));
    a.resource = 0;
    ScheduleItem b = item(2, ms(3.0), ms(6.0));
    b.resource = 2;
    items = {a, b};
    const WindowSchedule schedule = build_window_schedule(platform, 0, items);
    EXPECT_TRUE(schedule.feasible);
    ASSERT_EQ(schedule.per_resource.size(), 3u);
    EXPECT_EQ(schedule.per_resource[0].segments.size(), 1u);
    EXPECT_TRUE(schedule.per_resource[1].segments.empty());
    EXPECT_EQ(schedule.per_resource[2].segments.size(), 1u);
    EXPECT_EQ(*schedule.completion_of(1), ms(5.0));
    EXPECT_EQ(*schedule.completion_of(2), ms(3.0));
    EXPECT_FALSE(schedule.completion_of(99).has_value());
}

TEST(WindowSchedule, SegmentsOfCollectsAcrossResources) {
    const Platform platform = make_motivational_platform();
    ScheduleItem a = item(1, ms(5.0), ms(20.0));
    a.resource = 0;
    const WindowSchedule schedule = build_window_schedule(platform, 0, std::vector{a});
    const auto segments = schedule.segments_of(1);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].duration(), ms(5.0));
}

TEST(WindowSchedule, InvalidResourceIndexThrows) {
    const Platform platform = make_motivational_platform();
    ScheduleItem a = item(1, ms(5.0), ms(20.0));
    a.resource = 9;
    EXPECT_THROW(std::ignore = build_window_schedule(platform, 0, std::vector{a}),
                 precondition_error);
}

// ---- reserved + predicted interplay ----

TEST(EdfMixed, ReservationOutranksPredictedTask) {
    // A reservation and the predicted task both want the window [4, 6); the
    // reservation runs exactly on time and tau_p follows, even though the
    // predicted deadline is tight.
    ScheduleItem reservation;
    reservation.uid = kReservedUidBase + 1;
    reservation.release = ms(4.0);
    reservation.abs_deadline = ms(6.0);
    reservation.duration = ms(2.0);
    reservation.reserved = true;

    const std::vector<ScheduleItem> items{
        item(1, ms(3.0), ms(20.0)),
        item(kPredictedUid, ms(3.0), ms(9.0), /*release=*/ms(4.0)),
        reservation,
    };
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(completion_at(completion, kReservedUidBase + 1), ms(6.0));
    EXPECT_EQ(completion_at(completion, kPredictedUid), ms(9.0)); // after the window
    EXPECT_EQ(completion_at(completion, 1), ms(3.0)); // runs [0,3), before the window
}

TEST(EdfMixed, PredictedPreemptsTaskThenReservationPreemptsPredicted) {
    // Real task runs from 0; tau_p (tight deadline) preempts it at 2; the
    // reservation at 4 preempts tau_p; everything resumes afterwards.
    ScheduleItem reservation;
    reservation.uid = kReservedUidBase + 2;
    reservation.release = ms(4.0);
    reservation.abs_deadline = ms(5.0);
    reservation.duration = ms(1.0);
    reservation.reserved = true;

    const std::vector<ScheduleItem> items{
        item(1, ms(6.0), ms(30.0)),
        item(kPredictedUid, ms(3.0), ms(8.0), /*release=*/ms(2.0)),
        reservation,
    };
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);
    // Timeline: task1 [0,2), tau_p [2,4), reservation [4,5), tau_p [5,6),
    // task1 [6,10).
    EXPECT_EQ(completion_at(completion, kReservedUidBase + 2), ms(5.0));
    EXPECT_EQ(completion_at(completion, kPredictedUid), ms(6.0));
    EXPECT_EQ(completion_at(completion, 1), ms(10.0));
    // tau_p must be split into two chunks around the reservation.
    std::size_t predicted_chunks = 0;
    for (const Segment& segment : result.timeline.segments)
        if (segment.uid == kPredictedUid) ++predicted_chunks;
    EXPECT_EQ(predicted_chunks, 2u);
}

// ---- randomized properties ----

TEST(EdfProperty, FeasibleOnlyWhenAllCompletionsMeetDeadlines) {
    Rng rng(314);
    for (int round = 0; round < 300; ++round) {
        const bool gpu = rng.bernoulli(0.5);
        const std::size_t count = 1 + rng.index(6);
        std::vector<ScheduleItem> items;
        for (std::size_t j = 0; j < count; ++j) {
            ScheduleItem it = item(j + 1, ms(rng.uniform(0.5, 8.0)), ms(rng.uniform(2.0, 30.0)));
            items.push_back(it);
        }
        if (rng.bernoulli(0.5))
            items.push_back(item(kPredictedUid, ms(rng.uniform(0.5, 6.0)), ms(rng.uniform(4.0, 30.0)),
                                 ms(rng.uniform(0.0, 10.0))));

        std::vector<TaskCompletion> completion;
        const auto result =
            schedule_resource(gpu ? kGpu : kCpu, 0, items, &completion);

        bool all_met = true;
        Time total_work = 0;
        for (const ScheduleItem& it : items) {
            ASSERT_EQ(std::ranges::count(completion, it.uid, &TaskCompletion::uid), 1);
            if (completion_at(completion, it.uid) > it.abs_deadline) all_met = false;
            total_work += it.duration;
        }
        EXPECT_EQ(result.feasible, all_met);
        EXPECT_EQ(resource_feasible(gpu ? kGpu : kCpu, 0, items), all_met);

        // Conservation: total segment time equals total work.
        Time total_segments = 0;
        for (const Segment& segment : result.timeline.segments)
            total_segments += segment.duration();
        EXPECT_EQ(total_segments, total_work);
        expect_well_formed(result.timeline, 0);
    }
}

TEST(EdfProperty, PreemptiveEdfDominatesNonPreemptive) {
    // On a single resource with release times, preemptive EDF is optimal:
    // whenever the non-preemptive (GPU) dispatch succeeds, preemptive EDF
    // must too.
    Rng rng(2718);
    int gpu_feasible = 0;
    for (int round = 0; round < 400; ++round) {
        const std::size_t count = 1 + rng.index(5);
        std::vector<ScheduleItem> items;
        for (std::size_t j = 0; j < count; ++j)
            items.push_back(item(j + 1, ms(rng.uniform(0.5, 6.0)), ms(rng.uniform(2.0, 25.0))));
        items.push_back(item(kPredictedUid, ms(rng.uniform(0.5, 4.0)), ms(rng.uniform(3.0, 25.0)),
                             ms(rng.uniform(0.0, 8.0))));
        if (resource_feasible(kGpu, 0, items)) {
            ++gpu_feasible;
            EXPECT_TRUE(resource_feasible(kCpu, 0, items));
        }
    }
    EXPECT_GT(gpu_feasible, 50); // the property must actually be exercised
}

// ---- demand-bound prefilter (the admission hot-path screen) ----

TEST(EdfPrefilterTest, RejectsOverloadAcceptsSlackOnPlainSets) {
    // Plain = preemptable resource, everything released, nothing reserved
    // or pinned: both certificates of edf_demand_prefilter can fire.
    const std::vector<ScheduleItem> overload{item(1, ms(4.0), ms(4.0)), item(2, ms(3.0), ms(5.0))};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0, overload), EdfPrefilter::infeasible);

    const std::vector<ScheduleItem> slack{item(1, ms(2.0), ms(10.0)), item(2, ms(3.0), ms(20.0))};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0, slack), EdfPrefilter::feasible);
}

TEST(EdfPrefilterTest, ProcessorDemandCriterionDecidesFutureReleases) {
    // Plain preemptive EDF with release times: the prefilter's
    // processor-demand criterion (anchored scan plus one scan per distinct
    // future release) is a full verdict — the common admission probe that
    // carries a predicted task no longer falls back to the simulation.
    const std::vector<ScheduleItem> loose{item(1, ms(2.0), ms(30.0)),
                                          item(kPredictedUid, ms(1.0), ms(25.0), /*release=*/ms(5.0))};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0, loose), EdfPrefilter::feasible);
    EXPECT_TRUE(resource_feasible(kCpu, 0, loose));

    const std::vector<ScheduleItem> overload{item(1, ms(8.0), ms(9.0)),
                                             item(kPredictedUid, ms(4.0), ms(10.0), /*release=*/ms(5.0))};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0, overload), EdfPrefilter::infeasible);
    EXPECT_FALSE(resource_feasible(kCpu, 0, overload));

    // The future window [5, 13) is overfull even though the now-anchored
    // demand bound passes: only the per-release scan catches it.
    const std::vector<ScheduleItem> window_overload{
        item(1, ms(2.0), ms(30.0)), item(kPredictedUid, ms(9.0), ms(13.0), /*release=*/ms(5.0))};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0, window_overload), EdfPrefilter::infeasible);
    EXPECT_FALSE(resource_feasible(kCpu, 0, window_overload));

    // Exactly-tight future window: integer time makes the boundary exact,
    // so the prefilter decides it without the simulation.
    const std::vector<ScheduleItem> tight{item(kPredictedUid, ms(5.0), ms(10.0), /*release=*/ms(5.0))};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0, tight), EdfPrefilter::feasible);
    EXPECT_TRUE(resource_feasible(kCpu, 0, tight));
    const std::vector<ScheduleItem> one_tick_over{
        item(kPredictedUid, ms(5.0) + 1, ms(10.0), /*release=*/ms(5.0))};
    EXPECT_EQ(edf_demand_prefilter(kCpu, 0, one_tick_over), EdfPrefilter::infeasible);
    EXPECT_FALSE(resource_feasible(kCpu, 0, one_tick_over));
}

TEST(EdfPrefilterTest, NonPreemptableAllReleasedIsDecisive) {
    // Run-to-completion dispatch with everything released follows demand
    // order back-to-back, so the prefilter's mirror scan reproduces the
    // simulation's completion times and yields a full verdict — the GPU
    // admission probe (the bulk of serve-mode feasibility checks) resolves
    // analytically.
    const std::vector<ScheduleItem> fits{item(1, ms(4.0), ms(5.0)), item(2, ms(3.0), ms(9.0))};
    EXPECT_EQ(edf_demand_prefilter(kGpu, 0, fits), EdfPrefilter::feasible);

    const std::vector<ScheduleItem> late{item(1, ms(4.0), ms(5.0)), item(2, ms(3.0), ms(6.0))};
    EXPECT_EQ(edf_demand_prefilter(kGpu, 0, late), EdfPrefilter::infeasible);

    // A pinned head outranks demand order; the mirror scan accounts for it.
    const std::vector<ScheduleItem> pinned_ok{
        item(1, ms(5.0), ms(100.0), ms(0.0), /*pinned=*/true), item(2, ms(2.0), ms(8.0))};
    EXPECT_EQ(edf_demand_prefilter(kGpu, 0, pinned_ok), EdfPrefilter::feasible);
    const std::vector<ScheduleItem> pinned_late{
        item(1, ms(5.0), ms(100.0), ms(0.0), /*pinned=*/true), item(2, ms(2.0), ms(6.0))};
    EXPECT_EQ(edf_demand_prefilter(kGpu, 0, pinned_late), EdfPrefilter::infeasible);

    // A future release reintroduces idle/boundary effects: back to the
    // necessary-condition scan, decisive only for overload.
    const std::vector<ScheduleItem> future{item(1, ms(2.0), ms(30.0)),
                                           item(kPredictedUid, ms(1.0), ms(25.0), /*release=*/ms(5.0))};
    EXPECT_EQ(edf_demand_prefilter(kGpu, 0, future), EdfPrefilter::unknown);
}

TEST(EdfPrefilterTest, SortedVariantAgreesOnRandomPermutations) {
    // edf_demand_prefilter_sorted documents bit-identical verdicts to the
    // unsorted entry point on any permutation: both scan the demand order.
    Rng rng(97531);
    int decisive = 0;
    for (int round = 0; round < 1500; ++round) {
        const Resource& resource = rng.bernoulli(0.4) ? kGpu : kCpu;
        const Time now = ms(rng.uniform(0.0, 10.0));
        const std::size_t count = 1 + rng.index(7);
        std::vector<ScheduleItem> items;
        for (std::size_t j = 0; j < count; ++j) {
            const Time release = rng.bernoulli(0.3) ? now + ms(rng.uniform(0.0, 6.0)) : now;
            items.push_back(item(j + 1, ms(rng.uniform(0.2, 6.0)),
                                 release + ms(rng.uniform(0.5, 18.0)), release));
        }
        if (resource.kind() == ResourceKind::gpu && rng.bernoulli(0.3))
            items.push_back(item(50, ms(rng.uniform(0.5, 3.0)), now + ms(rng.uniform(1.0, 20.0)), now,
                                 /*pinned=*/true));
        if (rng.bernoulli(0.2)) {
            ScheduleItem reservation;
            reservation.uid = kReservedUidBase + 1;
            reservation.release = now + ms(rng.uniform(0.0, 8.0));
            reservation.duration = ms(rng.uniform(0.5, 2.0));
            reservation.abs_deadline = reservation.release + reservation.duration;
            reservation.reserved = true;
            items.push_back(reservation);
        }

        std::vector<ScheduleItem> sorted = items;
        std::sort(sorted.begin(), sorted.end(), demand_order);
        // A hostile permutation of the unsorted input.
        std::vector<ScheduleItem> shuffled = items;
        for (std::size_t j = shuffled.size(); j > 1; --j)
            std::swap(shuffled[j - 1], shuffled[rng.index(j)]);

        const EdfPrefilter unsorted_verdict = edf_demand_prefilter(resource, now, shuffled);
        const EdfPrefilter sorted_verdict = edf_demand_prefilter_sorted(resource, now, sorted);
        EXPECT_EQ(unsorted_verdict, sorted_verdict) << "round " << round;
        if (sorted_verdict != EdfPrefilter::unknown) ++decisive;
    }
    EXPECT_GT(decisive, 300);
}

TEST(EdfPrefilterTest, IncrementalInsertionMatchesFromScratchRecompute) {
    // The solvers grow per-anchor lists one insert_demand_ordered at a
    // time.  After every insertion the incrementally maintained list must
    // equal a from-scratch sort of the same multiset, and the sorted
    // prefilter's verdict over it must equal the unsorted prefilter's over
    // the insertion-order list — the incremental demand-bound state never
    // drifts from a recompute.
    Rng rng(86420);
    for (int round = 0; round < 200; ++round) {
        const Resource& resource = rng.bernoulli(0.5) ? kGpu : kCpu;
        const Time now = ms(rng.uniform(0.0, 5.0));
        std::vector<ScheduleItem> incremental;
        std::vector<ScheduleItem> arrival_order;
        const std::size_t count = 1 + rng.index(10);
        for (std::size_t j = 0; j < count; ++j) {
            // Duplicate deadlines and releases on purpose: the total order's
            // uid tie-break is what keeps the two sides aligned.
            const Time release =
                rng.bernoulli(0.3) ? now + ms(static_cast<double>(rng.index(4)) * 1.5) : now;
            ScheduleItem next = item(j + 1, ms(rng.uniform(0.2, 5.0)),
                                     release + ms(2.0 + static_cast<double>(rng.index(5)) * 2.0),
                                     release);
            arrival_order.push_back(next);
            const std::size_t pos = insert_demand_ordered(incremental, next);
            EXPECT_EQ(incremental[pos].uid, next.uid);

            std::vector<ScheduleItem> recomputed = arrival_order;
            std::sort(recomputed.begin(), recomputed.end(), demand_order);
            ASSERT_EQ(recomputed.size(), incremental.size());
            for (std::size_t k = 0; k < recomputed.size(); ++k)
                EXPECT_EQ(recomputed[k].uid, incremental[k].uid) << "round " << round;

            EXPECT_EQ(edf_demand_prefilter_sorted(resource, now, incremental),
                      edf_demand_prefilter(resource, now, arrival_order))
                << "round " << round;
        }
    }
}

TEST(EdfGolden, SoaInnerLoopReproducesGoldenSegmentOrder) {
    // Golden pin for the struct-of-arrays EDF inner loop: a scenario mixing
    // a future-release preemption, a reservation window, and a deadline tie
    // must reproduce this exact segment sequence.  Any reordering of the
    // SoA scan (or a drifting tie-break) changes the segments, not just the
    // completion times.
    ScheduleItem reservation;
    reservation.uid = kReservedUidBase + 1;
    reservation.release = ms(6.0);
    reservation.abs_deadline = ms(7.0);
    reservation.duration = ms(1.0);
    reservation.reserved = true;
    const std::vector<ScheduleItem> items{
        item(2, ms(4.0), ms(40.0)),                              // ties on uid with 5
        item(5, ms(3.0), ms(40.0)),                              // loses the uid tie
        item(1, ms(2.0), ms(9.0)),                               // earliest deadline, runs first
        item(kPredictedUid, ms(2.0), ms(12.0), /*release=*/ms(3.0)), // preempts task 2 at 3
        reservation,                                     // preempts tau_p's tail window
    };
    std::vector<TaskCompletion> completion;
    const auto result = schedule_resource(kCpu, 0, items, &completion);
    EXPECT_TRUE(result.feasible);

    // Expected dispatch: 1 [0,2), 2 [2,3), tau_p [3,5), 2 [5,6),
    // reservation [6,7), 2 [7,9), 5 [9,12).
    const std::vector<std::tuple<TaskUid, double, double>> golden{ // ms
        {1, 0.0, 2.0},  {2, 2.0, 3.0},
        {kPredictedUid, 3.0, 5.0}, {2, 5.0, 6.0},
        {kReservedUidBase + 1, 6.0, 7.0}, {2, 7.0, 9.0},
        {5, 9.0, 12.0},
    };
    ASSERT_EQ(result.timeline.segments.size(), golden.size());
    for (std::size_t k = 0; k < golden.size(); ++k) {
        EXPECT_EQ(result.timeline.segments[k].uid, std::get<0>(golden[k])) << "segment " << k;
        EXPECT_EQ(result.timeline.segments[k].start, ms(std::get<1>(golden[k])));
        EXPECT_EQ(result.timeline.segments[k].end, ms(std::get<2>(golden[k])));
    }
    EXPECT_EQ(completion_at(completion, 2), ms(9.0));
    EXPECT_EQ(completion_at(completion, 5), ms(12.0));
}

TEST(EdfPrefilterTest, DvfsAnchorScreensTheMergedOperatingPointSet) {
    // Operating points of one DVFS core share the anchor's timeline
    // (build_window_schedule groups by physical()); by the time the
    // prefilter runs it sees the merged item set with level-scaled
    // durations on the anchor resource — both verdicts must match the
    // window-level outcome.
    PlatformBuilder builder;
    builder.add_cpu_with_dvfs({1.0, 0.5}, "CPU");
    const Platform platform = builder.build();
    const Resource& anchor = platform.resource(0);
    ASSERT_EQ(platform.resource(1).physical(), 0u);

    ScheduleItem full = item(1, ms(2.0), ms(12.0)); // at the 1.0 level
    ScheduleItem half = item(2, ms(4.0), ms(12.0)); // 2.0 of work at f = 0.5
    half.resource = 1;
    std::vector<ScheduleItem> merged{full, half};
    EXPECT_EQ(edf_demand_prefilter(anchor, 0, merged), EdfPrefilter::feasible);
    EXPECT_TRUE(build_window_schedule(platform, 0, merged).feasible);

    ScheduleItem heavy = item(3, ms(16.0), ms(12.0)); // 8.0 of work at f = 0.5
    heavy.resource = 1;
    merged.push_back(heavy);
    EXPECT_EQ(edf_demand_prefilter(anchor, 0, merged), EdfPrefilter::infeasible);
    EXPECT_FALSE(build_window_schedule(platform, 0, merged).feasible);
}

TEST(EdfPrefilterTest, DecisiveVerdictsAgreeWithFullSimulation) {
    // Randomized agreement: on arbitrary instances — reservations,
    // non-preemptable resources, pinned heads, future releases, zero
    // durations, now != 0 — a decisive prefilter verdict must match the
    // full EDF simulation, and resource_feasible (which consults the
    // prefilter first) must always equal schedule_resource's verdict.
    Rng rng(20260806);
    int infeasible_verdicts = 0;
    int feasible_verdicts = 0;
    int unknown_verdicts = 0;
    int mixed_rounds = 0;
    for (int round = 0; round < 3000; ++round) {
        const bool gpu = rng.bernoulli(0.3);
        const Resource& resource = gpu ? kGpu : kCpu;
        const Time now = rng.bernoulli(0.5) ? 0 : ms(rng.uniform(0.0, 15.0));
        const std::size_t count = 1 + rng.index(7);

        std::vector<ScheduleItem> items;
        bool mixed = false;
        for (std::size_t j = 0; j < count; ++j) {
            const Time duration = rng.bernoulli(0.1) ? 0 : ms(rng.uniform(0.2, 6.0));
            Time release = now;
            if (rng.bernoulli(0.25)) { // future release (predicted-style)
                release = now + ms(rng.uniform(0.0, 8.0));
                mixed = true;
            }
            items.push_back(
                item(j + 1, duration, release + ms(rng.uniform(0.5, 22.0)), release));
        }
        if (rng.bernoulli(0.2)) { // one exact-window reservation
            ScheduleItem reservation;
            reservation.uid = kReservedUidBase + 1;
            reservation.release = now + ms(rng.uniform(0.0, 10.0));
            reservation.duration = ms(rng.uniform(0.5, 3.0));
            reservation.abs_deadline = reservation.release + reservation.duration;
            reservation.reserved = true;
            items.push_back(reservation);
            mixed = true;
        }
        if (gpu && rng.bernoulli(0.3)) { // currently-executing head task
            ScheduleItem pinned = item(100, ms(rng.uniform(0.5, 4.0)),
                                       now + ms(rng.uniform(1.0, 20.0)), now, /*pinned=*/true);
            items.push_back(pinned);
            mixed = true;
        }
        if (gpu || mixed) ++mixed_rounds;

        const EdfPrefilter verdict = edf_demand_prefilter(resource, now, items);
        const bool simulated = schedule_resource(resource, now, items).feasible;
        switch (verdict) {
        case EdfPrefilter::infeasible:
            ++infeasible_verdicts;
            EXPECT_FALSE(simulated) << "round " << round;
            break;
        case EdfPrefilter::feasible:
            ++feasible_verdicts;
            EXPECT_TRUE(simulated) << "round " << round;
            break;
        case EdfPrefilter::unknown:
            ++unknown_verdicts;
            break;
        }
        EXPECT_EQ(resource_feasible(resource, now, items), simulated) << "round " << round;
    }
    // Every verdict class and the awkward-instance pool must be exercised.
    EXPECT_GT(infeasible_verdicts, 100);
    EXPECT_GT(feasible_verdicts, 100);
    EXPECT_GT(unknown_verdicts, 100);
    EXPECT_GT(mixed_rounds, 500);
}

// ---- the sorted-order EDF loop against the quadratic one ----

struct QuadraticEdf {
    std::vector<Segment> segments;
    std::vector<TaskCompletion> completion;
    bool feasible = true;
};

/// simulate_edf as a plain rescan loop: every dispatch step scans all open
/// items for the pick, the next reservation, the idle target and the
/// preemption horizon.  The production loop searches pre-sorted orders
/// instead; it must reproduce these segments, completions and verdicts bit
/// for bit.
QuadraticEdf quadratic_edf(const Resource& resource, Time now,
                           const std::vector<ScheduleItem>& items) {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    constexpr Time kForever = kNever;
    QuadraticEdf out;
    Time cur = now;
    auto emit = [&](TaskUid uid, Time start, Time end) {
        if (end <= start) return;
        if (!out.segments.empty() && out.segments.back().uid == uid &&
            out.segments.back().end == start) {
            out.segments.back().end = end;
            return;
        }
        out.segments.push_back(Segment{uid, start, end});
    };
    auto finish = [&](TaskUid uid, Time deadline, Time end) {
        out.completion.push_back(TaskCompletion{uid, end});
        if (end > deadline) out.feasible = false;
    };

    struct Task {
        Time release, deadline;
        Time remaining;
        TaskUid uid;
        bool reserved, done;
    };
    std::vector<Task> tasks;
    auto edf_before = [&](std::size_t a, std::size_t b) {
        if (tasks[a].reserved != tasks[b].reserved) return tasks[a].reserved;
        if (tasks[a].deadline != tasks[b].deadline) return tasks[a].deadline < tasks[b].deadline;
        if (tasks[a].release != tasks[b].release) return tasks[a].release < tasks[b].release;
        return tasks[a].uid < tasks[b].uid;
    };
    auto preempts = [&](std::size_t u, std::size_t pick) {
        if (tasks[pick].reserved) return false;
        if (tasks[u].reserved) return true;
        return edf_before(u, pick);
    };

    for (const ScheduleItem& it : items) {
        if (it.pinned_first) {
            emit(it.uid, cur, cur + it.duration);
            finish(it.uid, it.abs_deadline, cur + it.duration);
            cur += it.duration;
            continue;
        }
        tasks.push_back(Task{it.release, it.abs_deadline, it.duration, it.uid, it.reserved,
                             it.duration <= 0});
        if (tasks.back().done) finish(it.uid, it.abs_deadline, std::max(cur, it.release));
    }
    std::size_t open = 0;
    for (const Task& task : tasks) open += task.done ? 0 : 1;

    while (open > 0) {
        std::size_t pick = kNone;
        for (std::size_t j = 0; j < tasks.size(); ++j) {
            if (tasks[j].done || tasks[j].release > cur) continue;
            if (pick == kNone || edf_before(j, pick)) pick = j;
        }
        Time next_reservation = kForever;
        for (const Task& task : tasks)
            if (!task.done && task.reserved && task.release > cur)
                next_reservation = std::min(next_reservation, task.release);
        if (!resource.preemptable() && pick != kNone && !tasks[pick].reserved &&
            tasks[pick].remaining > next_reservation - cur) {
            pick = kNone;
            for (std::size_t j = 0; j < tasks.size(); ++j) {
                if (tasks[j].done || tasks[j].release > cur || tasks[j].reserved) continue;
                if (tasks[j].remaining > next_reservation - cur) continue;
                if (pick == kNone || edf_before(j, pick)) pick = j;
            }
        }
        if (pick == kNone) {
            Time next = next_reservation;
            for (const Task& task : tasks)
                if (!task.done && task.release > cur) next = std::min(next, task.release);
            cur = std::max(cur, next);
            continue;
        }
        const Time end = cur + tasks[pick].remaining;
        if (resource.preemptable()) {
            Time preempt_at = kForever;
            for (std::size_t j = 0; j < tasks.size(); ++j) {
                if (tasks[j].done || j == pick) continue;
                if (tasks[j].release > cur && tasks[j].release < end &&
                    preempts(j, pick))
                    preempt_at = std::min(preempt_at, tasks[j].release);
            }
            if (preempt_at < end) {
                emit(tasks[pick].uid, cur, preempt_at);
                tasks[pick].remaining -= preempt_at - cur;
                cur = preempt_at;
                continue;
            }
        }
        emit(tasks[pick].uid, cur, end);
        tasks[pick].remaining = 0;
        tasks[pick].done = true;
        --open;
        finish(tasks[pick].uid, tasks[pick].deadline, end);
        cur = end;
    }
    return out;
}

TEST(EdfDifferential, SortedDispatchMatchesQuadraticLoop) {
    // Whole-millisecond times on a coarse grid make deadline and release
    // ties common and put dispatch instants on whole milliseconds; releases
    // are then nudged a tick or two off those instants.  Some rounds repeat
    // a uid, so ties reach the input-position tie-break.
    Rng rng(20261018);
    const Time nudges[] = {0, 1, -1, 2, -2, 3, -3};
    int preempted = 0;
    int reserved = 0;
    int pinned = 0;
    int nudged = 0;
    int repeated_uid = 0;
    int infeasible = 0;
    for (int round = 0; round < 4000; ++round) {
        const bool gpu = rng.bernoulli(0.4);
        const Resource& resource = gpu ? kGpu : kCpu;
        const Time now = rng.bernoulli(0.5) ? 0 : ms(static_cast<double>(rng.index(20)));
        const bool whole = rng.bernoulli(0.7);
        const std::size_t count = 1 + rng.index(24);
        bool round_nudged = false;
        bool round_repeated = false;

        std::vector<ScheduleItem> items;
        for (std::size_t j = 0; j < count; ++j) {
            Time duration =
                whole ? ms(static_cast<double>(1 + rng.index(6))) : ms(rng.uniform(0.2, 6.0));
            if (rng.bernoulli(0.1)) duration = 0;
            Time release = now;
            if (rng.bernoulli(0.35)) {
                const Time nudge = nudges[rng.index(std::size(nudges))];
                release = std::max(now, now + ms(static_cast<double>(rng.index(12))) + nudge);
                round_nudged = round_nudged || nudge != 0;
            }
            TaskUid uid = j + 1;
            if (j > 0 && rng.bernoulli(0.05)) {
                uid = items[rng.index(items.size())].uid;
                round_repeated = true;
            }
            const Time deadline = release + ms(static_cast<double>(1 + rng.index(4 * count + 4)));
            items.push_back(item(uid, duration, deadline, release));
        }
        const std::size_t reservations = rng.bernoulli(0.3) ? 1 + rng.index(2) : 0;
        for (std::size_t r = 0; r < reservations; ++r) {
            ScheduleItem window;
            window.uid = kReservedUidBase + r;
            window.release = now + ms(static_cast<double>(rng.index(15))) +
                             nudges[rng.index(std::size(nudges))] * (rng.bernoulli(0.5) ? 1 : 0);
            window.release = std::max(now, window.release);
            window.duration = ms(static_cast<double>(1 + rng.index(3)));
            window.abs_deadline = window.release + window.duration;
            window.reserved = true;
            items.insert(items.begin() + static_cast<std::ptrdiff_t>(rng.index(items.size() + 1)),
                         window);
        }
        const bool head = gpu && rng.bernoulli(0.3);
        if (head)
            items.insert(items.begin() + static_cast<std::ptrdiff_t>(rng.index(items.size() + 1)),
                         item(1000, ms(static_cast<double>(1 + rng.index(4))),
                              now + ms(static_cast<double>(1 + rng.index(20))), now,
                              /*pinned=*/true));

        const QuadraticEdf expected = quadratic_edf(resource, now, items);
        std::vector<TaskCompletion> completion;
        const auto actual = schedule_resource(resource, now, items, &completion);
        ASSERT_EQ(actual.feasible, expected.feasible) << "round " << round;
        ASSERT_EQ(actual.timeline.segments.size(), expected.segments.size()) << "round " << round;
        for (std::size_t k = 0; k < expected.segments.size(); ++k) {
            const Segment& a = actual.timeline.segments[k];
            const Segment& e = expected.segments[k];
            EXPECT_EQ(a.uid, e.uid) << "round " << round << " segment " << k;
            EXPECT_TRUE(a.start == e.start && a.end == e.end)
                << "round " << round << " segment " << k;
        }
        ASSERT_EQ(completion.size(), expected.completion.size()) << "round " << round;
        for (std::size_t k = 0; k < completion.size(); ++k) {
            EXPECT_EQ(completion[k].uid, expected.completion[k].uid) << "round " << round;
            EXPECT_TRUE(completion[k].time == expected.completion[k].time)
                << "round " << round << " completion " << k;
        }
        EXPECT_EQ(resource_feasible(resource, now, items), expected.feasible) << "round " << round;

        std::size_t zero_length = 0;
        for (const ScheduleItem& it : items) zero_length += it.duration <= 0 ? 1 : 0;
        if (expected.segments.size() > items.size() - zero_length) ++preempted;
        reserved += reservations > 0 ? 1 : 0;
        pinned += head ? 1 : 0;
        nudged += round_nudged ? 1 : 0;
        repeated_uid += round_repeated ? 1 : 0;
        infeasible += expected.feasible ? 0 : 1;
    }
    // Every feature the loop branches on must actually be exercised.
    EXPECT_GT(preempted, 200);
    EXPECT_GT(reserved, 500);
    EXPECT_GT(pinned, 200);
    EXPECT_GT(nudged, 1000);
    EXPECT_GT(repeated_uid, 500);
    EXPECT_GT(infeasible, 200);
    EXPECT_LT(infeasible, 3800);
}

// ---- signed-time headroom ----

/// A trace may place a deadline anywhere below kNever (arrival + relative
/// deadline only has to fit int64), and probes add WCETs past it.  A sum
/// beyond the last representable instant saturates and counts as a miss;
/// wrapping to a negative time would meet every deadline.
TEST(EdfOverflow, SumsPastTheLastInstantAreMisses) {
    const Time now = kNever - ms(10.0);
    const Time huge = Time{3} << 61; // two of them overflow int64
    for (const Resource* resource : {&kCpu, &kGpu}) {
        const std::vector<ScheduleItem> late{item(1, ms(20.0), kNever - 1, now)};
        EXPECT_FALSE(schedule_resource(*resource, now, late).feasible) << resource->name();
        const std::vector<ScheduleItem> heavy{item(1, huge, kNever - 1), item(2, huge, kNever - 1)};
        EXPECT_EQ(edf_demand_prefilter(*resource, 0, heavy), EdfPrefilter::infeasible)
            << resource->name();
        EXPECT_FALSE(schedule_resource(*resource, 0, heavy).feasible) << resource->name();
    }
    // The GPU's pinned head runs before the EDF loop, on its own sum.
    const std::vector<ScheduleItem> pinned{item(1, ms(20.0), kNever - 1, now, true)};
    EXPECT_FALSE(schedule_resource(kGpu, now, pinned).feasible);
}

} // namespace
} // namespace rmwp
