#include "core/edf.hpp"

#include <algorithm>
#include <limits>

#include "obs/stage_timer.hpp"
#include "util/check.hpp"

namespace rmwp {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Struct-of-arrays task records for the EDF inner loop, plus the two
/// dispatch orders over them.  The dispatch searches (pick, next
/// reservation, idle target, preemption horizon) read one or two fields per
/// visited task; parallel arrays keep those reads cache-dense instead of
/// striding over 56-byte records.  Thread-local: admission probes run this
/// thousands of times per trace and must not pay a heap round-trip each
/// time.
struct EdfArrays {
    std::vector<Time> release;
    std::vector<Time> deadline;
    std::vector<Time> remaining;
    std::vector<TaskUid> uid;
    std::vector<std::uint8_t> reserved;
    std::vector<std::uint8_t> done;
    std::vector<std::uint32_t> by_priority; ///< indices in edf_before order
    std::vector<std::uint32_t> by_release;  ///< indices in release order

    void clear() noexcept {
        release.clear();
        deadline.clear();
        remaining.clear();
        uid.clear();
        reserved.clear();
        done.clear();
        by_priority.clear();
        by_release.clear();
    }

    void push(const ScheduleItem& item) {
        by_priority.push_back(static_cast<std::uint32_t>(release.size()));
        by_release.push_back(static_cast<std::uint32_t>(release.size()));
        release.push_back(item.release);
        deadline.push_back(item.abs_deadline);
        remaining.push_back(item.duration);
        uid.push_back(item.uid);
        reserved.push_back(item.reserved ? 1 : 0);
        done.push_back(item.duration == 0 ? 1 : 0);
    }

    [[nodiscard]] std::size_t size() const noexcept { return release.size(); }
};

/// Shared preemptive/non-preemptive EDF simulation.  When `record` is null
/// only feasibility is computed.
///
/// Every dispatch search is a minimum over the open tasks under a fixed
/// order, so the open tasks are sorted once per call instead of rescanned
/// per dispatch step (DESIGN.md §13, "The sorted-order EDF loop"):
///   * the pick is the first ready open task in priority (edf_before) order,
///     past a cursor over the prefix of finished tasks;
///   * the next reservation, the idle target and the preemption horizon
///     are the first matching open task in release order at or after a
///     cursor over the released prefix — `cur` never moves backwards, so
///     neither cursor does.
/// Each search returns the task a full scan would, with the identical Time
/// value, so timelines and verdicts are bit-identical to the quadratic
/// loop (tests/test_edf.cpp pins them against a copy of it).
bool simulate_edf(const Resource& resource, Time now, std::span<const ScheduleItem> items,
                  ResourceTimeline* record, std::vector<TaskCompletion>* completion) {
    RMWP_STAGE_SCOPE(obs::Stage::edf_simulate);
    bool feasible = true;
    Time cur = now;

    auto emit = [&](TaskUid uid, Time start, Time end) {
        if (record == nullptr || end <= start) return;
        // The timeline invariant: segments are emitted in time order and
        // never overlap (the resource executes one task at a time).
        RMWP_ENSURE(record->segments.empty() || start >= record->segments.back().end);
        // Coalesce with the previous segment when the same task continues.
        if (!record->segments.empty() && record->segments.back().uid == uid &&
            record->segments.back().end == start) {
            record->segments.back().end = end;
            return;
        }
        record->segments.push_back(Segment{uid, start, end});
    };

    auto finish = [&](TaskUid uid, Time abs_deadline, Time end) {
        if (completion != nullptr) completion->push_back(TaskCompletion{uid, end});
        // A saturated completion (kNever) is past every deadline.
        if (end > abs_deadline || end == kNever) feasible = false;
    };

    thread_local EdfArrays soa_buffer;
    EdfArrays& soa = soa_buffer;
    soa.clear();

    // EDF ordering with deterministic tie-breaks.  Design-time reservations
    // outrank every adaptive task; the predicted task carries the maximum
    // uid, so on deadline ties real tasks win — exactly the paper's "SL1 =
    // deadline earlier than or equal to tau_p".  Input position makes the
    // order total, so the first match in by_priority is the first of the
    // minimal items in input order, the one a linear scan would keep.
    auto edf_before = [&](std::size_t a, std::size_t b) noexcept {
        if (soa.reserved[a] != soa.reserved[b]) return soa.reserved[a] != 0;
        if (soa.deadline[a] != soa.deadline[b]) return soa.deadline[a] < soa.deadline[b];
        if (soa.release[a] != soa.release[b]) return soa.release[a] < soa.release[b];
        if (soa.uid[a] != soa.uid[b]) return soa.uid[a] < soa.uid[b];
        return a < b;
    };

    // Whether a not-yet-released task `u` preempts the currently running
    // `pick` on a preemptable resource at u's release.  Reservations preempt
    // any adaptive task; adaptive tasks preempt by strictly earlier
    // deadline; nothing preempts a reservation (overlapping reservations
    // are a design-time error and simply surface as infeasibility).
    auto preempts = [&](std::size_t u, std::size_t pick) noexcept {
        if (soa.reserved[pick] != 0) return false;
        if (soa.reserved[u] != 0) return true;
        return edf_before(u, pick);
    };

    // Bring the items into the mutable arrays; run the pinned task (the one
    // currently executing on a non-preemptable resource) first.
    for (const ScheduleItem& item : items) {
        RMWP_EXPECT(item.duration >= 0);
        RMWP_EXPECT(item.release >= now);
        if (item.pinned_first) {
            RMWP_EXPECT(!resource.preemptable());
            const Time end = add_saturating(cur, item.duration);
            emit(item.uid, cur, end);
            finish(item.uid, item.abs_deadline, end);
            cur = end;
            continue;
        }
        soa.push(item);
        if (soa.done.back() != 0) finish(item.uid, item.abs_deadline, std::max(cur, item.release));
    }

    const std::size_t count = soa.size();
    std::size_t open = 0;
    for (std::size_t j = 0; j < count; ++j)
        if (soa.done[j] == 0) ++open;
    if (open == 0) return feasible;

    std::sort(soa.by_priority.begin(), soa.by_priority.end(), edf_before);
    std::sort(soa.by_release.begin(), soa.by_release.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (soa.release[a] != soa.release[b]) return soa.release[a] < soa.release[b];
                  return a < b;
              });
    std::size_t first_open = 0;  ///< by_priority: everything before it is done
    std::size_t first_future = 0; ///< by_release: everything before it is released

    // First open, released task in priority order satisfying `accept`.
    auto first_ready = [&](auto&& accept) {
        for (std::size_t p = first_open; p < count; ++p) {
            const std::size_t j = soa.by_priority[p];
            if (soa.done[j] == 0 && soa.release[j] <= cur && accept(j)) return j;
        }
        return kNone;
    };
    // First open, not yet released task in release order satisfying
    // `accept`, looking no further than releases below `limit`.
    auto first_future_open = [&](Time limit, auto&& accept) {
        for (std::size_t p = first_future; p < count; ++p) {
            const std::size_t j = soa.by_release[p];
            if (!(soa.release[j] < limit)) break;
            if (soa.done[j] == 0 && accept(j)) return j;
        }
        return kNone;
    };
    auto release_or_never = [&](std::size_t j) { return j == kNone ? kNever : soa.release[j]; };

    while (open > 0) {
        while (soa.done[soa.by_priority[first_open]] != 0) ++first_open;
        while (first_future < count && soa.release[soa.by_release[first_future]] <= cur)
            ++first_future;

        // Highest-priority ready item (reservations first, then EDF).
        std::size_t pick = first_ready([](std::size_t) { return true; });

        // Non-preemptable resources dispatch at boundaries only, so an
        // adaptive task may start only if it completes before the next
        // reservation begins — otherwise it would overrun a window that is
        // guaranteed at design time.  Fall back to the longest-fitting EDF
        // choice, or idle until the reservation.  With none pending there
        // is no window to overrun.
        const Time next_reservation = release_or_never(
            first_future_open(kNever, [&](std::size_t j) { return soa.reserved[j] != 0; }));
        if (!resource.preemptable() && pick != kNone && soa.reserved[pick] == 0 &&
            next_reservation != kNever && soa.remaining[pick] > next_reservation - cur) {
            pick = first_ready([&](std::size_t j) {
                return soa.reserved[j] == 0 && soa.remaining[j] <= next_reservation - cur;
            });
        }

        if (pick == kNone) {
            // Nothing dispatchable: idle to the next release (a future
            // arrival or the next reserved window).
            const Time next =
                release_or_never(first_future_open(kNever, [](std::size_t) { return true; }));
            RMWP_ENSURE(next != kNever);
            cur = std::max(cur, next);
            continue;
        }

        const Time end = add_saturating(cur, soa.remaining[pick]);
        if (resource.preemptable()) {
            // A future release preempts the running task if it outranks it
            // (a reservation always; an adaptive task by earlier deadline).
            // The pick is released, so it is never among the candidates.
            const Time preempt_at = release_or_never(
                first_future_open(end, [&](std::size_t j) { return preempts(j, pick); }));
            if (preempt_at < end) {
                emit(soa.uid[pick], cur, preempt_at);
                soa.remaining[pick] -= preempt_at - cur;
                cur = preempt_at;
                continue;
            }
        }
        emit(soa.uid[pick], cur, end);
        soa.remaining[pick] = 0;
        soa.done[pick] = 1;
        --open;
        finish(soa.uid[pick], soa.deadline[pick], end);
        cur = end;
    }

    return feasible;
}

/// The demand-bound scan shared by every prefilter verdict.  `range`
/// yields the items in demand order; `proj` dereferences an entry.  The
/// items released at or after `from` must all execute inside [from, their
/// deadline]: accumulating their work in demand order, false as soon as
/// some deadline cannot fit it (no schedule can create capacity).  With
/// `pinned_first` the pinned head is charged before everything else.
template <typename Range, typename Proj>
bool demand_fits(Time from, const Range& range, Proj&& proj, bool pinned_first) {
    Time work = 0;
    for (int pass = pinned_first ? 0 : 1; pass < 2; ++pass) {
        for (const auto& entry : range) {
            const ScheduleItem& item = proj(entry);
            if (item.release < from || (pinned_first && item.pinned_first != (pass == 0)))
                continue;
            work = add_saturating(work, item.duration);
            if (work > item.abs_deadline - from || work == kNever) return false;
        }
    }
    return true;
}

/// The shared prefilter body behind the sorted and unsorted entry points.
/// `range` yields the items in demand order; `proj` dereferences an entry.
///
/// On a preemptable resource with nothing reserved and nothing pinned,
/// dispatch is plain preemptive EDF, where the processor-demand criterion
/// is exact even with not-yet-released items: the set is schedulable iff
/// for every release point t1 (here: `now` plus each distinct future
/// release) and every deadline t2, the work of items confined to [t1, t2]
/// fits in t2 - t1.  Plans carrying a predicted task (the common admission
/// probe) thus resolve analytically instead of falling back to the EDF
/// simulation.  Reservations and pinned items outrank EDF, so those still
/// degrade to the simulation (`unknown`) unless the demand bound already
/// proves infeasibility.
///
/// On a non-preemptable resource (the GPU — the majority of admission
/// probes) with everything released, at most one pinned head and no
/// reservation, the dispatcher runs the pinned item first and everything
/// else back-to-back in demand order: the scan's prefix sums are the
/// simulation's completion times, a full verdict (two-plus pinned heads run
/// in input order, not demand order).  Anything else keeps the
/// necessary-condition scan and lets the simulation decide.
template <typename Range, typename Proj>
EdfPrefilter prefilter_verdict(const Resource& resource, Time now, const Range& range,
                               Proj&& proj) {
    bool reserved = false;
    std::size_t pinned = 0;
    thread_local std::vector<Time> releases_buffer;
    std::vector<Time>& future = releases_buffer;
    future.clear();
    for (const auto& entry : range) {
        const ScheduleItem& item = proj(entry);
        if (item.reserved) reserved = true;
        if (item.pinned_first) ++pinned;
        else if (item.release > now) future.push_back(item.release);
    }

    const bool mirror = !resource.preemptable() && !reserved && pinned <= 1 && future.empty();
    if (!demand_fits(now, range, proj, mirror)) return EdfPrefilter::infeasible;
    if (mirror) return EdfPrefilter::feasible;
    if (!resource.preemptable() || reserved || pinned > 0) return EdfPrefilter::unknown;

    std::sort(future.begin(), future.end());
    future.erase(std::unique(future.begin(), future.end()), future.end());
    for (const Time release : future)
        if (!demand_fits(release, range, proj, false)) return EdfPrefilter::infeasible;
    return EdfPrefilter::feasible;
}

/// Attribute a prefilter verdict to the installed stage profile (obs hook;
/// identity on the verdict either way).
EdfPrefilter note_verdict(EdfPrefilter verdict) noexcept {
    switch (verdict) {
    case EdfPrefilter::infeasible: RMWP_STAGE_VERDICT(prefilter_infeasible); break;
    case EdfPrefilter::feasible: RMWP_STAGE_VERDICT(prefilter_feasible); break;
    case EdfPrefilter::unknown: RMWP_STAGE_VERDICT(prefilter_unknown); break;
    }
    return verdict;
}

} // namespace

std::size_t insert_demand_ordered(std::vector<ScheduleItem>& items, const ScheduleItem& item) {
    RMWP_EXPECT(item.duration >= 0);
    const auto pos = std::upper_bound(items.begin(), items.end(), item, demand_order);
    const auto index = static_cast<std::size_t>(pos - items.begin());
    items.insert(pos, item);
    RMWP_ENSURE(index < items.size());
    RMWP_ENSURE(items[index].uid == item.uid);
    return index;
}

ResourceScheduleResult schedule_resource(const Resource& resource, Time now,
                                         std::span<const ScheduleItem> items,
                                         std::vector<TaskCompletion>* completion) {
    ResourceScheduleResult result;
    result.feasible = simulate_edf(resource, now, items, &result.timeline, completion);
    return result;
}

EdfPrefilter edf_demand_prefilter(const Resource& resource, Time now,
                                  std::span<const ScheduleItem> items) {
    RMWP_STAGE_SCOPE(obs::Stage::prefilter);
    if (items.empty()) return note_verdict(EdfPrefilter::feasible);

    thread_local std::vector<const ScheduleItem*> order_buffer;
    std::vector<const ScheduleItem*>& order = order_buffer;
    order.clear();
    order.reserve(items.size());
    for (const ScheduleItem& item : items) order.push_back(&item);
    std::sort(order.begin(), order.end(), [](const ScheduleItem* a, const ScheduleItem* b) {
        return demand_order(*a, *b);
    });

    return note_verdict(prefilter_verdict(resource, now, order,
                                          [](const ScheduleItem* item) -> const ScheduleItem& {
                                              return *item;
                                          }));
}

EdfPrefilter edf_demand_prefilter_sorted(const Resource& resource, Time now,
                                         std::span<const ScheduleItem> items) {
    RMWP_STAGE_SCOPE(obs::Stage::prefilter);
    if (items.empty()) return note_verdict(EdfPrefilter::feasible);
#ifdef RMWP_AUDIT
    // The incremental-state drift gate: callers promise demand order.
    RMWP_EXPECT(std::is_sorted(items.begin(), items.end(), demand_order));
#endif
    return note_verdict(prefilter_verdict(resource, now, items,
                                          [](const ScheduleItem& item) -> const ScheduleItem& {
                                              return item;
                                          }));
}

bool resource_feasible(const Resource& resource, Time now, std::span<const ScheduleItem> items) {
    switch (edf_demand_prefilter(resource, now, items)) {
    case EdfPrefilter::infeasible: return false;
    case EdfPrefilter::feasible: return true;
    case EdfPrefilter::unknown: break;
    }
    return simulate_edf(resource, now, items, nullptr, nullptr);
}

bool resource_feasible_sorted(const Resource& resource, Time now,
                              std::span<const ScheduleItem> items) {
    switch (edf_demand_prefilter_sorted(resource, now, items)) {
    case EdfPrefilter::infeasible: return false;
    case EdfPrefilter::feasible: return true;
    case EdfPrefilter::unknown: break;
    }
    return simulate_edf(resource, now, items, nullptr, nullptr);
}

WindowSchedule build_window_schedule(const Platform& platform, Time now,
                                     std::span<const ScheduleItem> items) {
    WindowSchedule schedule;
    build_window_schedule_into(platform, now, items, schedule);
    return schedule;
}

void build_window_schedule_into(const Platform& platform, Time now,
                                std::span<const ScheduleItem> items, WindowSchedule& schedule) {
    schedule.start = now;
    schedule.feasible = true;
    // Clear in place: the timelines and the completion table keep their
    // capacity, so a steady-state re-plan allocates nothing.
    schedule.per_resource.resize(platform.size());
    for (ResourceTimeline& timeline : schedule.per_resource) timeline.segments.clear();
    schedule.completion.clear();

    // Operating points of one DVFS core share the core's timeline: group by
    // the physical anchor, so two tasks on different frequency levels of
    // the same core serialise like any other same-resource pair.  The
    // grouping buffers are thread-local: the simulator rebuilds the window
    // after every activation, and per-rebuild vector-of-vectors churn was a
    // visible slice of the serve-loop profile.
    thread_local std::vector<std::vector<ScheduleItem>> grouped_buffer;
    std::vector<std::vector<ScheduleItem>>& grouped = grouped_buffer;
    if (grouped.size() < platform.size()) grouped.resize(platform.size());
    for (ResourceId i = 0; i < platform.size(); ++i) grouped[i].clear();
    for (const ScheduleItem& item : items) {
        RMWP_EXPECT(item.resource < platform.size());
        grouped[platform.resource(item.resource).physical()].push_back(item);
    }
    for (ResourceId i = 0; i < platform.size(); ++i) {
        if (platform.resource(i).physical() != i) {
            RMWP_EXPECT(grouped[i].empty());
            continue;
        }
        if (grouped[i].empty()) continue; // an idle resource: empty and feasible
        const bool feasible = simulate_edf(platform.resource(i), now, grouped[i],
                                           &schedule.per_resource[i], &schedule.completion);
        schedule.feasible = schedule.feasible && feasible;
    }
    std::sort(schedule.completion.begin(), schedule.completion.end(),
              [](const TaskCompletion& a, const TaskCompletion& b) { return a.uid < b.uid; });
    // One entry per uid: completion_of's binary search relies on it.
    RMWP_ENSURE(std::adjacent_find(schedule.completion.begin(), schedule.completion.end(),
                                   [](const TaskCompletion& a, const TaskCompletion& b) {
                                       return a.uid == b.uid;
                                   }) == schedule.completion.end());
}

} // namespace rmwp
