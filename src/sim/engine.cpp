#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/stage_timer.hpp"
#include "obs/trace_sink.hpp"
#include "util/check.hpp"
#include "util/hexfloat.hpp"

namespace rmwp {
namespace {

// Heap event kinds; task completions run off the completion cursor.
constexpr std::uint32_t kArrivalEvent = 0;
constexpr std::uint32_t kActivationEvent = 1;
constexpr std::uint32_t kFaultOnsetEvent = 2;
constexpr std::uint32_t kFaultRecoveryEvent = 3;

constexpr const char* kCheckpointContext = "engine checkpoint";

/// The RM-visible task a request becomes (the RM picks its resource).
ActiveTask candidate_of(const Request& request, TaskUid uid) {
    ActiveTask candidate;
    candidate.uid = uid;
    candidate.type = request.type;
    candidate.arrival = request.arrival;
    candidate.absolute_deadline = request.absolute_deadline();
    return candidate;
}

/// The part of a task's WCET its actual work (a share of it, rounded up)
/// never executes.
Time unexecuted_work(Time wcet, double actual) { return wcet - scale_up(wcet, actual); }

/// Version 2: times and remaining work as integer ticks.
constexpr int kCheckpointVersion = 2;

/// The checkpointed TraceResult accumulators, in declared order (host-time
/// fields included: a restored run reports the effort of both halves).
constexpr std::size_t TraceResult::* kCheckpointCounters[] = {
    &TraceResult::requests, &TraceResult::accepted, &TraceResult::rejected,
    &TraceResult::completed, &TraceResult::deadline_misses, &TraceResult::aborted,
    &TraceResult::fault_aborted, &TraceResult::migrations, &TraceResult::activations,
    &TraceResult::plans_with_prediction, &TraceResult::audit_checks,
    &TraceResult::audit_differential_checks, &TraceResult::audit_differential_gaps,
    &TraceResult::resource_outages, &TraceResult::throttle_events,
    &TraceResult::rescue_activations, &TraceResult::rescued, &TraceResult::rescue_migrations};
constexpr double TraceResult::* kCheckpointSums[] = {
    &TraceResult::total_energy, &TraceResult::migration_energy, &TraceResult::critical_energy,
    &TraceResult::decision_seconds, &TraceResult::rescue_decision_seconds,
    &TraceResult::degraded_energy, &TraceResult::reference_energy};

} // namespace

SimEngine::SimEngine(const Platform& platform, const Catalog& catalog, ResourceManager& rm,
                     Predictor& predictor, const ReservationTable* reservations,
                     const SimOptions& options)
    : platform_(platform),
      catalog_(catalog),
      rm_(rm),
      predictor_(predictor),
      reservations_(reservations),
      options_(options),
      execution_rng_(options.execution_seed) {}

TraceResult SimEngine::run(const Trace& trace) {
    RMWP_EXPECT(!streaming_ && trace_ == nullptr);
    // Periodic activation already coalesces arrivals; combining the two
    // batching policies has no defined wake-up semantics.
    RMWP_EXPECT(!(options_.batch_arrivals && options_.activation_period > 0));
    trace_ = &trace;
#ifdef RMWP_OBS
    if (options_.sink != nullptr) init_obs();
#endif
    result_.requests = trace.size();
    for (const Request& request : trace)
        result_.reference_energy += catalog_.type(request.type).mean_energy();

    for (std::size_t j = 0; j < trace.size(); ++j)
        events_.schedule(trace.request(j).arrival, kArrivalEvent, j);

    if (options_.fault_schedule != nullptr) {
        const auto& faults = options_.fault_schedule->events();
        for (std::size_t f = 0; f < faults.size(); ++f) {
            events_.schedule(faults[f].start, kFaultOnsetEvent, f);
            if (faults[f].end != kNever) events_.schedule(faults[f].end, kFaultRecoveryEvent, f);
        }
    }

    return finalize();
}

void SimEngine::begin_stream() {
    RMWP_EXPECT(!streaming_ && trace_ == nullptr);
    RMWP_EXPECT(options_.activation_period == 0);
    streaming_ = true;
#ifdef RMWP_OBS
    if (options_.sink != nullptr) init_obs();
#endif
}

/// The streaming per-request accounting done before any decision.
void SimEngine::count_arrival(const Request& request, [[maybe_unused]] TaskUid uid) {
    RMWP_TRACE(options_.sink, request.arrival, obs::EventKind::arrival, uid, obs::kNoResource,
               to_ms(request.absolute_deadline()));
    ++result_.requests;
    result_.reference_energy += catalog_.type(request.type).mean_energy();
}

Time SimEngine::stream_arrival(const Request& request, TaskUid uid, Time wake) {
    RMWP_EXPECT(streaming_);
    RMWP_EXPECT(uid < kReservedUidBase);
    RMWP_EXPECT(wake >= request.arrival);
    drain_until(wake);
    count_arrival(request, uid);

    const Time decision_time = wake_up(wake);
    ++result_.activations;
    predictor_.observe_arrival(request);
    decide_on(request, uid, 0, decision_time);
    rebuild(decision_time);
    return decision_time;
}

Time SimEngine::stream_arrival_batch(std::span<const StreamArrival> arrivals, Time wake) {
    RMWP_EXPECT(streaming_);
    RMWP_EXPECT(!arrivals.empty());
    for (const StreamArrival& arrival : arrivals) {
        RMWP_EXPECT(arrival.uid < kReservedUidBase);
        RMWP_EXPECT(wake >= arrival.request.arrival);
    }
    drain_until(wake);

    batch_entries_.clear();
    for (const StreamArrival& arrival : arrivals) {
        count_arrival(arrival.request, arrival.uid);
        BatchEntry entry;
        entry.request = arrival.request;
        entry.uid = arrival.uid;
        batch_entries_.push_back(std::move(entry));
    }

    const Time decision_time = wake_up(wake);
    ++result_.activations; // one coalesced activation for the whole group
    decide_batch_on(decision_time);
    rebuild(decision_time);
    return decision_time;
}

void SimEngine::stream_shed(const Request& request, [[maybe_unused]] TaskUid uid) {
    RMWP_EXPECT(streaming_);
    ++result_.requests;
    result_.reference_energy += catalog_.type(request.type).mean_energy();
    ++result_.rejected;
    RMWP_TRACE(options_.sink, request.arrival, obs::EventKind::reject, uid, obs::kNoResource,
               0.0, static_cast<std::uint32_t>(RejectReason::overload));
#ifdef RMWP_OBS
    if (options_.sink != nullptr)
        ins_.reject[static_cast<std::size_t>(RejectReason::overload)]->add();
#endif
}

/// Dispatch pending events in (time, sequence) order — the heap merged with
/// the completion cursor — while `due(time)` holds for the earliest one.
/// Cursor entries carry the sequences their heap events would have had at
/// the rebuild, so at equal times a heap event goes first iff it was
/// scheduled before that rebuild: the FIFO order of the former per-task
/// completion events.
template <typename Due>
void SimEngine::drain_events(Due due) {
    while (true) {
        const bool have_completion = next_completion_ < completions_.size();
        if (!events_.empty() &&
            (!have_completion ||
             events_.precedes(completions_[next_completion_].time, completion_seq_))) {
            if (!due(events_.next_time())) return;
            dispatch(events_.pop());
        } else if (have_completion) {
            const PendingCompletion next = completions_[next_completion_];
            if (!due(next.time)) return;
            ++next_completion_;
            events_.mark_dispatched(next.time);
            complete(next.time, next.uid);
        } else {
            return;
        }
    }
}

void SimEngine::drain_until(Time t) {
    drain_events([t](Time time) { return time < t; });
}

void SimEngine::drain_through(Time t) {
    drain_events([t](Time time) { return time <= t; });
}

void SimEngine::set_fault_schedule(const FaultSchedule* schedule, Time from,
                                   bool include_events_at_from) {
    RMWP_EXPECT(streaming_);
    options_.fault_schedule = schedule;
    if (schedule == nullptr) return;
    const auto after = [&](Time t) { return include_events_at_from ? t >= from : t > from; };
    const auto& faults = schedule->events();
    for (std::size_t f = 0; f < faults.size(); ++f) {
        if (after(faults[f].start)) events_.schedule(faults[f].start, kFaultOnsetEvent, f);
        if (faults[f].end != kNever && after(faults[f].end))
            events_.schedule(faults[f].end, kFaultRecoveryEvent, f);
    }
}

TraceResult SimEngine::finish_stream() {
    RMWP_EXPECT(streaming_);
    return finalize();
}

TraceResult SimEngine::finalize() {
    drain_events([](Time) { return true; });
    advance(kNever);
    RMWP_ENSURE(active_.empty());
#ifdef RMWP_OBS
    if (options_.sink != nullptr) {
        ins_.sink_events_total->add(options_.sink->total_emitted());
        ins_.sink_dropped->add(options_.sink->dropped());
        ins_.sink_ring_occupancy->add(static_cast<double>(options_.sink->occupancy()));
        result_.obs_metrics = options_.sink->metrics().snapshot();
    }
#endif
    return result_;
}

void SimEngine::dispatch(const Event& event) {
    if (event.kind == kArrivalEvent) {
        RMWP_TRACE(options_.sink, event.time, obs::EventKind::arrival, event.payload,
                   obs::kNoResource,
                   to_ms(trace_->request(static_cast<std::size_t>(event.payload))
                             .absolute_deadline()));
        if (options_.activation_period > 0) {
            enqueue_for_batch(static_cast<std::size_t>(event.payload));
        } else if (options_.batch_arrivals) {
            // Coalesce the maximal run of simultaneous arrivals.  Arrivals
            // are scheduled before any completion/fault event exists, so
            // same-time arrivals hold the lowest FIFO sequences and pop
            // consecutively: peeking until the kind or time changes
            // captures exactly the group a sequential run would decide
            // back-to-back with zero-width advances in between.
            batch_entries_.clear();
            auto push_entry = [this](std::uint64_t payload) {
                BatchEntry entry;
                entry.trace_index = static_cast<std::size_t>(payload);
                entry.uid = static_cast<TaskUid>(payload);
                entry.request = trace_->request(entry.trace_index);
                batch_entries_.push_back(std::move(entry));
            };
            push_entry(event.payload);
            while (!events_.empty()) {
                const Event& next = events_.peek();
                if (next.kind != kArrivalEvent || next.time != event.time) break;
                const Event member = events_.pop();
                RMWP_TRACE(options_.sink, member.time, obs::EventKind::arrival, member.payload,
                           obs::kNoResource,
                           to_ms(trace_->request(static_cast<std::size_t>(member.payload))
                                     .absolute_deadline()));
                push_entry(member.payload);
            }
            handle_arrival_batch(event.time);
        } else {
            handle_arrival(static_cast<std::size_t>(event.payload));
        }
    } else if (event.kind == kActivationEvent) {
        handle_activation(event.time);
    } else {
        RMWP_EXPECT(event.kind == kFaultOnsetEvent || event.kind == kFaultRecoveryEvent);
        handle_fault(event.time, event.kind == kFaultOnsetEvent,
                     static_cast<std::size_t>(event.payload));
    }
}

void SimEngine::complete(Time time, [[maybe_unused]] TaskUid uid) {
#ifdef RMWP_AUDIT
    // Completion audit: the window executing up to this completion must
    // still satisfy every structural invariant it satisfied when planned.
    // (Window-only: task states have advanced past the items.)  It runs
    // before the advance, which cuts the plan of the retiring task.
    if (options_.audit)
        run_audit(auditor_.audit_window(platform_, schedule_.start, items_, schedule_, &health_));
#endif
    advance(time);
    // The cursor is only valid for the current plan, so the task must
    // really be gone by now.
    if (options_.validate) RMWP_ENSURE(find_task(uid) == nullptr);
    // With execution-time variation the completion was (likely) earlier
    // than the WCET plan assumed: re-plan immediately so queued tasks
    // reclaim the slack.
    if (options_.execution_time_factor_min < 1.0) rebuild(time);
}

ActiveTask* SimEngine::find_task(TaskUid uid) {
    for (ActiveTask& task : active_)
        if (task.uid == uid) return &task;
    return nullptr;
}

/// Erase every task for which `retire(task)` holds — called once per task,
/// in order — together with its hidden work, keeping actual_work_
/// index-aligned with active_.
template <typename Retire>
void SimEngine::retire_if(Retire retire) {
    std::size_t kept = 0;
    for (std::size_t k = 0; k < active_.size(); ++k) {
        if (retire(active_[k])) continue;
        if (kept != k) {
            active_[kept] = active_[k];
            actual_work_[kept] = actual_work_[k];
        }
        ++kept;
    }
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(kept), active_.end());
    actual_work_.erase(actual_work_.begin() + static_cast<std::ptrdiff_t>(kept),
                       actual_work_.end());
}

void SimEngine::charge_energy(double energy) {
    result_.total_energy += energy;
    if (!health_.all_nominal()) result_.degraded_energy += energy;
}

void SimEngine::advance(Time to) {
    const Time from = clock_;
    to = std::max(to, from);
    for (ResourceId i = 0; i < platform_.size(); ++i) {
        if (schedule_.per_resource.size() <= i) break;
        const bool non_preemptable = !platform_.resource(i).preemptable();
        std::vector<Segment>& segments = schedule_.per_resource[i].segments;
        for (std::size_t s = 0; s < segments.size(); ++s) {
            Segment& segment = segments[s];
            if (segment.start >= to) break;
            // Only the part of the segment inside (from, to] is new work;
            // earlier advances already consumed the prefix.
            const Time begin = std::max(segment.start, from);
            const Time executed_until = std::min(segment.end, to);
            const Time duration = executed_until - begin;
            if (duration <= 0) continue;

            if (is_reserved_uid(segment.uid)) {
                // Critical reservation: accrue its energy pro rata.
                const CriticalTask& critical = reservations_->task_of(segment.uid);
                result_.critical_energy += static_cast<double>(duration) /
                                           static_cast<double>(critical.duration) *
                                           critical.energy_per_instance;
                continue;
            }
            ActiveTask* task = find_task(segment.uid);
            RMWP_ENSURE(task != nullptr);
            // Work is counted in resource time at the current speed of the
            // task's mapped resource (its operating point on DVFS
            // platforms); `i` is the physical timeline the segment lives on.
            const TaskType& type = catalog_.type(task->type);
            const Time wcet = effective_wcet(type, task->resource, &health_);
            if (!task->started) task->remaining = wcet;
            task->started = true;
            if (non_preemptable) task->pinned = true;

            // One exec slice per executed span; repeated advances over
            // one segment yield adjacent slices, never overlaps, so the
            // per-resource busy time is the plain sum of slice durations.
            RMWP_TRACE(options_.sink, begin, obs::EventKind::exec, segment.uid,
                       static_cast<std::int64_t>(i), to_ms(duration));
#ifdef RMWP_OBS
            if (options_.sink != nullptr) ins_.busy_time[i]->add(to_ms(duration));
#endif

            const Time overhead = std::min(task->pending_overhead, duration);
            task->pending_overhead -= overhead;
            // Early completion: the task's real work can be less than its
            // WCET budget; it finishes the moment the actual work is done,
            // mid-segment.  Without variation `left` is the remaining work,
            // so the task completes exactly where its plan ends.
            const double actual = actual_work_[static_cast<std::size_t>(task - active_.data())];
            const Time left = task->remaining - unexecuted_work(wcet, actual);
            const bool completes = duration - overhead >= left;
            const Time executed =
                completes ? std::max<Time>(left, 0) : std::min(duration - overhead, task->remaining);

            charge_energy(static_cast<double>(executed) / static_cast<double>(wcet) *
                          type.energy(task->resource));
            task->remaining = completes ? 0 : task->remaining - executed;

            if (completes) {
                const Time completed_at = begin + overhead + executed;
                // The task retires here, so the rest of its plan is dead:
                // cut it off, or a later advance before the next rebuild
                // would execute a task that no longer exists.
                if (executed_until < segment.end) {
                    segment.end = executed_until;
                    const TaskUid uid = segment.uid;
                    const auto later = segments.begin() + static_cast<std::ptrdiff_t>(s + 1);
                    segments.erase(std::remove_if(later, segments.end(),
                                                  [uid](const Segment& next) {
                                                      return next.uid == uid;
                                                  }),
                                   segments.end());
                }
                ++result_.completed;
                RMWP_TRACE(options_.sink, completed_at, obs::EventKind::complete, segment.uid,
                           static_cast<std::int64_t>(i));
#ifdef RMWP_OBS
                if (options_.sink != nullptr) ins_.complete->add();
#endif
                if (completed_at > task->absolute_deadline) {
                    ++result_.deadline_misses;
                    if (options_.validate) RMWP_ENSURE(false); // firm guarantee violated
                }
            } else if (executed_until >= segment.end) {
                // The planned slice closed with work left: the task is
                // preempted here and resumes in a later slice.
                RMWP_TRACE(options_.sink, segment.end, obs::EventKind::preempt, segment.uid,
                           static_cast<std::int64_t>(i));
#ifdef RMWP_OBS
                if (options_.sink != nullptr) ins_.preempt->add();
#endif
            }
        }
    }
    retire_if([](const ActiveTask& task) { return task.finished(); });
    clock_ = std::max(clock_, std::min(to, schedule_horizon()));
}

Time SimEngine::schedule_horizon() const {
    Time latest = clock_;
    for (const ResourceTimeline& timeline : schedule_.per_resource)
        if (!timeline.segments.empty())
            latest = std::max(latest, timeline.segments.back().end);
    return latest;
}

Time SimEngine::wake_up(Time wake) {
    const Time overhead = predictor_.overhead();
    Time decision_time = std::max(wake + overhead, clock_);
    if (overhead > 0 && options_.overhead_stalls_platform) {
        // The manager runs on the platform: execution halts during the
        // decision window.  Progress stops at the wake-up; the clock
        // jumps to the decision time with the skipped segments left
        // unexecuted (rebuild() re-plans the remaining work from there).
        advance(wake);
        decision_time = std::max(wake, clock_) + overhead;
        clock_ = decision_time;
        abort_doomed(decision_time);
    } else {
        advance(decision_time);
    }
    return decision_time;
}

void SimEngine::process_request(std::size_t index, Time decision_time) {
    predictor_.observe(*trace_, index);
    decide_on(trace_->request(index), static_cast<TaskUid>(index), index, decision_time);
}

void SimEngine::reject_doomed([[maybe_unused]] TaskUid uid, [[maybe_unused]] Time decision_time) {
    ++result_.rejected;
    RMWP_TRACE(options_.sink, decision_time, obs::EventKind::reject, uid, obs::kNoResource, 0.0,
               static_cast<std::uint32_t>(RejectReason::deadline_passed));
#ifdef RMWP_OBS
    if (options_.sink != nullptr)
        ins_.reject[static_cast<std::size_t>(RejectReason::deadline_passed)]->add();
#endif
}

std::vector<PredictedTask> SimEngine::predict(std::size_t index, Time now) {
    return streaming_ ? predictor_.predict_upcoming(now, options_.lookahead)
                      : predictor_.predict_horizon(*trace_, index, now, options_.lookahead);
}

ArrivalContext SimEngine::context_for(const ActiveTask& candidate,
                                      std::vector<PredictedTask> predicted, Time now) const {
    ArrivalContext context;
    context.now = now;
    context.platform = &platform_;
    context.catalog = &catalog_;
    context.active = active_;
    context.candidate = candidate;
    context.predicted = std::move(predicted);
    context.reservations = reservations_;
    context.health = &health_;
    return context;
}

void SimEngine::decide_on(const Request& request, TaskUid uid, std::size_t index,
                          Time decision_time) {
    const ActiveTask candidate = candidate_of(request, uid);
    // A request whose deadline already passed while waiting for the
    // activation boundary cannot be served.
    if (candidate.absolute_deadline <= decision_time) {
        reject_doomed(candidate.uid, decision_time);
        return;
    }
    const ArrivalContext context =
        context_for(candidate, predict(index, decision_time), decision_time);

    // The timestamps bracket the *whole* decide call: on a multi-group
    // platform (DESIGN.md §15) that includes every group's solve and the
    // merge, so the recorded decision latency is the end-to-end figure —
    // never a single group's solve time.
    // RMWP_LINT_ALLOW(R1): measures RM overhead on the host (paper Fig 5); host-time
    const auto started = std::chrono::steady_clock::now();
    const Decision decision = rm_.decide(context);
    // RMWP_LINT_ALLOW(R1): measures RM overhead on the host (paper Fig 5); host-time
    const auto finished = std::chrono::steady_clock::now();
    result_.decision_seconds += std::chrono::duration<double>(finished - started).count();

#ifdef RMWP_OBS
    obs::stage_add_timed_ns(
        obs::Stage::decide,
        std::chrono::duration_cast<std::chrono::nanoseconds>(finished - started).count());
    if (options_.sink != nullptr) {
        // host scope: measures this machine, excluded from determinism.
        ins_.admission_latency_us->record(
            std::chrono::duration<double, std::micro>(finished - started).count());
    }
#endif

    commit_decision(context, decision, decision_time);
}

/// Everything downstream of the RM verdict — the audit, the observability
/// record, the admit/reject accounting, and the state mutation — shared
/// verbatim by the sequential and batched paths so they cannot drift.
void SimEngine::commit_decision(const ArrivalContext& context, const Decision& decision,
                                Time decision_time) {
    const ActiveTask& candidate = context.candidate;

#ifdef RMWP_OBS
    if (options_.sink != nullptr) {
        // sim scope: the size of the instance the RM planned over.
        ins_.plan_size->record(static_cast<double>(context.active.size() + 1));
    }
#endif

#ifdef RMWP_AUDIT
    if (options_.audit) {
        AuditReport report = auditor_.audit_decision(context, decision);
        if (options_.audit_differential) {
            auto differential = auditor_.differential_admission(context, decision);
            if (differential.checked) {
                ++result_.audit_differential_checks;
                if (differential.exact_admits && !decision.admitted)
                    ++result_.audit_differential_gaps;
                report.merge(std::move(differential.report));
            }
        }
        run_audit(std::move(report));
    }
#endif

    if (decision.admitted) {
        ++result_.accepted;
        if (decision.used_prediction) ++result_.plans_with_prediction;
#ifdef RMWP_OBS
        if (options_.sink != nullptr) {
            std::int64_t mapped = obs::kNoResource;
            for (const TaskAssignment& assignment : decision.assignments)
                if (assignment.uid == candidate.uid)
                    mapped = static_cast<std::int64_t>(assignment.resource);
            options_.sink->emit(decision_time, obs::EventKind::admit, candidate.uid, mapped,
                                0.0, decision.used_prediction ? 1u : 0u);
            ins_.admit->add();
        }
#endif
        apply(decision, candidate, decision_time);
    } else {
        ++result_.rejected;
        RMWP_TRACE(options_.sink, decision_time, obs::EventKind::reject, candidate.uid,
                   obs::kNoResource, 0.0, static_cast<std::uint32_t>(decision.reason));
#ifdef RMWP_OBS
        if (options_.sink != nullptr)
            ins_.reject[static_cast<std::size_t>(decision.reason)]->add();
#endif
    }
}

/// Decide every entry of batch_entries_ with one rm_.decide_batch call.
/// The per-entry protocol is the sequential one, re-ordered but not
/// re-defined: predictor observations and lookaheads interleave per entry
/// exactly as sequential same-instant activations would issue them, doomed
/// requests (deadline already passed) never reach the RM, and each
/// decision is committed against the active set as left by the previous
/// entry's commit — so with a zero-overhead predictor the resulting state
/// is bit-identical to deciding the entries one at a time.
void SimEngine::decide_batch_on(Time decision_time) {
    batch_items_.clear();
    for (BatchEntry& entry : batch_entries_) {
        if (streaming_) predictor_.observe_arrival(entry.request);
        else predictor_.observe(*trace_, entry.trace_index);

        entry.candidate = candidate_of(entry.request, entry.uid);
        if (entry.candidate.absolute_deadline <= decision_time) {
            entry.item = kNotAdmissible;
            continue;
        }
        entry.item = batch_items_.size();
        batch_items_.push_back(
            BatchItem{entry.candidate, predict(entry.trace_index, decision_time)});
    }

    BatchArrivalContext batch;
    batch.now = decision_time;
    batch.platform = &platform_;
    batch.catalog = &catalog_;
    batch.active = active_;
    batch.items = batch_items_;
    batch.reservations = reservations_;
    batch.health = &health_;

    // As on the sequential path: the bracket spans the whole decide_batch,
    // so multi-group runs record latency after the merge.
    // RMWP_LINT_ALLOW(R1): measures RM overhead on the host (paper Fig 5); host-time
    const auto started = std::chrono::steady_clock::now();
    if (!batch_items_.empty()) rm_.decide_batch(batch, batch_decisions_);
    // RMWP_LINT_ALLOW(R1): measures RM overhead on the host (paper Fig 5); host-time
    const auto finished = std::chrono::steady_clock::now();
    result_.decision_seconds += std::chrono::duration<double>(finished - started).count();
    RMWP_ENSURE(batch_items_.empty() || batch_decisions_.size() == batch_items_.size());

#ifdef RMWP_OBS
    obs::stage_add_timed_ns(
        obs::Stage::decide,
        std::chrono::duration_cast<std::chrono::nanoseconds>(finished - started).count());
    if (options_.sink != nullptr) {
        // host scope: one record per batch — the amortised cost is the
        // quantity of interest on the batched path.
        ins_.admission_latency_us->record(
            std::chrono::duration<double, std::micro>(finished - started).count());
    }
#endif

    for (const BatchEntry& entry : batch_entries_) {
        if (entry.item == kNotAdmissible) {
            reject_doomed(entry.uid, decision_time);
            continue;
        }
        // The context is rebuilt per entry against the *evolving* active
        // set — it is what the audit (and the obs plan-size metric) would
        // have seen on the sequential path.
        commit_decision(
            context_for(entry.candidate, batch_items_[entry.item].predicted, decision_time),
            batch_decisions_[entry.item], decision_time);
    }
}

void SimEngine::handle_arrival(std::size_t index) {
    const Time decision_time = wake_up(trace_->request(index).arrival);
    ++result_.activations;
    process_request(index, decision_time);
    rebuild(decision_time);
}

void SimEngine::handle_arrival_batch(Time arrival_time) {
    RMWP_EXPECT(!batch_entries_.empty());
    const Time decision_time = wake_up(arrival_time);
    ++result_.activations; // one coalesced activation for the whole group
    decide_batch_on(decision_time);
    rebuild(decision_time);
}

void SimEngine::enqueue_for_batch(std::size_t index) {
    pending_.push_back(index);
    const Time arrival = trace_->request(index).arrival;
    const Time period = options_.activation_period;
    const Time boundary = (arrival + period - 1) / period * period;
    if (boundary > last_activation_scheduled_) {
        events_.schedule(boundary, kActivationEvent, 0);
        last_activation_scheduled_ = boundary;
    }
}

void SimEngine::handle_activation(Time boundary) {
    if (pending_.empty()) return;
    const Time decision_time = wake_up(boundary);
    ++result_.activations;
    for (const std::size_t index : pending_) process_request(index, decision_time);
    pending_.clear();
    rebuild(decision_time);
}

void SimEngine::handle_fault(Time event_time, bool onset, std::size_t fault_index) {
    advance(event_time);
    // A decision stall can have pushed the clock past the event; health
    // and the re-plan are then evaluated at the later instant.
    const Time now = std::max(event_time, clock_);
    const FaultEvent& fault = options_.fault_schedule->events()[fault_index];
    const PlatformHealth before = health_;
    health_ = options_.fault_schedule->health_at(platform_, now);
    // Started work is owed at the old speed: rescale it to the new one.
    for (ActiveTask& task : active_) {
        if (!task.started) continue;
        const TaskType& type = catalog_.type(task.type);
        task.remaining = rescale_up(task.remaining, effective_wcet(type, task.resource, &health_),
                                    effective_wcet(type, task.resource, &before));
    }

    if (onset) {
        if (fault.takes_offline()) ++result_.resource_outages;
        else ++result_.throttle_events;
        RMWP_TRACE(options_.sink, now, obs::EventKind::fault_onset, obs::kNoTask,
                   static_cast<std::int64_t>(fault.resource), fault.factor,
                   static_cast<std::uint32_t>(fault.kind));
#ifdef RMWP_OBS
        if (options_.sink != nullptr) ins_.fault_onset->add();
#endif
        rescue_activation(now);
    } else {
        RMWP_TRACE(options_.sink, now, obs::EventKind::fault_recovery, obs::kNoTask,
                   static_cast<std::int64_t>(fault.resource), 1.0,
                   static_cast<std::uint32_t>(fault.kind));
#ifdef RMWP_OBS
        if (options_.sink != nullptr) ins_.fault_recovery->add();
#endif
        // Capacity restored (or a throttle relaxed): the current set is
        // still feasible, so only the schedule needs refreshing.
        rebuild(now);
    }
}

void SimEngine::rescue_activation(Time now) {
    ++result_.rescue_activations;
    RMWP_TRACE(options_.sink, now, obs::EventKind::rescue_begin, obs::kNoTask, obs::kNoResource,
               static_cast<double>(active_.size()));
#ifdef RMWP_OBS
    if (options_.sink != nullptr) ins_.rescue_activation->add();
#endif

    // Interrupt displaced tasks (their resource went offline).  On a
    // preemptable resource the saved context survives the fault and the
    // task resumes elsewhere after a real migration; non-preemptable
    // resources (GPU-like) lose the in-flight execution state, so the
    // task restarts from scratch — no longer started, pinned, or owing
    // migration time.
    std::vector<TaskUid> displaced;
    for (ActiveTask& task : active_) {
        if (health_.online(task.resource)) continue;
        displaced.push_back(task.uid);
        if (!platform_.resource(task.resource).preemptable()) {
            task.remaining = 0;
            task.started = false;
            task.pinned = false;
            task.pending_overhead = 0;
        }
    }

    RescueContext context;
    context.now = now;
    context.platform = &platform_;
    context.catalog = &catalog_;
    context.active = active_;
    context.health = &health_;
    context.reservations = reservations_;

    // RMWP_LINT_ALLOW(R1): measures rescue overhead on the host; host-time field only
    const auto started = std::chrono::steady_clock::now();
    const RescueDecision decision = rm_.rescue(context);
    // RMWP_LINT_ALLOW(R1): measures rescue overhead on the host; host-time field only
    const auto finished = std::chrono::steady_clock::now();
    result_.rescue_decision_seconds +=
        std::chrono::duration<double>(finished - started).count();

#ifdef RMWP_AUDIT
    if (options_.audit) run_audit(auditor_.audit_rescue(context, decision));
#endif

    if (options_.validate)
        RMWP_ENSURE(decision.kept.size() + decision.aborted.size() == active_.size());

    for (const TaskUid uid : decision.aborted) {
        const std::size_t before = active_.size();
        retire_if([uid](const ActiveTask& task) { return task.uid == uid; });
        RMWP_ENSURE(active_.size() + 1 == before);
        ++result_.fault_aborted;
        RMWP_TRACE(options_.sink, now, obs::EventKind::rescue_abort, uid);
#ifdef RMWP_OBS
        if (options_.sink != nullptr) ins_.rescue_abort->add();
#endif
    }

    const auto was_displaced = [&](TaskUid uid) {
        return std::find(displaced.begin(), displaced.end(), uid) != displaced.end();
    };
    for (const TaskAssignment& assignment : decision.kept) {
        ActiveTask* task = find_task(assignment.uid);
        RMWP_ENSURE(task != nullptr);
        if (options_.validate) RMWP_ENSURE(health_.online(assignment.resource));
        if (assignment.resource != task->resource) {
            RMWP_ENSURE(!task->pinned);
            if (move(*task, assignment.resource, now)) ++result_.rescue_migrations;
        }
        if (was_displaced(assignment.uid)) ++result_.rescued;
        RMWP_TRACE(options_.sink, now, obs::EventKind::rescue_keep, assignment.uid,
                   static_cast<std::int64_t>(assignment.resource), 0.0,
                   was_displaced(assignment.uid) ? 1u : 0u);
#ifdef RMWP_OBS
        if (options_.sink != nullptr) ins_.rescue_keep->add();
#endif
    }

    rebuild(now);
}

void SimEngine::apply(const Decision& decision, const ActiveTask& candidate,
                      [[maybe_unused]] Time now) {
    for (const TaskAssignment& assignment : decision.assignments) {
        if (assignment.uid == candidate.uid) {
            ActiveTask admitted = candidate;
            admitted.resource = assignment.resource;
            active_.push_back(admitted);
            double work = 1.0;
            if (options_.execution_time_factor_min < 1.0) {
                // Batch mode draws sequentially (the historical contract the
                // determinism tests pin down); streaming mode derives an
                // independent stream per uid, so a checkpoint needs no RNG
                // state — replaying uid j always sees the same draw.
                work = streaming_
                           ? Rng(options_.execution_seed)
                                 .derive(admitted.uid)
                                 .uniform(options_.execution_time_factor_min, 1.0)
                           : execution_rng_.uniform(options_.execution_time_factor_min, 1.0);
            }
            actual_work_.push_back(work);
            continue;
        }
        ActiveTask* task = find_task(assignment.uid);
        RMWP_ENSURE(task != nullptr);
        if (assignment.resource == task->resource) continue;
        RMWP_ENSURE(!task->pinned); // non-preemptable tasks never move
        move(*task, assignment.resource, now);
    }
}

/// Relocate `task` to `to` (relocate() in core/task_state) and charge the
/// migration energy when a started task changes physical core.  A level
/// switch on the same core costs nothing and moves no state, so it is not
/// counted as a migration.  Returns whether it was one.
bool SimEngine::move(ActiveTask& task, ResourceId to, [[maybe_unused]] Time now) {
    const TaskType& type = catalog_.type(task.type);
    const bool migration = task.started && platform_.resource(task.resource).physical() !=
                                               platform_.resource(to).physical();
    if (migration) {
        const double energy = type.migration_energy(task.resource, to);
        charge_energy(energy);
        result_.migration_energy += energy;
        ++result_.migrations;
        RMWP_TRACE(options_.sink, now, obs::EventKind::migrate, task.uid,
                   static_cast<std::int64_t>(task.resource), energy,
                   static_cast<std::uint32_t>(to));
#ifdef RMWP_OBS
        if (options_.sink != nullptr) ins_.migrate->add();
#endif
    }
    relocate(task, type, to, &health_);
    return migration;
}

/// Re-plan the active set at `now` into items_ and schedule_, in place.
void SimEngine::plan_current(Time now) {
    items_.clear();
    Time horizon = now;
    for (const ActiveTask& task : active_) {
        items_.push_back(
            make_schedule_item(task, catalog_.type(task.type), task.resource, now, &health_));
        horizon = std::max(horizon, task.absolute_deadline);
    }
    if (reservations_ != nullptr && !reservations_->empty())
        reservations_->append_blocks(now, horizon, items_);
    build_window_schedule_into(platform_, now, items_, schedule_);
}

/// Runs only inside a decision stall, between the wake-up advance and the
/// decision's rebuild, so re-planning into schedule_ here is safe: nothing
/// executes the intermediate plans.
void SimEngine::abort_doomed(Time now) {
    while (true) {
        plan_current(now);
        if (schedule_.feasible) return;
        const std::size_t before = active_.size();
        std::vector<TaskUid> doomed;
        retire_if([&](const ActiveTask& task) {
            const auto completion = schedule_.completion_of(task.uid);
            const bool late = completion.has_value() && *completion > task.absolute_deadline;
            if (late) doomed.push_back(task.uid);
            return late;
        });
        if (active_.size() == before) {
            // No adaptive task misses its own deadline, so the
            // infeasibility is a *reservation* made late (e.g. a pinned
            // task overrunning into a reserved window after a stall).
            // Kill one adaptive occupant of each violated resource.
            for (const ScheduleItem& item : items_) {
                if (!item.reserved) continue;
                const auto completion = schedule_.completion_of(item.uid);
                if (!completion || *completion <= item.abs_deadline) continue;
                bool removed = false;
                retire_if([&](const ActiveTask& task) {
                    if (removed || task.resource != item.resource) return false;
                    removed = true;
                    doomed.push_back(task.uid);
                    return true;
                });
            }
            RMWP_ENSURE(active_.size() < before);
        }
        result_.aborted += before - active_.size();
#ifdef RMWP_OBS
        if (options_.sink != nullptr) {
            for (const TaskUid uid : doomed) {
                options_.sink->emit(now, obs::EventKind::abort_overhead, uid);
                ins_.abort_overhead->add();
            }
        }
#endif
    }
}

/// The instant advance() will retire `task` (active_[k]): the same integer
/// walk over its planned segments.
Time SimEngine::actual_completion(std::size_t k, Time planned) const {
    if (actual_work_[k] >= 1.0) return planned;
    const ActiveTask& task = active_[k];
    const Time wcet = effective_wcet(catalog_.type(task.type), task.resource, &health_);
    Time work_left =
        (task.started ? task.remaining : wcet) - unexecuted_work(wcet, actual_work_[k]);
    Time overhead_left = task.pending_overhead;
    // Every segment of the task lies on its resource's physical timeline
    // (build_window_schedule groups by physical anchor), in time order.
    const ResourceId timeline = platform_.resource(task.resource).physical();
    for (const Segment& segment : schedule_.per_resource[timeline].segments) {
        if (segment.uid != task.uid) continue;
        const Time overhead = std::min(overhead_left, segment.duration());
        overhead_left -= overhead;
        if (segment.duration() - overhead >= work_left)
            return segment.start + overhead + std::max<Time>(work_left, 0);
        work_left -= segment.duration() - overhead;
    }
    return planned;
}

void SimEngine::rebuild(Time now) {
    RMWP_TRACE(options_.sink, now, obs::EventKind::plan_rebuild, obs::kNoTask, obs::kNoResource,
               static_cast<double>(active_.size()));
#ifdef RMWP_OBS
    if (options_.sink != nullptr) ins_.plan_rebuild->add();
#endif
    plan_current(now);
#ifdef RMWP_AUDIT
    if (options_.audit) {
        // The in-place re-plan must equal a from-scratch one exactly.
        RMWP_ENSURE(schedule_ == build_window_schedule(platform_, now, items_));
        run_audit(audit_schedule());
    }
#endif
    if (options_.validate) RMWP_ENSURE(schedule_.feasible);

    // The new plan supersedes every pending completion: refill the cursor
    // stably by time, so equal times keep active_ order.
    completions_.clear();
    next_completion_ = 0;
    const auto by_time = [](const PendingCompletion& a, const PendingCompletion& b) {
        return a.time < b.time;
    };
    for (std::size_t k = 0; k < active_.size(); ++k) {
        const ActiveTask& task = active_[k];
        const auto completion = schedule_.completion_of(task.uid);
        RMWP_ENSURE(completion.has_value());
        const PendingCompletion entry{actual_completion(k, *completion), task.uid};
        completions_.insert(
            std::upper_bound(completions_.begin(), completions_.end(), entry, by_time), entry);
    }
    completion_seq_ = events_.next_sequence();
}

void SimEngine::save_stream(std::ostream& os) {
    RMWP_EXPECT(streaming_);
    // Clean cut: everything at or before the clock has happened (a fault
    // event landing exactly on the checkpoint instant is processed now, in
    // the same order an uninterrupted run would process it next), so
    // restore only re-derives strictly later events.
    drain_through(clock_);

    os << "RMWP-SIM-ENGINE " << kCheckpointVersion << '\n' << clock_ << '\n';

    os << platform_.size() << '\n';
    for (ResourceId i = 0; i < platform_.size(); ++i) {
        os << (health_.online(i) ? 1 : 0) << ' ';
        put_f64(os, health_.throttle(i));
    }

    os << active_.size() << '\n';
    for (std::size_t k = 0; k < active_.size(); ++k) {
        const ActiveTask& task = active_[k];
        os << task.uid << ' ' << task.type << ' ' << task.resource << ' '
           << (task.started ? 1 : 0) << ' ' << (task.pinned ? 1 : 0) << '\n'
           << task.arrival << ' ' << task.absolute_deadline << ' ' << task.remaining << ' '
           << task.pending_overhead << '\n';
        put_f64(os, actual_work_[k]);
    }

    for (const auto counter : kCheckpointCounters) os << result_.*counter << ' ';
    os << '\n';
    for (const auto sum : kCheckpointSums) put_f64(os, result_.*sum);
}

void SimEngine::restore_stream(std::istream& is, const FaultSchedule* faults) {
    RMWP_EXPECT(streaming_);
    RMWP_EXPECT(active_.empty() && clock_ == 0);
    std::string magic, version;
    if (!(is >> magic >> version) || magic != "RMWP-SIM-ENGINE")
        throw std::runtime_error("engine checkpoint: bad header");
    if (version != std::to_string(kCheckpointVersion))
        throw std::runtime_error("engine checkpoint: version " + version +
                                 " is not readable (this build reads version " +
                                 std::to_string(kCheckpointVersion) + ")");
    clock_ = get_ticks(is, kCheckpointContext);

    const auto resource_count = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    if (resource_count != platform_.size())
        throw std::runtime_error("engine checkpoint: platform size mismatch");
    health_ = PlatformHealth{};
    for (ResourceId i = 0; i < platform_.size(); ++i) {
        const bool online = get_u64(is, kCheckpointContext) != 0;
        const double throttle = get_f64(is, kCheckpointContext);
        // Health is per physical core; apply through the first operating
        // point that owns the core (set_* fan out to siblings).
        if (platform_.resource(i).physical() != i) continue;
        if (!online) health_.set_online(platform_, i, false);
        if (throttle != 1.0) health_.set_throttle(platform_, i, throttle);
    }

    const auto active_count = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    active_.clear();
    actual_work_.clear();
    for (std::size_t k = 0; k < active_count; ++k) {
        ActiveTask task;
        task.uid = get_u64(is, kCheckpointContext);
        task.type = static_cast<TaskTypeId>(get_u64(is, kCheckpointContext));
        task.resource = static_cast<ResourceId>(get_u64(is, kCheckpointContext));
        task.started = get_u64(is, kCheckpointContext) != 0;
        task.pinned = get_u64(is, kCheckpointContext) != 0;
        task.arrival = get_ticks(is, kCheckpointContext);
        task.absolute_deadline = get_ticks(is, kCheckpointContext);
        task.remaining = get_ticks(is, kCheckpointContext);
        task.pending_overhead = get_ticks(is, kCheckpointContext);
        const double work = get_f64(is, kCheckpointContext);
        if (task.type >= catalog_.size() || task.resource >= platform_.size())
            throw std::runtime_error("engine checkpoint: task references unknown type/resource");
        // A fraction of WCET; NaN fails both comparisons.
        if (!(work >= 0.0 && work <= 1.0))
            throw std::runtime_error("engine checkpoint: task work outside [0, 1]");
        active_.push_back(task);
        actual_work_.push_back(work);
    }

    for (const auto counter : kCheckpointCounters)
        result_.*counter = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
    for (const auto sum : kCheckpointSums) result_.*sum = get_f64(is, kCheckpointContext);

    // Re-derive everything save_stream did not carry: pending fault events
    // strictly after the cut (the restored health mask already reflects
    // events at or before it) and the completion schedule.
    set_fault_schedule(faults, clock_, /*include_events_at_from=*/false);
#ifdef RMWP_AUDIT
    // The re-derivation rebuild is not part of the simulated timeline (an
    // uninterrupted run has no event here), so its audit must not count:
    // restored runs promise bit-identical TraceResults, counters included.
    const std::size_t audit_checks_before = result_.audit_checks;
#endif
    rebuild(clock_);
#ifdef RMWP_AUDIT
    result_.audit_checks = audit_checks_before;
#endif
}

#ifdef RMWP_AUDIT
AuditReport SimEngine::audit_schedule() const {
    AuditReport report =
        auditor_.audit_items(platform_, catalog_, schedule_.start, active_, items_, &health_);
    report.merge(auditor_.audit_window(platform_, schedule_.start, items_, schedule_, &health_));
    return report;
}

void SimEngine::run_audit(AuditReport report) {
    ++result_.audit_checks;
    if (!report.ok()) throw audit_error(report);
}
#endif

#ifdef RMWP_OBS
void SimEngine::init_obs() {
    obs::MetricsRegistry& m = options_.sink->metrics();
    ins_.admit = &m.counter("admit");
    for (std::size_t r = 0; r < kRejectReasonCount; ++r)
        ins_.reject[r] =
            &m.counter(std::string("reject.") + to_string(static_cast<RejectReason>(r)));
    ins_.preempt = &m.counter("preempt");
    ins_.migrate = &m.counter("migrate");
    ins_.complete = &m.counter("complete");
    ins_.abort_overhead = &m.counter("abort_overhead");
    ins_.plan_rebuild = &m.counter("plan_rebuild");
    ins_.rescue_activation = &m.counter("rescue.activation");
    ins_.rescue_keep = &m.counter("rescue.keep");
    ins_.rescue_abort = &m.counter("rescue.abort");
    ins_.fault_onset = &m.counter("fault.onset");
    ins_.fault_recovery = &m.counter("fault.recovery");
    // Sink self-accounting: how much of the event stream survived the
    // ring.  Filled in once at the end of the run — the values are
    // functions of the (deterministic) event count and the configured
    // capacity, so they stay in the deterministic scope.
    ins_.sink_events_total = &m.counter("sink.events_total");
    ins_.sink_dropped = &m.counter("sink.dropped");
    ins_.sink_ring_occupancy = &m.gauge("sink.ring_occupancy");
    ins_.busy_time.resize(platform_.size());
    for (ResourceId i = 0; i < platform_.size(); ++i)
        ins_.busy_time[i] = &m.gauge("busy_time." + std::to_string(i));
    ins_.plan_size = &m.histogram("plan_size", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    ins_.admission_latency_us =
        &m.histogram("admission_latency_us", {1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0},
                     obs::MetricScope::host);
}
#endif

} // namespace rmwp
