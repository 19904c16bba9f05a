#include "serve/serve.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace_sink.hpp"
#include "predict/online.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/hexfloat.hpp"

namespace rmwp {
namespace {

constexpr const char* kCheckpointContext = "serve checkpoint";

// Signal-to-drain flag.  The handlers only set it; the serve loop polls it
// between arrivals.  volatile sig_atomic_t semantics via std::atomic<int>
// (lock-free on every platform this builds on).
std::atomic<int> g_stop_requested{0};

void handle_stop_signal(int) { g_stop_requested.store(1, std::memory_order_relaxed); }

struct PendingArrival {
    Request request;
    TaskUid uid = 0;
    Time wake = 0;
};

std::string hexf(double value) {
    char buffer[48];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    return buffer;
}

/// Canonical space-free digest of everything a restore must agree on.  A
/// checkpoint taken under one configuration refuses to resume under
/// another instead of silently diverging.
std::string make_digest(const Platform& platform, const Catalog& catalog,
                        const ResourceManager& rm, const Predictor& predictor,
                        const ServeConfig& config) {
    std::ostringstream os;
    os << "v2|platform=" << platform.size() << "|catalog=" << catalog.size()
       << "|rm=" << rm.name() << "|predictor=" << predictor.name()
       << "|decision_cost=" << config.decision_cost
       << "|max_pending=" << config.max_pending
       << "|batch_window=" << config.batch_window
       << "|lookahead=" << config.sim.lookahead
       << "|exec_min=" << hexf(config.sim.execution_time_factor_min)
       << "|exec_seed=" << config.sim.execution_seed
       << "|fault_seed=" << config.fault_seed << "|fault_chunk=" << config.fault_chunk
       << "|outage=" << hexf(config.faults.outage_rate)
       << "|outage_mean=" << hexf(config.faults.outage_duration_mean)
       << "|throttle=" << hexf(config.faults.throttle_rate)
       << "|throttle_mean=" << hexf(config.faults.throttle_duration_mean)
       << "|min_online=" << config.faults.min_online;
    if (!config.config_digest.empty()) os << '|' << config.config_digest;
    std::string digest = os.str();
    // Digest must stay one whitespace-free token for the checkpoint parser.
    for (char& c : digest)
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
    return digest;
}

/// Fault chunk k: a seeded schedule over [k*chunk, (k+1)*chunk).  Each chunk
/// derives its own child stream of the fault seed, so chunk k is computable
/// without generating its predecessors (required for O(1) restore), and
/// events overrunning the chunk end are clipped to it — every chunk is
/// self-contained and the health mask returns to nominal at each boundary.
FaultSchedule make_fault_chunk(const Platform& platform, const ServeConfig& config,
                               std::uint64_t chunk_index) {
    Rng rng = Rng(config.fault_seed).derive(chunk_index);
    const FaultSchedule base =
        generate_fault_schedule(platform, config.faults, config.fault_chunk, rng);
    const Time offset = static_cast<Time>(chunk_index) * config.fault_chunk;
    const Time chunk_end = offset + config.fault_chunk;
    std::vector<FaultEvent> shifted;
    shifted.reserve(base.size());
    for (FaultEvent event : base.events()) {
        event.start += offset;
        event.end = event.end != kNever ? std::min(event.end + offset, chunk_end) : chunk_end;
        if (event.end <= event.start) continue;
        shifted.push_back(event);
    }
    return FaultSchedule(std::move(shifted));
}

} // namespace

void install_serve_signal_handlers() {
    struct sigaction action {};
    action.sa_handler = &handle_stop_signal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
}

void serve_request_stop() noexcept { g_stop_requested.store(1, std::memory_order_relaxed); }

void serve_clear_stop() noexcept { g_stop_requested.store(0, std::memory_order_relaxed); }

ServeResult run_serve(const Platform& platform, const Catalog& catalog, ResourceManager& rm,
                      Predictor& predictor, const ReservationTable* reservations,
                      ArrivalSource& source, const ServeConfig& config) {
    RMWP_EXPECT(config.sim.fault_schedule == nullptr);
    RMWP_EXPECT(config.sim.activation_period == 0);
    RMWP_EXPECT(config.decision_cost >= 0);
    if (config.faults.any()) {
        if (config.faults.permanent_prob != 0.0)
            throw std::runtime_error(
                "serve: permanent faults are not supported (unbounded horizon)");
        RMWP_EXPECT(config.fault_chunk > 0);
    }
    const bool checkpointing = !config.checkpoint_path.empty() && config.checkpoint_every > 0;
    if ((checkpointing || !config.restore_path.empty()) && !source.seekable())
        throw std::runtime_error("serve: checkpoint/restore requires a seekable source "
                                 "(a trace file or the synthetic generator, not a pipe)");

    const std::string digest = make_digest(platform, catalog, rm, predictor, config);
    auto* online = dynamic_cast<OnlinePredictor*>(&predictor);

    SimEngine engine(platform, catalog, rm, predictor, reservations, config.sim);
    engine.begin_stream();

    const bool faults_on = config.faults.any();
    std::uint64_t chunk_index = 0;
    std::optional<FaultSchedule> chunk;

    std::deque<PendingArrival> backlog;
    Time decider_free = 0.0;
    std::uint64_t consumed = 0;
    std::uint64_t shed = 0;

    // --- restore ---
    if (!config.restore_path.empty()) {
        std::ifstream is(config.restore_path);
        if (!is)
            throw std::runtime_error("serve: cannot open checkpoint: " + config.restore_path);
        std::string magic, version;
        if (!(is >> magic >> version) || magic != "RMWP-SERVE-CHECKPOINT")
            throw std::runtime_error("serve checkpoint: bad header");
        if (version != "2")
            throw std::runtime_error("serve checkpoint: version " + version +
                                     " is not readable (this build reads version 2)");
        std::string label, stored_digest;
        if (!(is >> label >> stored_digest) || label != "digest")
            throw std::runtime_error("serve checkpoint: missing digest");
        if (stored_digest != digest)
            throw std::runtime_error(
                "serve checkpoint: configuration mismatch\n  checkpoint: " + stored_digest +
                "\n  current:    " + digest);

        consumed = get_u64(is, kCheckpointContext);
        shed = get_u64(is, kCheckpointContext);
        chunk_index = get_u64(is, kCheckpointContext);
        decider_free = get_ticks(is, kCheckpointContext);
        SourceCursor cursor;
        cursor.seq = get_u64(is, kCheckpointContext);
        cursor.aux = get_ticks(is, kCheckpointContext);

        const auto backlog_size = static_cast<std::size_t>(get_u64(is, kCheckpointContext));
        for (std::size_t k = 0; k < backlog_size; ++k) {
            PendingArrival pending;
            pending.uid = get_u64(is, kCheckpointContext);
            pending.request.type =
                static_cast<TaskTypeId>(get_u64(is, kCheckpointContext));
            pending.request.arrival = get_ticks(is, kCheckpointContext);
            pending.request.relative_deadline = get_ticks(is, kCheckpointContext);
            pending.wake = get_ticks(is, kCheckpointContext);
            if (pending.request.type >= catalog.size())
                throw std::runtime_error("serve checkpoint: backlog references unknown type");
            backlog.push_back(pending);
        }

        if (faults_on) chunk = make_fault_chunk(platform, config, chunk_index);
        engine.restore_stream(is, faults_on ? &*chunk : nullptr);

        std::string predictor_tag;
        if (!(is >> predictor_tag) || predictor_tag != "predictor")
            throw std::runtime_error("serve checkpoint: missing predictor section");
        std::string predictor_kind;
        is >> predictor_kind;
        if (predictor_kind == "online") {
            if (online == nullptr)
                throw std::runtime_error(
                    "serve checkpoint: was taken with the online predictor");
            online->restore(is);
        } else if (predictor_kind != "none") {
            throw std::runtime_error("serve checkpoint: unknown predictor kind \"" +
                                     predictor_kind + "\"");
        }

        source.seek(cursor);
    } else if (faults_on) {
        chunk = make_fault_chunk(platform, config, 0);
        engine.set_fault_schedule(&*chunk, 0, /*include_events_at_from=*/true);
    }

    // --- monitor ---
    HealthBoard board;
    board.arrivals.store(consumed, std::memory_order_relaxed);
    board.shed.store(shed, std::memory_order_relaxed);
    board.decided.store(consumed - shed - backlog.size(), std::memory_order_relaxed);
    board.queued.store(backlog.size(), std::memory_order_relaxed);
    std::uint64_t chaos_extra_misses = 0;

    std::atomic<bool> violation_flagged{false};
    RuntimeMonitor monitor(board, config.limits, config.monitor_period_seconds,
                           [&violation_flagged](const HealthReport& report) {
                               std::cerr << "[serve] INVARIANT VIOLATION: "
                                         << report.to_string() << '\n';
                               violation_flagged.store(true, std::memory_order_relaxed);
                           });
    if (config.monitor) monitor.start();

    // --- rolling window stats ---
    std::ostream& window_out = config.window_out != nullptr ? *config.window_out : std::cerr;
    struct Cumulative {
        std::size_t accepted = 0, rejected = 0, completed = 0, misses = 0;
        std::uint64_t shed = 0;
        double energy = 0.0;
        std::size_t predictions = 0, hits = 0;
    };
    Cumulative window_base{engine.result().accepted, engine.result().rejected,
                           engine.result().completed, engine.result().deadline_misses,
                           shed, engine.result().total_energy,
                           online != nullptr ? online->type_predictions() : 0,
                           online != nullptr ? online->type_hits() : 0};
    Time next_window =
        config.window > 0 ? (engine.clock() / config.window + 1) * config.window : kNever;
    std::uint64_t windows_emitted = 0;

    const auto publish_engine_state = [&] {
        const TraceResult& r = engine.result();
        // Engine `requests` counts both flushed and shed arrivals; `decided`
        // on the board is the flushed-only share.
        board.decided.store(r.requests - shed, std::memory_order_relaxed);
        board.completed.store(r.completed, std::memory_order_relaxed);
        board.deadline_misses.store(r.deadline_misses + chaos_extra_misses,
                                    std::memory_order_relaxed);
        board.audit_checks.store(r.audit_checks, std::memory_order_relaxed);
        board.active.store(engine.active_count(), std::memory_order_relaxed);
        board.queued.store(backlog.size(), std::memory_order_relaxed);
        board.sim_clock.store(engine.clock(), std::memory_order_relaxed);
        if (config.sim.sink != nullptr) {
            board.ring_occupancy.store(config.sim.sink->occupancy(),
                                       std::memory_order_relaxed);
            board.ring_dropped.store(config.sim.sink->dropped(), std::memory_order_relaxed);
        }
        if (online != nullptr) {
            board.predictor_predictions.store(online->type_predictions(),
                                              std::memory_order_relaxed);
            board.predictor_hits.store(online->type_hits(), std::memory_order_relaxed);
        }
    };

    // --- per-stage profile + live telemetry (DESIGN.md §14) ---
    // The profile block is serve-thread-owned; the telemetry thread only
    // ever reads the mutex-protected Published copy, the board's atomics,
    // and the monitor's latched violation — the admission loop never blocks
    // on a socket and TSan sees no unsynchronised sharing.
    obs::StageStats stage_stats;
    const bool profile_stages =
        config.telemetry_port >= 0 || config.stage_stats_out != nullptr;
#ifdef RMWP_OBS
    std::optional<obs::StageStatsScope> stage_scope;
    if (profile_stages) stage_scope.emplace(&stage_stats);
#endif

    struct Published {
        std::mutex mutex;
        obs::MetricsSnapshot metrics;
        obs::StageStats stages;
        bool have = false;
    };
    Published published;

    std::optional<obs::TelemetryServer> telemetry;
    const auto publish_telemetry = [&] {
        if (!telemetry.has_value()) return;
        std::lock_guard<std::mutex> lock(published.mutex);
        if (config.sim.sink != nullptr)
            published.metrics = config.sim.sink->metrics().snapshot();
        published.stages = stage_stats;
        published.have = true;
    };

    if (config.telemetry_port >= 0) {
        obs::TelemetryHandlers handlers;
        handlers.metrics = [&board, &published, &monitor, &rm, profile_stages] {
            obs::PrometheusText text;
            {
                std::lock_guard<std::mutex> lock(published.mutex);
                if (published.have) {
                    obs::render_metrics(text, published.metrics, "rmwp_engine_");
                    if (profile_stages) obs::render_stage_stats(text, published.stages, "rmwp_");
                }
            }
            const BoardSample sample = sample_board(board);
            const auto gauge = [&text](const char* name, const char* help,
                                       std::uint64_t value) {
                text.family(name, help, "gauge");
                text.sample(name, "", value);
            };
            text.family("rmwp_serve_arrivals_total", "arrivals consumed from the source",
                        "counter");
            text.sample("rmwp_serve_arrivals_total", "", sample.arrivals);
            text.family("rmwp_serve_decided_total", "arrivals flushed through the RM",
                        "counter");
            text.sample("rmwp_serve_decided_total", "", sample.decided);
            text.family("rmwp_serve_shed_total", "arrivals dropped by overload protection",
                        "counter");
            text.sample("rmwp_serve_shed_total", "", sample.shed);
            text.family("rmwp_serve_completed_total", "tasks completed", "counter");
            text.sample("rmwp_serve_completed_total", "", sample.completed);
            text.family("rmwp_serve_deadline_misses_total", "admitted-task deadline misses",
                        "counter");
            text.sample("rmwp_serve_deadline_misses_total", "", sample.deadline_misses);
            gauge("rmwp_serve_backlog_depth", "requests waiting in the admission backlog",
                  sample.queued);
            gauge("rmwp_serve_active_tasks", "engine active set size", sample.active);
            gauge("rmwp_serve_ring_occupancy", "observability ring events retained",
                  sample.ring_occupancy);
            text.family("rmwp_serve_ring_dropped_total",
                        "observability ring events lost to wraparound", "counter");
            text.sample("rmwp_serve_ring_dropped_total", "",
                        board.ring_dropped.load(std::memory_order_relaxed));
            gauge("rmwp_serve_rss_kb", "process resident set size (kB)", sample.rss_kb);
            text.family("rmwp_serve_sim_clock_seconds", "simulation clock", "gauge");
            text.sample("rmwp_serve_sim_clock_seconds", "", to_ms(sample.sim_clock) / 1000.0);

            const std::uint64_t predictions =
                board.predictor_predictions.load(std::memory_order_relaxed);
            const std::uint64_t hits = board.predictor_hits.load(std::memory_order_relaxed);
            text.family("rmwp_serve_predictor_hit_ratio",
                        "online-predictor hit rate over the whole run (NaN before the "
                        "first scored prediction)",
                        "gauge");
            text.sample("rmwp_serve_predictor_hit_ratio", "",
                        predictions > 0 ? static_cast<double>(hits) /
                                              static_cast<double>(predictions)
                                        : std::numeric_limits<double>::quiet_NaN());

            // Service latency as a summary straight off the board's live HDR.
            text.family("rmwp_serve_latency_us",
                        "wall-clock service latency per backlog flush (microseconds)",
                        "summary");
            for (const double q : {0.5, 0.9, 0.99, 0.999}) {
                char label[32];
                std::snprintf(label, sizeof label, "quantile=\"%g\"", q);
                text.sample("rmwp_serve_latency_us", label, board.latency.quantile_us(q));
            }
            text.sample("rmwp_serve_latency_us", "", board.latency.sum_us(), "_sum");
            text.sample("rmwp_serve_latency_us", "", board.latency.count(), "_count");

            gauge("rmwp_serve_healthy",
                  "1 while no invariant violation has been latched",
                  monitor.violation().has_value() ? 0u : 1u);
            return text.take();
        };
        handlers.health = [&monitor] {
            const auto violation = monitor.violation();
            return violation.has_value() ? violation->to_string() : std::string();
        };
        telemetry.emplace(config.telemetry_port, std::move(handlers));
        if (config.telemetry_port_out != nullptr)
            config.telemetry_port_out->store(telemetry->port(), std::memory_order_release);
        std::cerr << "[serve] telemetry listening on 127.0.0.1:" << telemetry->port() << '\n';
        publish_telemetry();
    }

    const auto emit_windows = [&] {
        while (engine.clock() >= next_window) {
            const TraceResult& r = engine.result();
            char line[256];
            std::snprintf(line, sizeof line,
                          "[serve] t=%.0f accepted=%zu rejected=%zu shed=%llu completed=%zu "
                          "misses=%zu active=%zu energy=%.1f",
                          to_ms(next_window), r.accepted - window_base.accepted,
                          r.rejected - window_base.rejected,
                          static_cast<unsigned long long>(shed - window_base.shed),
                          r.completed - window_base.completed, r.deadline_misses - window_base.misses,
                          engine.active_count(), r.total_energy - window_base.energy);
            window_out << line;
            if (config.sim.sink != nullptr) {
                // Ring health: events currently retained / lost to
                // wraparound since the run began (cumulative — a growing
                // second number means the ring is undersized).
                std::snprintf(line, sizeof line, " ring=%llu/%llu",
                              static_cast<unsigned long long>(config.sim.sink->occupancy()),
                              static_cast<unsigned long long>(config.sim.sink->dropped()));
                window_out << line;
            }
            std::snprintf(line, sizeof line, " p99=%.0fus",
                          board.latency.quantile_us(0.99));
            window_out << line;
            const std::size_t predictions =
                online != nullptr ? online->type_predictions() : 0;
            const std::size_t hits = online != nullptr ? online->type_hits() : 0;
            if (online != nullptr) {
                // Per-window predictor hit rate; a window with no scored
                // predictions (e.g. no arrivals) reports n/a, not 0%.
                const std::size_t scored = predictions - window_base.predictions;
                if (scored > 0) {
                    std::snprintf(line, sizeof line, " phit=%.3f",
                                  static_cast<double>(hits - window_base.hits) /
                                      static_cast<double>(scored));
                    window_out << line;
                } else {
                    window_out << " phit=n/a";
                }
            }
            window_out << '\n';
            window_base = {r.accepted, r.rejected, r.completed, r.deadline_misses, shed,
                           r.total_energy, predictions, hits};
            next_window += config.window;
            ++windows_emitted;
            publish_telemetry();
        }
    };

    /// One backlog flush.  Batching off (batch_window < 0): decide the
    /// front request alone, exactly the pre-batching loop.  Batching on:
    /// greedily extend the group with further queued requests whose wakes
    /// fall within batch_window of the front's AND satisfy `eligible` (the
    /// caller's flush limit — next arrival / fault-chunk boundary), then
    /// decide the whole group at the last member's wake in a single
    /// decide_batch activation.  Grouping is derived afresh at flush time
    /// from the backlog, so checkpoints need no extra state.
    std::vector<StreamArrival> group;
    const auto flush_front = [&](auto&& eligible) {
        // RMWP_LINT_ALLOW(R1): host-scope admission-latency metric; never feeds sim state
        const auto begun = std::chrono::steady_clock::now();
        if (config.batch_window < 0) {
            const PendingArrival pending = backlog.front();
            backlog.pop_front();
            engine.stream_arrival(pending.request, pending.uid, pending.wake);
        } else {
            group.clear();
            const Time window_end = backlog.front().wake + config.batch_window;
            Time wake = backlog.front().wake;
            do {
                const PendingArrival& front = backlog.front();
                wake = front.wake;
                group.push_back({front.request, front.uid});
                backlog.pop_front();
            } while (!backlog.empty() && backlog.front().wake <= window_end &&
                     eligible(backlog.front().wake));
            engine.stream_arrival_batch(group, wake);
        }
        // RMWP_LINT_ALLOW(R1): host-scope admission-latency metric; never feeds sim state
        const auto ended = std::chrono::steady_clock::now();
        board.latency.record(
            std::chrono::duration<double, std::micro>(ended - begun).count());
        publish_engine_state();
        emit_windows();
    };

    const auto chunk_end = [&] {
        return static_cast<Time>(chunk_index + 1) * config.fault_chunk;
    };
    const auto switch_chunk = [&] {
        const Time boundary = chunk_end();
        engine.drain_through(boundary);
        ++chunk_index;
        chunk = make_fault_chunk(platform, config, chunk_index);
        engine.set_fault_schedule(&*chunk, boundary, /*include_events_at_from=*/true);
    };

    /// Process queued decisions and fault-chunk boundaries in time order up
    /// to (strictly before) the next arrival at `t`.
    const auto advance_to = [&](Time t) {
        while (true) {
            const Time wake = backlog.empty() ? kNever : backlog.front().wake;
            const Time boundary = faults_on ? chunk_end() : kNever;
            if (wake < t && wake <= boundary) {
                flush_front([&](Time w) { return w < t && w <= boundary; });
            } else if (faults_on && boundary <= t) {
                switch_chunk();
            } else {
                break;
            }
        }
    };

    const auto write_checkpoint = [&] {
        const std::string tmp = config.checkpoint_path + ".tmp";
        {
            std::ofstream os(tmp);
            if (!os)
                throw std::runtime_error("serve: cannot write checkpoint: " + tmp);
            os << "RMWP-SERVE-CHECKPOINT 2\n";
            os << "digest " << digest << '\n';
            os << consumed << ' ' << shed << ' ' << chunk_index << '\n' << decider_free << '\n';
            const SourceCursor cursor = source.cursor();
            os << cursor.seq << ' ' << cursor.aux << '\n';
            os << backlog.size() << '\n';
            for (const PendingArrival& pending : backlog)
                os << pending.uid << ' ' << pending.request.type << ' ' << pending.request.arrival
                   << ' ' << pending.request.relative_deadline << ' ' << pending.wake << '\n';
            engine.save_stream(os);
            os << "predictor " << (online != nullptr ? "online" : "none") << '\n';
            if (online != nullptr) online->save(os);
            os.flush();
            if (!os) throw std::runtime_error("serve: checkpoint write failed: " + tmp);
        }
        if (std::rename(tmp.c_str(), config.checkpoint_path.c_str()) != 0)
            throw std::runtime_error("serve: cannot move checkpoint into place: " +
                                     config.checkpoint_path);
    };

    // --- main loop ---
    // RMWP_LINT_ALLOW(R1): wall_seconds reporting only, excluded from determinism checks
    const auto wall_begin = std::chrono::steady_clock::now();
    ServeResult out;
    bool stopped_by_signal = false;

    while (true) {
        if (g_stop_requested.load(std::memory_order_relaxed) != 0) {
            stopped_by_signal = true;
            break;
        }
        if (violation_flagged.load(std::memory_order_relaxed)) break;
        if (config.max_arrivals != 0 && consumed >= config.max_arrivals) break;

        const std::optional<Request> request = source.next();
        if (!request.has_value()) break;
        if (config.max_sim_time > 0 && request->arrival > config.max_sim_time) break;

        advance_to(request->arrival);

        const TaskUid uid = consumed;
        ++consumed;
        if (config.max_pending != 0 && backlog.size() >= config.max_pending) {
            engine.stream_shed(*request, uid);
            ++shed;
            board.shed.store(shed, std::memory_order_relaxed);
        } else {
            // Deterministic admission decider in simulation time: one
            // request at a time, `decision_cost` each.  cost = 0 degrades
            // to wake == arrival, i.e. exactly the batch protocol.
            const Time wake = std::max(decider_free, request->arrival) + config.decision_cost;
            decider_free = wake;
            backlog.push_back({*request, uid, wake});
        }
        board.arrivals.store(consumed, std::memory_order_relaxed);
        board.parse_errors.store(source.parse_errors(), std::memory_order_relaxed);
        publish_engine_state();
        // Refresh the telemetry snapshot every 256 consumed arrivals: a
        // registry snapshot copies every counter, too dear per arrival and
        // plenty fresh for a scrape endpoint (windows also refresh it).
        if (telemetry.has_value() && consumed % 256 == 0) publish_telemetry();

        if (config.chaos_fake_miss_at != 0 && consumed == config.chaos_fake_miss_at) {
            chaos_extra_misses = 1;
            publish_engine_state();
        }

        if (checkpointing && consumed % config.checkpoint_every == 0) {
            write_checkpoint();
            ++out.checkpoints_written;
        }
    }

    // --- graceful drain: decide everything still queued, run to quiescence ---
    while (!backlog.empty()) {
        if (faults_on && chunk_end() <= backlog.front().wake) {
            switch_chunk();
        } else {
            flush_front([&](Time w) { return !faults_on || w < chunk_end(); });
        }
    }
    out.result = engine.finish_stream();
    publish_engine_state();
    publish_telemetry();

    if (config.monitor) {
        monitor.check_now();
        monitor.stop();
    }
    emit_windows();

    out.arrivals = consumed;
    out.shed = shed;
    out.parse_errors = source.parse_errors();
    out.monitor_checks = monitor.checks();
    out.windows_emitted = windows_emitted;
    out.stopped_by_signal = stopped_by_signal;
    // RMWP_LINT_ALLOW(R1): wall_seconds reporting only, excluded from determinism checks
    out.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                     wall_begin)
                           .count();
    out.latency_p50_us = board.latency.quantile_us(0.50);
    out.latency_p90_us = board.latency.quantile_us(0.90);
    out.latency_p99_us = board.latency.quantile_us(0.99);
    out.latency_p999_us = board.latency.quantile_us(0.999);
    if (config.sim.sink != nullptr) {
        out.ring_occupancy = config.sim.sink->occupancy();
        out.ring_dropped = config.sim.sink->dropped();
    }
    if (online != nullptr) {
        out.predictor_predictions = online->type_predictions();
        out.predictor_hits = online->type_hits();
    }
    if (config.stage_stats_out != nullptr) *config.stage_stats_out = stage_stats;
    if (telemetry.has_value()) {
        // Leave the endpoint answering through the drain (a scrape during
        // SIGTERM shutdown must still see well-formed metrics); stop only
        // once the final state is published.
        out.telemetry_requests = telemetry->requests_served();
        telemetry->stop();
    }
    if (const auto violation = monitor.violation(); violation.has_value()) {
        out.exit_code = 3;
        out.violation = violation->to_string();
    }
    return out;
}

} // namespace rmwp
