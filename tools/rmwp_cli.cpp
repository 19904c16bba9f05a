// rmwp_cli — command-line front end for the library.
//
//   rmwp_cli generate-catalog --out catalog.csv [--seed 42] [--types 100]
//                             [--cpus 5] [--gpus 1]
//   rmwp_cli generate-trace   --catalog catalog.csv --out trace.csv
//                             [--seed 42] [--length 500] [--group VT|LT]
//                             [--ia-mean 6] [--ia-stddev 2]
//   rmwp_cli run              --catalog catalog.csv --trace trace.csv
//                             [--cpus 5] [--gpus 1]
//                             [--rm heuristic|exact|milp|baseline]
//                             [--predictor off|oracle|noisy|online]
//                             [--type-accuracy 1.0] [--time-nrmse 0.0]
//                             [--overhead 0.0] [--lookahead 1] [--seed 42]
//                             [--exec-factor 1.0]   (actual work in
//                                                    [factor, 1] x WCET)
//                             [--activation-period 0] (0 = per arrival)
//                             [--fault-outage-rate 0]     (outages per core
//                                                          per 1000 ms)
//                             [--fault-outage-duration 40]
//                             [--fault-permanent-prob 0]  (per core)
//                             [--fault-throttle-rate 0]   (throttles per core
//                                                          per 1000 ms)
//                             [--fault-throttle-duration 60]
//                             [--fault-throttle-factor 2] (WCET multiplier)
//                             [--fault-min-online 1]
//                             [--fault-seed <seed>]       (defaults to --seed)
//                             [--reserve r:period:offset:duration[:energy][;...]]
//                                                      (design-time critical
//                                                       reservations on
//                                                       resource r; reserved
//                                                       windows preempt
//                                                       adaptive tasks)
//                             [--trace-out out.json]  (Chrome trace_event JSON;
//                                                      open in chrome://tracing
//                                                      or ui.perfetto.dev)
//                             [--events-out out.jsonl] (flat JSONL event log)
//                             [--stats 1]              (print the observability
//                                                       metrics after the run)
//
//   rmwp_cli analyze          --trace trace.csv [--catalog catalog.csv]
//
//   rmwp_cli serve            --catalog catalog.csv
//                             [--trace trace.csv|-]   (CSV file, or "-" for
//                                                      stdin; omitted = the
//                                                      endless synthetic
//                                                      generator)
//                             [--arrivals N]    (stop after N consumed; 0 =
//                                                source-driven / endless)
//                             [--duration T]    (stop at the first arrival
//                                                past T sim-ms)
//                             [--source-seed S] [--ia-mean 6] [--ia-stddev 2]
//                             [--group VT|LT]   (synthetic source knobs)
//                             [--rm ...] [--predictor off|online]
//                             [--overhead 0] [--lookahead 1] [--seed 42]
//                             [--exec-factor 1.0]
//                             [--decision-cost 0]  (sim-time per admission
//                                                   decision; the decider
//                                                   serialises requests)
//                             [--max-pending 0]    (backlog bound; arrivals
//                                                   beyond it are shed; 0 =
//                                                   unbounded)
//                             [--batch-window T]   (coalesce queued requests
//                                                   whose wakes fall within T
//                                                   sim-ms into one batched
//                                                   decision; negative = off)
//                             [--window T]         (one stats line per T
//                                                   sim-ms window, to stderr)
//                             [--checkpoint path] [--checkpoint-every N]
//                             [--restore path]     (resume from a snapshot)
//                             [--fault-outage-rate 0] [--fault-outage-duration 40]
//                             [--fault-throttle-rate 0] [--fault-throttle-duration 60]
//                             [--fault-throttle-factor 2] [--fault-min-online 1]
//                             [--fault-seed <seed>] [--fault-chunk 10000]
//                             (permanent faults are unsupported: the horizon
//                              is unbounded)
//                             [--monitor 1] [--monitor-period 0.5]
//                             [--rss-budget-mb 0] [--active-budget 0]
//                             [--latency-budget-us 0] [--expect-no-misses auto]
//                             [--stats-json out.json] [--events-out out.jsonl]
//                             [--telemetry-port P] (HTTP GET /metrics and
//                                                   /healthz on 127.0.0.1:P;
//                                                   0 = ephemeral port,
//                                                   printed to stderr)
//                             [--trace-stream DIR] (durable JSONL event
//                                                   shards, size-rotated,
//                                                   with an index.json)
//                             Exit: 0 clean drain (incl. SIGTERM/SIGINT),
//                             3 invariant violation.
//
//   rmwp_cli experiment       [--group VT|LT] [--traces 50] [--requests 500]
//                             [--seed 42]
//                             [--rm heuristic|exact|milp|baseline|all]
//                             [--predictor off|oracle|noisy|online]
//                             [--jobs N]   (worker threads; 0 = RMWP_JOBS or
//                                           the hardware concurrency.
//                                           Results are bit-identical for
//                                           every value — see DESIGN.md §9)
//                             [--trace-dir DIR] (per-trace Chrome traces; the
//                                                file bytes are identical for
//                                                every --jobs value)
//                             [--stats 1]       (print merged observability
//                                                counters per RM)
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime failures.
#include <algorithm>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <fstream>

#include "core/baseline_rm.hpp"
#include <sstream>

#include "core/reservation.hpp"
#include "exp/parallel_runner.hpp"
#include "fault/fault.hpp"
#include "obs/export.hpp"
#include "obs/trace_sink.hpp"
#include "obs/trace_stream.hpp"
#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "core/milp_rm.hpp"
#include "predict/predictor.hpp"
#include "serve/serve.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/trace_generator.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace rmwp;

/// A millisecond value from the command line: finite and inside the tick
/// range, or a runtime_error naming `what`.
double parse_ms(const std::string& text, const std::string& what) {
    const double value = std::stod(text);
    if (!representable_ms(value))
        throw std::runtime_error(what + " must be a finite number of milliseconds below ~9.2e12");
    return value;
}

/// --key value argument map with typed accessors and strict checking.
class Args {
public:
    Args(int argc, char** argv, int first) {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0 || i + 1 >= argc)
                throw std::runtime_error("expected --key value pairs, got: " + key);
            values_[key.substr(2)] = argv[++i];
        }
    }

    [[nodiscard]] std::optional<std::string> get(const std::string& key) {
        const auto it = values_.find(key);
        if (it == values_.end()) return std::nullopt;
        consumed_.insert(key);
        return it->second;
    }

    [[nodiscard]] std::string require(const std::string& key) {
        if (auto value = get(key)) return *value;
        throw std::runtime_error("missing required option --" + key);
    }

    [[nodiscard]] double number(const std::string& key, double fallback) {
        if (auto value = get(key)) return std::stod(*value);
        return fallback;
    }

    /// A millisecond-valued option, checked by parse_ms.
    [[nodiscard]] double milliseconds(const std::string& key, double fallback) {
        if (auto value = get(key)) return parse_ms(*value, "--" + key);
        return fallback;
    }

    /// A millisecond-valued option as ticks: instants round to the nearest
    /// tick, durations up.
    [[nodiscard]] Time ticks(const std::string& key, Time fallback,
                             TickRounding rounding = TickRounding::nearest) {
        if (auto value = get(key)) return to_ticks(parse_ms(*value, "--" + key), rounding);
        return fallback;
    }

    [[nodiscard]] std::uint64_t integer(const std::string& key, std::uint64_t fallback) {
        if (auto value = get(key)) return std::stoull(*value);
        return fallback;
    }

    void reject_unknown() const {
        for (const auto& [key, value] : values_)
            if (!consumed_.contains(key))
                throw std::runtime_error("unknown option --" + key);
    }

private:
    std::map<std::string, std::string> values_;
    std::set<std::string> consumed_;
};

Platform make_cli_platform(Args& args) {
    const auto cpus = static_cast<std::size_t>(args.integer("cpus", 5));
    const auto gpus = static_cast<std::size_t>(args.integer("gpus", 1));
    PlatformBuilder builder;
    for (std::size_t i = 1; i <= cpus; ++i) builder.add_cpu("CPU" + std::to_string(i));
    for (std::size_t i = 1; i <= gpus; ++i)
        builder.add_gpu(gpus == 1 ? "GPU" : "GPU" + std::to_string(i));
    return builder.build();
}

int cmd_generate_catalog(Args& args) {
    const std::string out = args.require("out");
    const Platform platform = make_cli_platform(args);
    CatalogParams params;
    params.type_count = static_cast<std::size_t>(args.integer("types", 100));
    Rng rng(args.integer("seed", 42));
    args.reject_unknown();

    const Catalog catalog = generate_catalog(platform, params, rng);
    write_catalog_csv_file(out, catalog);
    std::cout << "wrote " << catalog.size() << " task types for " << platform.size()
              << " resources to " << out << '\n';
    return 0;
}

int cmd_generate_trace(Args& args) {
    const std::string catalog_path = args.require("catalog");
    const std::string out = args.require("out");
    TraceGenParams params;
    params.length = static_cast<std::size_t>(args.integer("length", 500));
    params.interarrival_mean = args.milliseconds("ia-mean", params.interarrival_mean);
    params.interarrival_stddev = args.milliseconds("ia-stddev", params.interarrival_stddev);
    if (auto group = args.get("group")) {
        if (*group == "VT") params.group = DeadlineGroup::very_tight;
        else if (*group == "LT") params.group = DeadlineGroup::less_tight;
        else throw std::runtime_error("--group must be VT or LT");
    }
    Rng rng(args.integer("seed", 42));
    args.reject_unknown();

    const Catalog catalog = read_catalog_csv_file(catalog_path);
    const Trace trace = generate_trace(catalog, params, rng);
    write_trace_csv_file(out, trace);
    std::cout << "wrote " << trace.size() << " requests (" << to_string(params.group)
              << ", mean interarrival " << format_fixed(trace.mean_interarrival() / kTicksPerMs, 2)
              << ") to "
              << out << '\n';
    return 0;
}

/// Fail fast when observability output is requested from a build compiled
/// with -DRMWP_OBS=OFF: the simulator would record nothing and the files
/// would be silently empty.
void require_obs_build() {
#ifndef RMWP_OBS
    throw std::runtime_error(
        "this binary was built with -DRMWP_OBS=OFF; rebuild with RMWP_OBS=ON to use "
        "--trace-out/--events-out/--stats/--trace-dir");
#endif
}

void print_obs_metrics(const obs::MetricsSnapshot& snapshot) {
    Table table({"metric", "value"});
    for (const auto& counter : snapshot.counters)
        if (counter.value > 0) table.row().cell(counter.name).cell(counter.value);
    for (const auto& gauge : snapshot.gauges)
        if (gauge.value != 0.0) table.row().cell(gauge.name).cell(gauge.value, 1);
    for (const auto& histogram : snapshot.histograms) {
        if (histogram.count == 0) continue;
        table.row().cell(histogram.name).cell(
            std::to_string(histogram.count) + " samples, mean " +
            format_fixed(histogram.sum / static_cast<double>(histogram.count), 3));
    }
    table.print(std::cout);
}

/// Parse --reserve "resource:period:offset:duration[:energy]" entries
/// (semicolon-separated) into the design-time critical reservations of
/// Sec 2.  Reserved windows run with absolute priority, so they are also
/// the way to make planned preemptions visible in --trace-out artefacts.
ReservationTable parse_reservations(const std::optional<std::string>& spec,
                                    const Platform& platform) {
    if (!spec) return {};
    std::vector<CriticalTask> tasks;
    std::istringstream list(*spec);
    std::string entry;
    while (std::getline(list, entry, ';')) {
        if (entry.empty()) continue;
        std::vector<std::string> parts;
        std::istringstream fields(entry);
        std::string field;
        while (std::getline(fields, field, ':')) parts.push_back(field);
        if (parts.size() < 4 || parts.size() > 5)
            throw std::runtime_error(
                "--reserve entries must be resource:period:offset:duration[:energy], got \"" +
                entry + "\"");
        CriticalTask task;
        task.name = "critical" + std::to_string(tasks.size());
        try {
            task.resource = static_cast<ResourceId>(std::stoull(parts[0]));
            task.period = to_ticks(parse_ms(parts[1], "--reserve period"), TickRounding::nearest);
            task.offset = to_ticks(parse_ms(parts[2], "--reserve offset"), TickRounding::nearest);
            task.duration = to_ticks(parse_ms(parts[3], "--reserve duration"), TickRounding::up);
            if (parts.size() == 5) task.energy_per_instance = std::stod(parts[4]);
        } catch (const std::logic_error&) {
            throw std::runtime_error("--reserve entry has an unparseable field: \"" + entry +
                                     "\"");
        }
        if (task.resource >= platform.size())
            throw std::runtime_error("--reserve resource " + std::to_string(task.resource) +
                                     " does not exist (platform has " +
                                     std::to_string(platform.size()) + " resources)");
        tasks.push_back(std::move(task));
    }
    return ReservationTable(std::move(tasks));
}

int cmd_run(Args& args) {
    const std::string catalog_path = args.require("catalog");
    const std::string trace_path = args.require("trace");
    const Platform platform = make_cli_platform(args);

    const std::string rm_name = args.get("rm").value_or("heuristic");
    std::unique_ptr<ResourceManager> rm;
    if (rm_name == "heuristic") rm = std::make_unique<HeuristicRM>();
    else if (rm_name == "exact") rm = std::make_unique<ExactRM>();
    else if (rm_name == "milp") rm = std::make_unique<MilpRM>();
    else if (rm_name == "baseline") rm = std::make_unique<BaselineRM>();
    else throw std::runtime_error("--rm must be heuristic, exact, milp, or baseline");

    PredictorSpec spec;
    const std::string predictor_name = args.get("predictor").value_or("off");
    if (predictor_name == "off") spec.kind = PredictorSpec::Kind::none;
    else if (predictor_name == "oracle") spec.kind = PredictorSpec::Kind::oracle;
    else if (predictor_name == "noisy") spec.kind = PredictorSpec::Kind::noisy;
    else if (predictor_name == "online") spec.kind = PredictorSpec::Kind::online;
    else throw std::runtime_error("--predictor must be off, oracle, noisy, or online");
    spec.type_accuracy = args.number("type-accuracy", 1.0);
    spec.time_nrmse = args.number("time-nrmse", 0.0);
    spec.overhead = args.ticks("overhead", 0, TickRounding::up);
    spec.lookahead = static_cast<std::size_t>(args.integer("lookahead", 1));
    const std::uint64_t seed = args.integer("seed", 42);
    const double exec_factor = args.number("exec-factor", 1.0);
    const Time activation_period = args.ticks("activation-period", 0);

    FaultParams fault;
    fault.outage_rate = args.number("fault-outage-rate", 0.0);
    fault.outage_duration_mean =
        args.milliseconds("fault-outage-duration", fault.outage_duration_mean);
    fault.permanent_prob = args.number("fault-permanent-prob", 0.0);
    fault.throttle_rate = args.number("fault-throttle-rate", 0.0);
    fault.throttle_duration_mean =
        args.milliseconds("fault-throttle-duration", fault.throttle_duration_mean);
    if (auto factor = args.get("fault-throttle-factor")) {
        fault.throttle_factor_min = fault.throttle_factor_max = std::stod(*factor);
    }
    fault.min_online = static_cast<std::size_t>(args.integer("fault-min-online", 1));
    const std::uint64_t fault_seed = args.integer("fault-seed", seed);

    const ReservationTable reservations = parse_reservations(args.get("reserve"), platform);
    const std::optional<std::string> trace_out = args.get("trace-out");
    const std::optional<std::string> events_out = args.get("events-out");
    const bool stats = args.integer("stats", 0) != 0;
    args.reject_unknown();

    if (fault.outage_rate < 0.0 || fault.permanent_prob < 0.0 || fault.throttle_rate < 0.0 ||
        fault.outage_duration_mean <= 0.0 || fault.throttle_duration_mean <= 0.0)
        throw std::runtime_error("fault rates must be >= 0 and durations > 0");
    if (fault.permanent_prob > 1.0)
        throw std::runtime_error("--fault-permanent-prob must be in [0, 1]");
    if (fault.throttle_factor_min < 1.0)
        throw std::runtime_error("--fault-throttle-factor must be >= 1 (it multiplies WCET)");

    const Catalog catalog = read_catalog_csv_file(catalog_path);
    if (catalog.resource_count() != platform.size())
        throw std::runtime_error("catalog resource count does not match --cpus/--gpus");
    const Trace trace = read_trace_csv_file(trace_path);
    validate_trace(trace, catalog);

    const std::unique_ptr<Predictor> predictor = make_predictor(spec, catalog, Rng(seed));
    SimOptions options;
    options.lookahead = spec.lookahead;
    options.execution_time_factor_min = exec_factor;
    options.execution_seed = seed;
    options.activation_period = activation_period;

    FaultSchedule faults;
    if (fault.any()) {
        Time horizon = 0;
        for (const Request& request : trace)
            horizon = std::max(horizon, request.absolute_deadline());
        Rng fault_rng(fault_seed);
        faults = generate_fault_schedule(platform, fault, horizon, fault_rng);
        options.fault_schedule = &faults;
    }

    obs::TraceSink sink;
    if (trace_out || events_out || stats) {
        require_obs_build();
        options.sink = &sink;
    }

    const TraceResult result =
        reservations.empty()
            ? simulate_trace(platform, catalog, trace, *rm, *predictor, options)
            : simulate_trace(platform, catalog, trace, *rm, *predictor, reservations, options);

    Table table({"metric", "value"});
    table.row().cell("requests").cell(result.requests);
    table.row().cell("accepted").cell(result.accepted);
    table.row().cell("rejected").cell(result.rejected);
    table.row().cell("rejection %").cell(result.rejection_percent());
    table.row().cell("aborted (overhead)").cell(result.aborted);
    table.row().cell("energy (J)").cell(result.total_energy, 1);
    table.row().cell("normalized energy").cell(result.normalized_energy(), 4);
    table.row().cell("migrations").cell(result.migrations);
    table.row().cell("migration energy (J)").cell(result.migration_energy, 1);
    table.row().cell("ms per decision").cell(
        result.activations > 0
            ? 1000.0 * result.decision_seconds / static_cast<double>(result.activations)
            : 0.0,
        4);
    if (!reservations.empty())
        table.row().cell("critical energy (J)").cell(result.critical_energy, 1);
    if (fault.any() || !faults.empty()) {
        table.row().cell("fault events injected").cell(faults.size());
        table.row().cell("resource outages").cell(result.resource_outages);
        table.row().cell("throttle events").cell(result.throttle_events);
        table.row().cell("rescue activations").cell(result.rescue_activations);
        table.row().cell("rescued tasks").cell(result.rescued);
        table.row().cell("fault-aborted tasks").cell(result.fault_aborted);
        table.row().cell("rescue migrations").cell(result.rescue_migrations);
        table.row().cell("degraded energy (J)").cell(result.degraded_energy, 1);
        table.row().cell("ms per rescue").cell(
            result.rescue_activations > 0 ? 1000.0 * result.rescue_decision_seconds /
                                                static_cast<double>(result.rescue_activations)
                                          : 0.0,
            4);
    }
    table.print(std::cout);

    if (trace_out || events_out) {
        obs::ExportOptions export_options;
        export_options.resource_names.reserve(platform.size());
        for (ResourceId i = 0; i < platform.size(); ++i)
            export_options.resource_names.push_back(platform.resource(i).name());
        const std::vector<obs::TraceEvent> events = sink.events();
        if (trace_out) {
            std::ofstream out(*trace_out);
            if (!out) throw std::runtime_error("cannot open " + *trace_out);
            obs::write_chrome_trace(out, events, export_options);
            std::cout << "wrote Chrome trace (" << events.size() << " events, "
                      << sink.dropped() << " dropped) to " << *trace_out << '\n';
        }
        if (events_out) {
            std::ofstream out(*events_out);
            if (!out) throw std::runtime_error("cannot open " + *events_out);
            obs::write_events_jsonl(out, events, export_options);
            std::cout << "wrote " << events.size() << " JSONL events to " << *events_out
                      << '\n';
        }
    }
    if (stats) print_obs_metrics(result.obs_metrics);
    return 0;
}

int cmd_serve(Args& args) {
    const std::string catalog_path = args.require("catalog");
    const Platform platform = make_cli_platform(args);

    const std::string rm_name = args.get("rm").value_or("heuristic");
    std::unique_ptr<ResourceManager> rm;
    if (rm_name == "heuristic") rm = std::make_unique<HeuristicRM>();
    else if (rm_name == "exact") rm = std::make_unique<ExactRM>();
    else if (rm_name == "milp") rm = std::make_unique<MilpRM>();
    else if (rm_name == "baseline") rm = std::make_unique<BaselineRM>();
    else throw std::runtime_error("--rm must be heuristic, exact, milp, or baseline");

    PredictorSpec spec;
    const std::string predictor_name = args.get("predictor").value_or("off");
    if (predictor_name == "off") spec.kind = PredictorSpec::Kind::none;
    else if (predictor_name == "online") spec.kind = PredictorSpec::Kind::online;
    else
        throw std::runtime_error("serve supports --predictor off or online (oracle and noisy "
                                 "need the whole trace up front)");
    spec.overhead = args.ticks("overhead", 0, TickRounding::up);
    spec.lookahead = static_cast<std::size_t>(args.integer("lookahead", 1));
    const std::uint64_t seed = args.integer("seed", 42);

    const Catalog catalog = read_catalog_csv_file(catalog_path);
    if (catalog.resource_count() != platform.size())
        throw std::runtime_error("catalog resource count does not match --cpus/--gpus");

    // --- arrival source ---
    const std::optional<std::string> trace_path = args.get("trace");
    std::unique_ptr<ArrivalSource> source;
    std::string source_digest;
    if (trace_path) {
        if (*trace_path == "-") source = std::make_unique<CsvPipeSource>(std::cin);
        else source = std::make_unique<CsvFileSource>(*trace_path);
        source_digest = "src=trace:" + *trace_path;
    } else {
        SyntheticSourceParams sp;
        sp.seed = args.integer("source-seed", seed);
        sp.interarrival_mean = args.milliseconds("ia-mean", sp.interarrival_mean);
        sp.interarrival_stddev = args.milliseconds("ia-stddev", sp.interarrival_stddev);
        if (auto group = args.get("group")) {
            if (*group == "VT") sp.group = DeadlineGroup::very_tight;
            else if (*group == "LT") sp.group = DeadlineGroup::less_tight;
            else throw std::runtime_error("--group must be VT or LT");
        }
        source = std::make_unique<SyntheticArrivalSource>(catalog, sp);
        source_digest = "src=soak:" + std::to_string(sp.seed) + ":" +
                        std::to_string(sp.interarrival_mean) + ":" +
                        std::to_string(sp.interarrival_stddev) + ":" + to_string(sp.group);
    }

    ServeConfig config;
    config.sim.lookahead = spec.lookahead;
    config.sim.execution_time_factor_min = args.number("exec-factor", 1.0);
    config.sim.execution_seed = seed;
    config.decision_cost = args.ticks("decision-cost", 0, TickRounding::up);
    config.max_pending = static_cast<std::size_t>(args.integer("max-pending", 0));
    config.batch_window = args.ticks("batch-window", -1);
    config.max_arrivals = args.integer("arrivals", 0);
    config.max_sim_time = args.ticks("duration", 0);
    config.config_digest = source_digest;

    config.faults.outage_rate = args.number("fault-outage-rate", 0.0);
    config.faults.outage_duration_mean =
        args.milliseconds("fault-outage-duration", config.faults.outage_duration_mean);
    config.faults.throttle_rate = args.number("fault-throttle-rate", 0.0);
    config.faults.throttle_duration_mean =
        args.milliseconds("fault-throttle-duration", config.faults.throttle_duration_mean);
    if (auto factor = args.get("fault-throttle-factor")) {
        config.faults.throttle_factor_min = config.faults.throttle_factor_max =
            std::stod(*factor);
    }
    config.faults.min_online = static_cast<std::size_t>(args.integer("fault-min-online", 1));
    config.fault_seed = args.integer("fault-seed", seed);
    config.fault_chunk = args.ticks("fault-chunk", config.fault_chunk);
    if (config.faults.outage_rate < 0.0 || config.faults.throttle_rate < 0.0 ||
        config.faults.outage_duration_mean <= 0.0 || config.faults.throttle_duration_mean <= 0.0)
        throw std::runtime_error("fault rates must be >= 0 and durations > 0");
    if (config.faults.throttle_factor_min < 1.0)
        throw std::runtime_error("--fault-throttle-factor must be >= 1 (it multiplies WCET)");

    config.checkpoint_path = args.get("checkpoint").value_or("");
    config.checkpoint_every = args.integer("checkpoint-every", 0);
    config.restore_path = args.get("restore").value_or("");
    if (!config.checkpoint_path.empty() && config.checkpoint_every == 0)
        config.checkpoint_every = 100000;

    config.monitor = args.integer("monitor", 1) != 0;
    config.monitor_period_seconds = args.number("monitor-period", 0.5);
    config.limits.rss_budget_kb = args.integer("rss-budget-mb", 0) * 1024;
    config.limits.active_budget = args.integer("active-budget", 0);
    config.limits.latency_p99_budget_us = args.number("latency-budget-us", 0.0);
    config.limits.expect_no_misses =
        args.integer("expect-no-misses", config.faults.any() ? 0 : 1) != 0;
    config.window = args.ticks("window", 0);
    config.chaos_fake_miss_at = args.integer("chaos-fake-miss-at", 0);

    const std::optional<std::string> stats_json = args.get("stats-json");
    const std::optional<std::string> events_out = args.get("events-out");
    const std::int64_t telemetry_port = args.integer("telemetry-port", -1);
    if (telemetry_port > 65535)
        throw std::runtime_error("--telemetry-port must be in [0, 65535]");
    config.telemetry_port = static_cast<int>(telemetry_port);
    const std::optional<std::string> trace_stream = args.get("trace-stream");
    args.reject_unknown();

    obs::TraceSink sink;
    std::optional<obs::TraceStreamWriter> stream;
    // Telemetry scrapes the sink's metrics registry, so any of the three
    // observability outputs attaches the sink to the engine.
    if (events_out || trace_stream || config.telemetry_port >= 0) {
        require_obs_build();
        config.sim.sink = &sink;
        config.limits.ring_capacity = sink.capacity();
    }
    if (trace_stream) {
        stream.emplace(*trace_stream, obs::TraceStreamOptions{});
        sink.set_stream(&*stream);
    }

    const std::unique_ptr<Predictor> predictor = make_predictor(spec, catalog, Rng(seed));

    install_serve_signal_handlers();
    const ServeResult serve =
        run_serve(platform, catalog, *rm, *predictor, nullptr, *source, config);
    if (stream.has_value()) {
        sink.set_stream(nullptr);
        stream->finish();
    }
    const TraceResult& result = serve.result;

    Table table({"metric", "value"});
    table.row().cell("arrivals consumed").cell(serve.arrivals);
    table.row().cell("accepted").cell(result.accepted);
    table.row().cell("rejected").cell(result.rejected);
    table.row().cell("shed (overload)").cell(serve.shed);
    table.row().cell("completed").cell(result.completed);
    table.row().cell("deadline misses").cell(result.deadline_misses);
    table.row().cell("parse errors skipped").cell(serve.parse_errors);
    table.row().cell("energy (J)").cell(result.total_energy, 1);
    table.row().cell("normalized energy").cell(result.normalized_energy(), 4);
    table.row().cell("decisions/sec (wall)").cell(
        serve.wall_seconds > 0.0
            ? static_cast<double>(result.requests) / serve.wall_seconds
            : 0.0,
        0);
    table.row().cell("latency p50/p99 (us)").cell(
        format_fixed(serve.latency_p50_us, 0) + " / " + format_fixed(serve.latency_p99_us, 0));
    if (config.sim.sink != nullptr)
        table.row().cell("ring occupancy/dropped").cell(
            std::to_string(serve.ring_occupancy) + " / " + std::to_string(serve.ring_dropped));
    if (config.telemetry_port >= 0)
        table.row().cell("telemetry requests").cell(serve.telemetry_requests);
    if (stream.has_value())
        table.row().cell("trace shards").cell(stream->shard_count());
    if (serve.predictor_predictions > 0)
        table.row().cell("predictor hit rate").cell(
            static_cast<double>(serve.predictor_hits) /
                static_cast<double>(serve.predictor_predictions),
            4);
    table.row().cell("monitor checks").cell(serve.monitor_checks);
    table.row().cell("checkpoints written").cell(serve.checkpoints_written);
    if (serve.stopped_by_signal) table.row().cell("stopped by").cell("signal (drained)");
    table.print(std::cout);
    if (serve.exit_code != 0)
        std::cerr << "serve: invariant violation\n" << serve.violation << '\n';

    if (stats_json) {
        std::ofstream out(*stats_json);
        if (!out) throw std::runtime_error("cannot open " + *stats_json);
        out << "{\n"
            << "  \"arrivals\": " << serve.arrivals << ",\n"
            << "  \"accepted\": " << result.accepted << ",\n"
            << "  \"rejected\": " << result.rejected << ",\n"
            << "  \"shed\": " << serve.shed << ",\n"
            << "  \"completed\": " << result.completed << ",\n"
            << "  \"deadline_misses\": " << result.deadline_misses << ",\n"
            << "  \"parse_errors\": " << serve.parse_errors << ",\n"
            << "  \"total_energy\": " << result.total_energy << ",\n"
            << "  \"wall_seconds\": " << serve.wall_seconds << ",\n"
            << "  \"decisions_per_second\": "
            << (serve.wall_seconds > 0.0
                    ? static_cast<double>(result.requests) / serve.wall_seconds
                    : 0.0)
            << ",\n"
            << "  \"latency_p50_us\": " << serve.latency_p50_us << ",\n"
            << "  \"latency_p90_us\": " << serve.latency_p90_us << ",\n"
            << "  \"latency_p99_us\": " << serve.latency_p99_us << ",\n"
            << "  \"latency_p999_us\": " << serve.latency_p999_us << ",\n"
            << "  \"ring_occupancy\": " << serve.ring_occupancy << ",\n"
            << "  \"ring_dropped\": " << serve.ring_dropped << ",\n"
            << "  \"telemetry_requests\": " << serve.telemetry_requests << ",\n"
            << "  \"predictor_predictions\": " << serve.predictor_predictions << ",\n"
            << "  \"predictor_hits\": " << serve.predictor_hits << ",\n"
            << "  \"monitor_checks\": " << serve.monitor_checks << ",\n"
            << "  \"checkpoints_written\": " << serve.checkpoints_written << ",\n"
            << "  \"stopped_by_signal\": " << (serve.stopped_by_signal ? "true" : "false")
            << ",\n"
            << "  \"exit_code\": " << serve.exit_code << "\n"
            << "}\n";
        std::cout << "wrote serve stats to " << *stats_json << '\n';
    }
    if (events_out) {
        obs::ExportOptions export_options;
        export_options.resource_names.reserve(platform.size());
        for (ResourceId i = 0; i < platform.size(); ++i)
            export_options.resource_names.push_back(platform.resource(i).name());
        const std::vector<obs::TraceEvent> events = sink.events();
        std::ofstream out(*events_out);
        if (!out) throw std::runtime_error("cannot open " + *events_out);
        obs::write_events_jsonl(out, events, export_options);
        std::cout << "wrote " << events.size() << " JSONL events (" << sink.dropped()
                  << " dropped) to " << *events_out << '\n';
    }
    return serve.exit_code;
}

int cmd_experiment(Args& args) {
    DeadlineGroup group = DeadlineGroup::very_tight;
    if (auto value = args.get("group")) {
        if (*value == "VT") group = DeadlineGroup::very_tight;
        else if (*value == "LT") group = DeadlineGroup::less_tight;
        else throw std::runtime_error("--group must be VT or LT");
    }
    ExperimentConfig config = ExperimentConfig::paper(group, args.integer("seed", 42));
    config.trace_count = static_cast<std::size_t>(args.integer("traces", 50));
    config.trace.length = static_cast<std::size_t>(args.integer("requests", 500));
    const auto jobs = static_cast<std::size_t>(args.integer("jobs", 0));

    std::vector<RmKind> rms;
    const std::string rm_name = args.get("rm").value_or("heuristic");
    if (rm_name == "heuristic") rms = {RmKind::heuristic};
    else if (rm_name == "exact") rms = {RmKind::exact};
    else if (rm_name == "milp") rms = {RmKind::milp};
    else if (rm_name == "baseline") rms = {RmKind::baseline};
    else if (rm_name == "all")
        rms = {RmKind::baseline, RmKind::heuristic, RmKind::exact, RmKind::milp};
    else throw std::runtime_error("--rm must be heuristic, exact, milp, baseline, or all");

    PredictorSpec spec;
    const std::string predictor_name = args.get("predictor").value_or("off");
    if (predictor_name == "off") spec.kind = PredictorSpec::Kind::none;
    else if (predictor_name == "oracle") spec.kind = PredictorSpec::Kind::oracle;
    else if (predictor_name == "noisy") spec.kind = PredictorSpec::Kind::noisy;
    else if (predictor_name == "online") spec.kind = PredictorSpec::Kind::online;
    else throw std::runtime_error("--predictor must be off, oracle, noisy, or online");

    const std::optional<std::string> trace_dir = args.get("trace-dir");
    const bool stats = args.integer("stats", 0) != 0;
    args.reject_unknown();

    std::vector<RunSpec> specs;
    specs.reserve(rms.size());
    for (const RmKind rm : rms) specs.push_back(RunSpec{rm, spec});

    ParallelRunner runner(config, jobs);
    if (trace_dir || stats) {
        require_obs_build();
        ObsOptions obs;
        if (trace_dir) obs.trace_dir = *trace_dir;
        obs.collect_metrics = stats;
        runner.set_obs(std::move(obs));
    }
    std::cout << "experiment: " << to_string(group) << " group, " << config.trace_count
              << " traces x " << config.trace.length << " requests, seed " << config.seed
              << ", jobs " << runner.jobs() << '\n';
    const std::vector<RunOutcome> outcomes = runner.run_all(specs);

    Table table({"RM", "predictor", "rejection %", "95% CI", "normalized energy",
                 "migrations/trace", "ms/decision"});
    for (const RunOutcome& outcome : outcomes) {
        table.row()
            .cell(to_string(outcome.spec.rm))
            .cell(outcome.spec.predictor.label())
            .cell(outcome.mean_rejection_percent())
            .cell("+/- " + format_fixed(outcome.aggregate.rejection_percent.ci_halfwidth(), 2))
            .cell(outcome.mean_normalized_energy(), 4)
            .cell(outcome.aggregate.migrations.mean(), 1)
            .cell(outcome.aggregate.decision_milliseconds_per_activation.mean(), 4);
    }
    table.print(std::cout);

    if (trace_dir)
        std::cout << "per-trace Chrome traces written to " << *trace_dir << '\n';
    if (stats) {
        for (const RunOutcome& outcome : outcomes) {
            obs::MetricsSnapshot merged;
            for (const TraceResult& result : outcome.per_trace) merged.merge(result.obs_metrics);
            std::cout << "\nobservability metrics: " << outcome.spec.label() << '\n';
            print_obs_metrics(merged);
        }
    }
    return 0;
}

int cmd_analyze(Args& args) {
    const std::string trace_path = args.require("trace");
    const std::optional<std::string> catalog_path = args.get("catalog");
    args.reject_unknown();

    const Trace trace = read_trace_csv_file(trace_path);
    RMWP_EXPECT(trace.size() >= 2);

    RunningStats gaps;
    std::map<TaskTypeId, std::size_t> type_histogram;
    for (std::size_t j = 0; j < trace.size(); ++j) {
        if (j > 0)
            gaps.add(to_ms(trace.request(j).arrival - trace.request(j - 1).arrival));
        ++type_histogram[trace.request(j).type];
    }

    Table table({"metric", "value"});
    table.row().cell("requests").cell(trace.size());
    table.row().cell("distinct types").cell(type_histogram.size());
    table.row().cell("span (ms)").cell(to_ms(trace.horizon()), 1);
    table.row().cell("interarrival mean").cell(gaps.mean(), 3);
    table.row().cell("interarrival stddev").cell(gaps.stddev(), 3);
    table.row().cell("interarrival min/max").cell(
        format_fixed(gaps.min(), 2) + " / " + format_fixed(gaps.max(), 2));

    if (catalog_path) {
        const Catalog catalog = read_catalog_csv_file(*catalog_path);
        RunningStats tightness; // deadline / fastest WCET
        double offered_load = 0.0;
        for (const Request& request : trace) {
            const TaskType& type = catalog.type(request.type);
            tightness.add(static_cast<double>(request.relative_deadline) /
                          static_cast<double>(type.min_wcet()));
            offered_load += static_cast<double>(type.min_wcet());
        }
        table.row().cell("deadline / min-WCET mean").cell(tightness.mean(), 2);
        table.row().cell("deadline / min-WCET min").cell(tightness.min(), 2);
        table.row().cell("offered load (best case)").cell(
            format_fixed(offered_load / static_cast<double>(trace.horizon()), 3) +
            " busy resources");
    }
    table.print(std::cout);
    return 0;
}

void usage() {
    std::cerr << "usage: rmwp_cli <generate-catalog|generate-trace|run|serve|analyze|experiment>"
                 " --key value ...\n"
                 "see the header of tools/rmwp_cli.cpp for the full option list\n";
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string command = argv[1];
    try {
        Args args(argc, argv, 2);
        if (command == "generate-catalog") return cmd_generate_catalog(args);
        if (command == "generate-trace") return cmd_generate_trace(args);
        if (command == "run") return cmd_run(args);
        if (command == "serve") return cmd_serve(args);
        if (command == "analyze") return cmd_analyze(args);
        if (command == "experiment") return cmd_experiment(args);
        usage();
        return 1;
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    }
}
