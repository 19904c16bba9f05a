// E19 (ours) — telemetry overhead: serve-mode throughput with the full
// observability stack live (telemetry endpoint + stage profiler + HDR
// latency recording) versus the bare hot path.  The claim under test
// (DESIGN.md §14): instrumentation costs < 3 % of decisions/sec, because
// the hot path only touches thread-local counters (clock pair on every
// 64th call) and relaxed atomics, and all rendering happens on the
// telemetry thread against published snapshots.
//
// Measurement: RMWP_BENCH_REPS (default and minimum 5) interleaved rounds,
// each running every cell once, in a rotated order so no cell always runs
// first.  Every run is scaled to a reference host by the perfbench
// calibration kernel (perfbench/calibrate.cpp), timed right before and
// right after serving: decisions/sec x (kernel time / reference time).
// The gate compares per-cell medians of the scaled rates, so neither one
// noisy run nor a neighbour slowing the host for part of the bench can
// decide it.  RMWP_SERVE_ARRIVALS (default 20000) arrivals per run,
// RMWP_SEED for the master seed.  Writes BENCH_telemetry.json.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "calibrate.hpp"
#include "core/heuristic_rm.hpp"
#include "obs/stage_timer.hpp"
#include "serve/serve.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"

int main() {
    using namespace rmwp;

    const std::uint64_t arrivals = env_size("RMWP_SERVE_ARRIVALS", 20000);
    const std::uint64_t seed = env_size("RMWP_SEED", 42);
    const std::uint64_t reps = std::max<std::uint64_t>(5, env_size("RMWP_BENCH_REPS", 5));

    PlatformBuilder builder;
    for (int i = 1; i <= 5; ++i) builder.add_cpu("CPU" + std::to_string(i));
    builder.add_gpu("GPU");
    const Platform platform = builder.build();
    CatalogParams catalog_params;
    Rng catalog_rng(seed);
    const Catalog catalog = generate_catalog(platform, catalog_params, catalog_rng);

    struct Cell {
        const char* label;
        bool telemetry; ///< live /metrics endpoint (port 0 = ephemeral)
        bool profiler;  ///< StageStats block installed
    };
    const Cell cells[] = {
        {"bare", false, false},
        {"profiler", false, true},
        {"telemetry+profiler", true, true},
    };

    std::cout << "E19: telemetry overhead on the serve hot path (ours)\n"
              << "setup: " << arrivals << " synthetic arrivals per run, median of " << reps
              << " interleaved rounds scaled by host speed, seed " << seed
              << ", 5 CPUs + 1 GPU\n\n";

    struct Run {
        double decisions_per_second = 0.0; ///< scaled to the reference host
        double host_factor = 1.0;          ///< calibration kernel / reference time
        ServeResult serve;
        obs::StageStats stages;
    };
    std::vector<Run> runs[3];

    for (std::uint64_t round = 0; round < reps; ++round) {
        for (std::size_t position = 0; position < 3; ++position) {
            const std::size_t index = (position + round) % 3;
            const Cell& cell = cells[index];
            HeuristicRM rm;
            NullPredictor predictor;
            SyntheticSourceParams source_params;
            source_params.seed = seed;
            SyntheticArrivalSource source(catalog, source_params);

            ServeConfig config;
            config.sim.execution_seed = seed;
            config.max_arrivals = arrivals;
            config.monitor_period_seconds = 0.1;
            config.limits.expect_no_misses = true;
            if (cell.telemetry) config.telemetry_port = 0;
            Run run;
            if (cell.profiler) config.stage_stats_out = &run.stages;

            serve_clear_stop();
            const std::uint64_t kernel_before = perfbench::calibration_kernel_ns();
            run.serve = run_serve(platform, catalog, rm, predictor, nullptr, source, config);
            const std::uint64_t kernel_after = perfbench::calibration_kernel_ns();
            RMWP_ENSURE(run.serve.exit_code == 0);
            // The faster kernel time: a preemption only ever slows one down.
            run.host_factor = static_cast<double>(std::min(kernel_before, kernel_after)) /
                              static_cast<double>(perfbench::kReferenceNs);
            run.decisions_per_second =
                run.serve.wall_seconds > 0.0
                    ? static_cast<double>(run.serve.result.requests) / run.serve.wall_seconds *
                          run.host_factor
                    : 0.0;
            runs[index].push_back(std::move(run));
        }
    }

    const auto median_of = [](std::vector<double> values) {
        std::sort(values.begin(), values.end());
        const std::size_t mid = values.size() / 2;
        return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
    };
    double median_dps[3] = {};
    bench::Json results = bench::Json::array();
    Table table({"configuration", "median dec/s", "min", "max", "p99 us", "stage ns/decision",
                 "vs bare"});
    for (std::size_t index = 0; index < 3; ++index) {
        std::vector<double> rates;
        for (const Run& run : runs[index]) {
            rates.push_back(run.decisions_per_second);
            // The cells run the identical deterministic workload: any drift
            // in decisions means the instrumentation leaked into them.
            RMWP_ENSURE(run.serve.result.accepted == runs[0][0].serve.result.accepted);
            RMWP_ENSURE(run.serve.result.rejected == runs[0][0].serve.result.rejected);
            RMWP_ENSURE(run.serve.result.deadline_misses ==
                        runs[0][0].serve.result.deadline_misses);
        }
        median_dps[index] = median_of(rates);
        std::vector<double> p99;
        for (const Run& run : runs[index]) p99.push_back(run.serve.latency_p99_us);
        const obs::StageStats& stages = runs[index].back().stages;
        const std::uint64_t decide_calls = stages.cell(obs::Stage::decide).calls;
        const double stage_ns_per_decision =
            decide_calls > 0
                ? static_cast<double>(stages.estimated_ns(obs::Stage::decide)) /
                      static_cast<double>(decide_calls)
                : 0.0;
        const double versus_bare = median_dps[0] > 0.0 ? median_dps[index] / median_dps[0] : 1.0;
        table.row()
            .cell(cells[index].label)
            .cell(median_dps[index], 0)
            .cell(*std::min_element(rates.begin(), rates.end()), 0)
            .cell(*std::max_element(rates.begin(), rates.end()), 0)
            .cell(median_of(p99), 0)
            .cell(stage_ns_per_decision, 0)
            .cell(versus_bare, 3);

        bench::Json j = bench::Json::object();
        j.set("label", cells[index].label);
        j.set("decisions_per_second", median_dps[index]);
        j.set("decisions_per_second_min", *std::min_element(rates.begin(), rates.end()));
        j.set("decisions_per_second_max", *std::max_element(rates.begin(), rates.end()));
        j.set("latency_p99_us", median_of(p99));
        j.set("stage_ns_per_decision", stage_ns_per_decision);
        j.set("telemetry_requests", runs[index].back().serve.telemetry_requests);
        j.set("throughput_vs_bare", versus_bare);
        results.push(std::move(j));
    }
    table.print(std::cout);

    const double regression = median_dps[0] > 0.0 ? 1.0 - median_dps[2] / median_dps[0] : 0.0;
    std::cout << "\ntelemetry+profiler regression vs bare (medians of host-scaled rates): "
              << regression * 100.0 << " %\n";
    // The 3 % budget of DESIGN.md §14 on medians of host-scaled,
    // interleaved runs: a real > 3 % cost means a hot-path regression.
    RMWP_ENSURE(regression < 0.03);

    bench::Json root = bench::Json::object();
    root.set("bench", "telemetry");
    root.set("arrivals_per_run", arrivals);
    root.set("rounds", reps);
    root.set("reference_ns", perfbench::kReferenceNs);
    root.set("seed", seed);
    root.set("regression_vs_bare", regression);
    root.set("cells", std::move(results));
    std::ofstream out("BENCH_telemetry.json");
    root.write(out, 0);
    out << '\n';
    if (out) std::cout << "wrote BENCH_telemetry.json\n";

    std::cout << "\nfinding: the full observability stack — live /metrics endpoint, sampled\n"
                 "stage profiler, HDR latency recording — stays within the 3 % throughput\n"
                 "budget because the hot path only increments thread-local counters and\n"
                 "relaxed atomics; rendering runs on the telemetry thread from snapshots.\n";
    return 0;
}
