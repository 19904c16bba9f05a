// E18 (ours) — batched admission throughput: decisions per wall-clock
// second of the serve loop as a function of admission batch size
// (DESIGN.md §13).  The workload is the endless synthetic source with
// arrivals collapsed into bursts of B simultaneous requests (the
// per-request mean rate is unchanged, so every cell carries the same
// offered load); the sweep compares the sequential decision loop
// (batch_window < 0, one RM activation per request) against the batched
// loop (batch_window = 0, one decide_batch activation per burst) across
// burst sizes.  Sequential controls at selected burst sizes separate the
// batching speedup from any workload effect of burstiness itself.
//
// E20 (ours) — admission decomposed by resource group rides in the same
// binary: the islands platform whose partitioned catalog splits into four
// independent resource groups (DESIGN.md §15), decided by {the unbatched
// loop, the batched loop} × {a bench-local whole-instance RM, HeuristicRM,
// which solves per group}.  Decisions are bit-identical by contract, so the
// acceptance counts of the two RMs must agree in each loop (RMWP_ENSURE).
// The cells run interleaved for kGroupRounds rounds; BENCH_shard.json
// records the median, min and max per cell with the host's nproc and build
// type.
//
// Scaling: RMWP_SERVE_ARRIVALS (default 20000) arrivals per cell,
// RMWP_SEED for the master seed.  Writes BENCH_admission.json.
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/heuristic_rm.hpp"
#include "core/plan_instance.hpp"
#include "serve/serve.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace rmwp;

/// Synthetic arrivals collapsed into bursts: every run of `burst`
/// consecutive requests shares the first member's arrival instant.  Mean
/// per-request rate, types, and relative deadlines are untouched, so the
/// offered load is identical across burst sizes.  Not seekable (the bench
/// never checkpoints).
class BurstSource final : public ArrivalSource {
public:
    BurstSource(const Catalog& catalog, const SyntheticSourceParams& params, std::size_t burst)
        : inner_(catalog, params), burst_(burst) {}

    [[nodiscard]] std::optional<Request> next() override {
        if (in_burst_ == 0) {
            const std::optional<Request> first = inner_.next();
            if (!first.has_value()) return std::nullopt;
            burst_arrival_ = first->arrival;
            in_burst_ = burst_;
            --in_burst_;
            return first;
        }
        std::optional<Request> request = inner_.next();
        if (!request.has_value()) return std::nullopt;
        --in_burst_;
        request->arrival = burst_arrival_;
        return request;
    }
    [[nodiscard]] bool seekable() const noexcept override { return false; }
    [[nodiscard]] SourceCursor cursor() const noexcept override { return {}; }
    void seek(const SourceCursor&) override {
        throw std::runtime_error("BurstSource is not seekable");
    }

private:
    SyntheticArrivalSource inner_;
    std::size_t burst_;
    std::size_t in_burst_ = 0; ///< members still owed at burst_arrival_
    Time burst_arrival_ = 0;
};

/// Algorithm 1 over the whole instance at every ladder rung, never split by
/// resource group: E20's reference for what decomposition buys.  E20 runs
/// no faults, so the default (never used) rescue suffices.
class WholeInstanceHeuristicRM final : public ResourceManager {
public:
    [[nodiscard]] Decision decide(const ArrivalContext& context) override {
        Decision decision = run_admission_ladder(context, solve);
        if (!decision.admitted) decision.reason = RejectReason::heuristic_exhausted;
        return decision;
    }
    void decide_batch(const BatchArrivalContext& batch, std::vector<Decision>& out) override {
        BatchPlanner planner(batch);
        out.clear();
        for (std::size_t m = 0; m < planner.item_count(); ++m) {
            Decision decision = run_admission_ladder_batch(planner, m, solve);
            if (!decision.admitted) decision.reason = RejectReason::heuristic_exhausted;
            out.push_back(std::move(decision));
        }
    }
    [[nodiscard]] std::string name() const override { return "heuristic"; }

private:
    static std::optional<std::span<const ResourceId>> solve(const PlanInstance& instance) {
        return HeuristicRM::map_tasks(instance);
    }
};

/// One serve run of `arrivals` synthetic requests in bursts of `burst`
/// through `rm` with the online predictor; batch_window_ms < 0 decides one
/// request per activation.
ServeResult serve_bursts(const Platform& platform, const Catalog& catalog, ResourceManager& rm,
                         SyntheticSourceParams source_params, std::size_t burst,
                         double batch_window_ms, std::uint64_t arrivals, std::uint64_t seed) {
    PredictorSpec spec;
    spec.kind = PredictorSpec::Kind::online;
    const std::unique_ptr<Predictor> predictor = make_predictor(spec, catalog, Rng(seed));
    source_params.seed = seed;
    BurstSource source(catalog, source_params, burst);

    ServeConfig config;
    config.sim.execution_seed = seed;
    config.max_arrivals = arrivals;
    config.batch_window = ms(batch_window_ms);
    config.monitor_period_seconds = 0.1;
    config.limits.expect_no_misses = true;

    serve_clear_stop();
    ServeResult serve = run_serve(platform, catalog, rm, *predictor, nullptr, source, config);
    RMWP_ENSURE(serve.exit_code == 0);
    return serve;
}

} // namespace

int main() {
    using namespace rmwp;

    const std::uint64_t arrivals = env_size("RMWP_SERVE_ARRIVALS", 20000);
    const std::uint64_t seed = env_size("RMWP_SEED", 42);

    PlatformBuilder builder;
    for (int i = 1; i <= 5; ++i) builder.add_cpu("CPU" + std::to_string(i));
    builder.add_gpu("GPU");
    const Platform platform = builder.build();
    CatalogParams catalog_params;
    Rng catalog_rng(seed);
    const Catalog catalog = generate_catalog(platform, catalog_params, catalog_rng);

    struct Cell {
        const char* label;
        std::size_t burst;
        double batch_window; ///< < 0 = sequential decision loop
    };
    const Cell cells[] = {
        // The PR-5-comparable baseline: one decision per arrival.
        {"sequential", 1, -1.0},
        // Batch-of-1 parity: the decide_batch path on singleton groups.
        {"batch=1", 1, 0.0},
        {"batch=2", 2, 0.0},
        {"batch=4", 4, 0.0},
        {"batch=8", 8, 0.0},
        {"seq@burst=8", 8, -1.0},
        {"batch=16", 16, 0.0},
        {"batch=32", 32, 0.0},
        {"seq@burst=32", 32, -1.0},
    };

    std::cout << "E18: batched admission throughput (ours)\n"
              << "setup: " << arrivals << " synthetic arrivals per cell, seed " << seed
              << ", 5 CPUs + 1 GPU, " << catalog.size()
              << " task types, heuristic RM + online predictor\n\n";

    bench::Json results = bench::Json::array();
    double sequential_dps = 0.0;
    double best_dps = 0.0;
    Table table({"configuration", "decisions/sec", "mean group", "accepted %", "p99 us",
                 "wall ms", "speedup"});
    for (const Cell& cell : cells) {
        HeuristicRM rm;
        const ServeResult serve = serve_bursts(platform, catalog, rm, {}, cell.burst,
                                               cell.batch_window, arrivals, seed);

        const double dps = serve.wall_seconds > 0.0
                               ? static_cast<double>(serve.result.requests) / serve.wall_seconds
                               : 0.0;
        const double mean_group =
            serve.result.activations > 0
                ? static_cast<double>(serve.result.requests) /
                      static_cast<double>(serve.result.activations)
                : 0.0;
        const double accepted_percent =
            serve.result.requests > 0
                ? 100.0 * static_cast<double>(serve.result.accepted) /
                      static_cast<double>(serve.result.requests)
                : 0.0;
        if (std::string(cell.label) == "sequential") sequential_dps = dps;
        if (cell.batch_window >= 0.0 && dps > best_dps) best_dps = dps;
        const double speedup = sequential_dps > 0.0 ? dps / sequential_dps : 0.0;

        table.row()
            .cell(cell.label)
            .cell(dps, 0)
            .cell(mean_group, 2)
            .cell(accepted_percent, 1)
            .cell(serve.latency_p99_us, 0)
            .cell(serve.wall_seconds * 1000.0, 0)
            .cell(speedup, 2);

        bench::Json j = bench::Json::object();
        j.set("label", cell.label);
        j.set("burst", static_cast<std::uint64_t>(cell.burst));
        j.set("batch_window", cell.batch_window);
        j.set("arrivals", serve.arrivals);
        j.set("accepted", static_cast<std::uint64_t>(serve.result.accepted));
        j.set("rejected", static_cast<std::uint64_t>(serve.result.rejected));
        j.set("deadline_misses", static_cast<std::uint64_t>(serve.result.deadline_misses));
        j.set("activations", static_cast<std::uint64_t>(serve.result.activations));
        j.set("mean_group_size", mean_group);
        j.set("decisions_per_second", dps);
        j.set("latency_p99_us", serve.latency_p99_us);
        j.set("wall_ms", serve.wall_seconds * 1000.0);
        j.set("speedup_vs_sequential", speedup);
        results.push(std::move(j));
    }
    table.print(std::cout);

    bench::Json root = bench::Json::object();
    root.set("bench", "admission");
    root.set("arrivals_per_cell", arrivals);
    root.set("seed", seed);
    root.set("sequential_decisions_per_second", sequential_dps);
    root.set("best_batched_decisions_per_second", best_dps);
    root.set("best_speedup_vs_sequential", sequential_dps > 0.0 ? best_dps / sequential_dps : 0.0);
    root.set("cells", std::move(results));
    std::ofstream out("BENCH_admission.json");
    root.write(out, 0);
    out << '\n';
    if (out) std::cout << "wrote BENCH_admission.json\n";

    std::cout << "\nfinding: coalescing simultaneous arrivals into one decide_batch\n"
                 "activation amortises the plan rebuild, the sorted-block refresh, and the\n"
                 "schedule rebuild across the group; throughput grows with batch size while\n"
                 "the sequential controls at the same burstiness stay near the baseline.\n";

    // ---- E20: admission decomposed by resource group ----
    //
    // Twenty-four CPUs, four GPUs, one DVFS core — round-robin over four
    // islands, so each island holds six CPUs and a GPU and the partitioned
    // catalog confines every task type to one island.  The platform is
    // deliberately big, so the solve dominates the decision.  Splitting a
    // rung by group does not by itself save much: the per-group solves
    // together do about the work of the whole one, plus the sub-instance
    // copies.  What pays is the batched loop's verdict cache — a group that
    // no admission touched serves its verdict to the next item of the burst
    // instead of being solved again (DESIGN.md §15).  The unbatched pair
    // has no cache, so it is the cell that could show decomposition costing
    // single decisions something.
    PlatformBuilder islands_builder;
    for (int k = 0; k < 24; ++k) islands_builder.add_cpu("CPU" + std::to_string(k));
    for (int k = 0; k < 4; ++k) islands_builder.add_gpu("GPU" + std::to_string(k));
    islands_builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
    const Platform islands = islands_builder.build();
    CatalogParams islands_params;
    islands_params.type_count = 32;
    Rng islands_rng(seed);
    const Catalog islands_catalog =
        generate_partitioned_catalog(islands, islands_params, 4, islands_rng);

    struct GroupCell {
        const char* label;
        bool batched;
        bool by_group;
        Samples dps;
        Samples p99_us;
        Samples wall_ms;
        std::uint64_t arrivals = 0;
        std::uint64_t accepted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t deadline_misses = 0;
    };
    GroupCell group_cells[] = {
        {"unbatched, whole instance", false, false, {}, {}, {}},
        {"unbatched, by group", false, true, {}, {}, {}},
        {"batched, whole instance", true, false, {}, {}, {}},
        {"batched, by group", true, true, {}, {}, {}},
    };
    // One round runs every cell once, so a slow phase of a shared host
    // lands on all cells alike; the gate reads the per-cell medians.
    constexpr std::size_t kGroupRounds = 5;
    const unsigned nproc = std::thread::hardware_concurrency();

    std::cout << "\nE20: admission decomposed by resource group (ours)\n"
              << "setup: " << arrivals << " synthetic arrivals per cell, burst 8, seed " << seed
              << ", 24 CPUs + 4 GPUs + 1 DVFS core in 4 islands, " << islands_catalog.size()
              << " island-confined task types, heuristic RM + online predictor; "
              << kGroupRounds << " interleaved rounds, nproc " << nproc << ", "
              << RMWP_BUILD_TYPE << " build\n\n";

    for (std::size_t round = 0; round < kGroupRounds; ++round) {
        for (GroupCell& cell : group_cells) {
            HeuristicRM by_group;
            WholeInstanceHeuristicRM whole;
            ResourceManager& rm = cell.by_group ? static_cast<ResourceManager&>(by_group) : whole;
            // The default mean is calibrated for the 6-resource platform;
            // with ~5x the capacity here, arrivals come ~5x as fast so the
            // active set stays proportionally loaded and the solver sees
            // platform-sized instances.
            SyntheticSourceParams source_params;
            source_params.interarrival_mean = 1.2;
            source_params.interarrival_stddev = 0.4;
            const ServeResult serve =
                serve_bursts(islands, islands_catalog, rm, source_params, 8,
                             cell.batched ? 0.0 : -1.0, arrivals, seed);

            // The determinism contract in numbers: within one loop, both RMs
            // in every round must accept and reject exactly the same requests.
            const GroupCell& reference = group_cells[cell.batched ? 2 : 0];
            if (round > 0 || &cell != &reference) {
                RMWP_ENSURE(serve.result.accepted == reference.accepted);
                RMWP_ENSURE(serve.result.rejected == reference.rejected);
            }
            cell.arrivals = serve.arrivals;
            cell.accepted = serve.result.accepted;
            cell.rejected = serve.result.rejected;
            cell.deadline_misses = serve.result.deadline_misses;
            cell.dps.add(serve.wall_seconds > 0.0 ? static_cast<double>(serve.result.requests) /
                                                        serve.wall_seconds
                                                  : 0.0);
            cell.p99_us.add(serve.latency_p99_us);
            cell.wall_ms.add(serve.wall_seconds * 1000.0);
        }
    }

    bench::Json group_results = bench::Json::array();
    Table group_table({"configuration", "median decisions/sec", "min", "max", "accepted %",
                       "p99 us", "vs whole"});
    for (const GroupCell& cell : group_cells) {
        const double dps = cell.dps.median();
        const double whole_dps = group_cells[cell.batched ? 2 : 0].dps.median();
        const double speedup = whole_dps > 0.0 ? dps / whole_dps : 0.0;
        const std::uint64_t requests = cell.accepted + cell.rejected;
        const double accepted_percent =
            requests > 0 ? 100.0 * static_cast<double>(cell.accepted) /
                               static_cast<double>(requests)
                         : 0.0;

        group_table.row()
            .cell(cell.label)
            .cell(dps, 0)
            .cell(cell.dps.min(), 0)
            .cell(cell.dps.max(), 0)
            .cell(accepted_percent, 1)
            .cell(cell.p99_us.median(), 0)
            .cell(speedup, 2);

        bench::Json j = bench::Json::object();
        j.set("label", cell.label);
        j.set("batched", cell.batched);
        j.set("by_group", cell.by_group);
        j.set("arrivals", cell.arrivals);
        j.set("accepted", cell.accepted);
        j.set("rejected", cell.rejected);
        j.set("deadline_misses", cell.deadline_misses);
        j.set("decisions_per_second", dps);
        j.set("decisions_per_second_min", cell.dps.min());
        j.set("decisions_per_second_max", cell.dps.max());
        j.set("latency_p99_us", cell.p99_us.median());
        j.set("wall_ms", cell.wall_ms.median());
        j.set("speedup_vs_whole", speedup);
        group_results.push(std::move(j));
    }
    group_table.print(std::cout);

    bench::Json group_root = bench::Json::object();
    group_root.set("bench", "shard");
    group_root.set("arrivals_per_cell", arrivals);
    group_root.set("seed", seed);
    group_root.set("repetitions", static_cast<std::uint64_t>(kGroupRounds));
    group_root.set("nproc", static_cast<std::uint64_t>(nproc));
    group_root.set("build_type", RMWP_BUILD_TYPE);
    group_root.set("unbatched_whole_decisions_per_second", group_cells[0].dps.median());
    group_root.set("unbatched_by_group_decisions_per_second", group_cells[1].dps.median());
    group_root.set("batched_whole_decisions_per_second", group_cells[2].dps.median());
    group_root.set("batched_by_group_decisions_per_second", group_cells[3].dps.median());
    group_root.set("cells", std::move(group_results));
    std::ofstream group_out("BENCH_shard.json");
    group_root.write(group_out, 0);
    group_out << '\n';
    if (group_out) std::cout << "wrote BENCH_shard.json\n";

    std::cout << "\nfinding: solving each resource group on its own decides bit-identically\n"
                 "to the whole-instance solve; in the batched loop, groups that no admission\n"
                 "touched reuse their verdicts across a burst, which is where the speedup\n"
                 "comes from — the unbatched pair, with no cache, shows what the split alone\n"
                 "costs or saves.\n";
    return 0;
}
