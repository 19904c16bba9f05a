#include "workloads.hpp"

#include <stdexcept>

#include "core/exact_rm.hpp"
#include "core/heuristic_rm.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace rmwp;

namespace {

constexpr std::uint64_t kCatalogSeed = 42;

/// The paper's platform: five CPUs and one GPU.
Platform paper_platform() {
    PlatformBuilder builder;
    for (int i = 1; i <= 5; ++i) builder.add_cpu("CPU" + std::to_string(i));
    builder.add_gpu("GPU");
    return builder.build();
}

/// The E20 islands platform: 24 CPUs, 4 GPUs and one DVFS core, split
/// round-robin into four islands by the partitioned catalog.
Platform islands_platform() {
    PlatformBuilder builder;
    for (int k = 0; k < 24; ++k) builder.add_cpu("CPU" + std::to_string(k));
    for (int k = 0; k < 4; ++k) builder.add_gpu("GPU" + std::to_string(k));
    builder.add_cpu_with_dvfs({1.0, 0.5}, "DVFS");
    return builder.build();
}

std::unique_ptr<Predictor> predictor(bool online, const Catalog& catalog, std::uint64_t seed) {
    PredictorSpec spec;
    spec.kind = online ? PredictorSpec::Kind::online : PredictorSpec::Kind::none;
    return make_predictor(spec, catalog, Rng(seed));
}

} // namespace

std::optional<Request> BurstSource::next() {
    std::optional<Request> request = inner_.next();
    if (!request.has_value()) return std::nullopt;
    if (in_burst_ == 0) {
        burst_arrival_ = request->arrival;
        in_burst_ = burst_;
    } else {
        request->arrival = burst_arrival_;
    }
    --in_burst_;
    return request;
}

void BurstSource::seek(const SourceCursor&) {
    throw std::runtime_error("BurstSource is not seekable");
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"vt-online", "islands-burst",
                                                   "lt-faults-batch", "lt-exact"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        std::uint64_t arrivals) {
    auto w = std::make_unique<Workload>();
    w->name = name;
    w->config.max_arrivals = arrivals;
    w->config.sim.execution_seed = seed;
    w->config.limits.expect_no_misses = true;

    SyntheticSourceParams source;
    source.seed = seed;
    CatalogParams catalog_params;
    Rng catalog_rng(kCatalogSeed);

    if (name == "vt-online") {
        // The paper's configuration: one heuristic decision per arrival,
        // planned with the online predictor's lookahead.
        w->platform = std::make_unique<Platform>(paper_platform());
        w->catalog = std::make_unique<Catalog>(
            generate_catalog(*w->platform, catalog_params, catalog_rng));
        w->rm = std::make_unique<HeuristicRM>();
        w->predictor = predictor(true, *w->catalog, seed);
        source.group = DeadlineGroup::very_tight;
        w->source = std::make_unique<SyntheticArrivalSource>(*w->catalog, source);
    } else if (name == "islands-burst") {
        // Four independent resource groups; bursts of 8 decided as one
        // batch and solved per shard.  Arrivals come ~5x as fast as on the
        // 6-resource platform so the active set stays proportionally loaded.
        w->platform = std::make_unique<Platform>(islands_platform());
        catalog_params.type_count = 32;
        w->catalog = std::make_unique<Catalog>(
            generate_partitioned_catalog(*w->platform, catalog_params, 4, catalog_rng));
        w->rm = std::make_unique<HeuristicRM>();
        w->rm->set_shard_config({4, 1});
        w->predictor = predictor(true, *w->catalog, seed);
        source.interarrival_mean = 1.2;
        source.interarrival_stddev = 0.4;
        w->source = std::make_unique<BurstSource>(*w->catalog, source, 8);
        w->config.batch_window = 0.0;
    } else if (name == "lt-faults-batch") {
        // Bursts of 8 batched, no prediction, outages and throttling on:
        // the rescue path runs thousands of times per run.
        w->platform = std::make_unique<Platform>(paper_platform());
        w->catalog = std::make_unique<Catalog>(
            generate_catalog(*w->platform, catalog_params, catalog_rng));
        w->rm = std::make_unique<HeuristicRM>();
        w->predictor = predictor(false, *w->catalog, seed);
        source.group = DeadlineGroup::less_tight;
        w->source = std::make_unique<BurstSource>(*w->catalog, source, 8);
        w->config.batch_window = 0.0;
        w->config.faults.outage_rate = 0.5;
        w->config.faults.throttle_rate = 0.5;
        w->config.fault_seed = seed;
    } else if (name == "lt-exact") {
        // The exact branch-and-bound RM, one decision per arrival, no
        // faults (exact rescue under faults is out of scope, README.md).
        w->platform = std::make_unique<Platform>(paper_platform());
        w->catalog = std::make_unique<Catalog>(
            generate_catalog(*w->platform, catalog_params, catalog_rng));
        w->rm = std::make_unique<ExactRM>();
        w->predictor = predictor(false, *w->catalog, seed);
        source.group = DeadlineGroup::less_tight;
        w->source = std::make_unique<SyntheticArrivalSource>(*w->catalog, source);
    } else {
        throw std::invalid_argument("unknown workload \"" + name + "\"");
    }
    return w;
}

} // namespace perfbench
