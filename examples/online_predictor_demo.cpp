// A real runtime predictor on a learnable workload.
//
// The paper abstracts prediction into accuracy knobs; its cited prior work
// learns patterns from real streams.  This example builds a stream that has
// patterns — a Markov chain over task types and two alternating interarrival
// phases (bursts and lulls) — and shows the OnlinePredictor learning them,
// then compares rejection rates: off vs online vs oracle.
#include <iostream>
#include <vector>

#include "core/heuristic_rm.hpp"
#include "predict/online.hpp"
#include "predict/oracle.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/trace_generator.hpp"

namespace {

using namespace rmwp;

/// A trace with structure an online predictor can exploit: types follow a
/// noisy cycle (type t is followed by type (t+1) mod K with probability
/// 0.85), and interarrival gaps alternate between a burst phase and a lull
/// phase every 25 requests.
Trace make_patterned_trace(const Catalog& catalog, std::size_t length, Rng& rng) {
    std::vector<Request> requests;
    requests.reserve(length);

    TaskTypeId type = rng.index(catalog.size());
    Time arrival = 0;
    for (std::size_t j = 0; j < length; ++j) {
        if (j > 0) {
            const bool burst = (j / 25) % 2 == 0;
            const double mean = burst ? 8.0 : 20.0;
            arrival += ms(rng.gaussian_above(mean, mean * 0.1, mean * 0.2));
            type = rng.bernoulli(0.85) ? (type + 1) % catalog.size()
                                       : rng.index(catalog.size());
        }
        const TaskType& task_type = catalog.type(type);
        const auto& executable = task_type.executable_resources();
        const Time rwcet = task_type.wcet(executable[rng.index(executable.size())]);
        requests.push_back(Request{arrival, type, scale_down(rwcet, rng.uniform(1.5, 2.0))});
    }
    return Trace(std::move(requests));
}

} // namespace

int main() {
    const Platform platform = make_paper_platform();
    Rng rng(2024);
    const Catalog catalog = generate_catalog(platform, CatalogParams{.type_count = 12}, rng);

    Table table({"predictor", "rejection %", "energy (J)", "type accuracy"});

    const std::size_t trace_count = 10;
    for (const char* which : {"off", "online", "oracle"}) {
        RunningStats rejection;
        RunningStats energy;
        RunningStats accuracy;
        for (std::size_t t = 0; t < trace_count; ++t) {
            Rng trace_rng = rng.derive(t);
            const Trace trace = make_patterned_trace(catalog, 250, trace_rng);
            HeuristicRM rm;
            TraceResult result;
            if (std::string(which) == "off") {
                NullPredictor predictor;
                result = simulate_trace(platform, catalog, trace, rm, predictor);
            } else if (std::string(which) == "online") {
                OnlinePredictor predictor(catalog);
                result = simulate_trace(platform, catalog, trace, rm, predictor);
                accuracy.add(predictor.realized_type_accuracy());
            } else {
                OraclePredictor predictor;
                result = simulate_trace(platform, catalog, trace, rm, predictor);
            }
            rejection.add(result.rejection_percent());
            energy.add(result.total_energy);
        }
        table.row()
            .cell(which)
            .cell(rejection.mean())
            .cell(energy.mean(), 1)
            .cell(accuracy.empty() ? std::string("-")
                                   : format_fixed(100.0 * accuracy.mean(), 1) + " %");
    }

    table.print(std::cout);
    std::cout << "\nThe online predictor recovers a large share of the oracle's benefit on\n"
                 "patterned streams — consistent with the paper's premise that real-life\n"
                 "request streams are predictable enough to help (Sec 1).\n";
    return 0;
}
