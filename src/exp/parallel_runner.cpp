#include "exp/parallel_runner.hpp"

#include "exec/parallel_for.hpp"

namespace rmwp {

ParallelRunner::ParallelRunner(ExperimentConfig config, std::size_t jobs)
    : runner_(std::move(config), jobs) {}

std::vector<RunOutcome> ParallelRunner::run_all(std::span<const RunSpec> specs) const {
    const std::size_t traces = runner_.traces().size();
    std::vector<RunOutcome> outcomes(specs.size());
    for (std::size_t c = 0; c < specs.size(); ++c) {
        outcomes[c].spec = specs[c];
        outcomes[c].per_trace.resize(traces);
    }

    // One flat (cell, trace) grid on one pool: cell-major so the merge
    // order below is the natural spec order.  Every grid point is
    // self-contained — own RM instance, own predictor, per-trace RNG
    // streams — so execution order cannot influence any result.
    parallel_for(runner_.jobs(), specs.size() * traces, [&](std::size_t flat) {
        const std::size_t c = flat / traces;
        const std::size_t t = flat % traces;
        const std::unique_ptr<ResourceManager> rm = make_rm(specs[c].rm);
        outcomes[c].per_trace[t] = runner_.run_trace(t, *rm, specs[c].predictor);
    });

    for (RunOutcome& outcome : outcomes)
        outcome.aggregate = AggregateResult::over(outcome.per_trace);
    return outcomes;
}

} // namespace rmwp
