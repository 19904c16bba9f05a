// Shared plumbing for the experiment benches: environment-scaled trace
// budgets and consistent headers.
//
// Every bench accepts:
//   RMWP_TRACES   — traces per deadline group            (default: per-bench)
//   RMWP_REQUESTS — requests per trace                   (default: per-bench)
//   RMWP_SEED     — master seed                          (default: 42)
// The paper's full study is RMWP_TRACES=500 RMWP_REQUESTS=500; bench
// defaults are chosen so the whole suite completes in laptop-minutes while
// preserving the paper's shapes.
#pragma once

#include <cstdint>
#include <iostream>

#include "exec/parallel_for.hpp"
#include "exp/runner.hpp"

namespace rmwp::bench {

inline ExperimentConfig scaled_config(DeadlineGroup group, std::size_t default_traces,
                                      std::size_t default_requests) {
    ExperimentConfig config = ExperimentConfig::paper(group);
    config.trace_count = env_size("RMWP_TRACES", default_traces);
    config.trace.length = env_size("RMWP_REQUESTS", default_requests);
    config.seed = env_size("RMWP_SEED", 42);
    return config;
}

inline void print_header(const char* id, const char* what, const ExperimentConfig& config) {
    std::cout << id << ": " << what << '\n'
              << "setup: " << config.trace_count << " traces x " << config.trace.length
              << " requests, seed " << config.seed << ", interarrival Gaussian("
              << config.trace.interarrival_mean << ", " << config.trace.interarrival_stddev
              << "^2), jobs " << default_jobs() << "\n\n";
}

} // namespace rmwp::bench
