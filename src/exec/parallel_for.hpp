// Parallel execution engine for the Monte-Carlo experiment sweeps.
//
// The whole evaluation (Sec 5) is embarrassingly parallel: every
// (trace, RM, predictor) cell derives its randomness from fixed per-trace
// stream ids (`Rng(seed).derive(stream)`), so cells share no mutable state
// and can run on any thread in any order without perturbing a single draw.
// parallel_for exploits that with a self-scheduling index loop: threads
// take the next unclaimed index from a shared atomic cursor, results are
// written to index-addressed slots, and the caller merges them in
// deterministic index order — `RMWP_JOBS=1` and `RMWP_JOBS=N` are required
// to produce bit-identical results (tests/test_parallel.cpp pins this).
#pragma once

#include <cstddef>
#include <functional>

namespace rmwp {

/// One-shot parallel index loop: runs fn(i) for i in [0, count) on `jobs`
/// threads, the caller among them (inline on the calling thread when
/// jobs <= 1 or count <= 1).  Each index of an experiment sweep is a whole
/// trace simulation, so per-index stealing gives ideal load balance with
/// negligible contention.  Every thread is joined before return.
/// Completion order is unspecified; determinism comes from writing results
/// into index-addressed slots.  The first exception thrown by any fn(i) is
/// rethrown here; indices not yet claimed when it was thrown never run.
void parallel_for(std::size_t jobs, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// The session's parallelism: RMWP_JOBS when set (strictly parsed, >= 1),
/// otherwise the hardware concurrency (>= 1).
[[nodiscard]] std::size_t default_jobs();

} // namespace rmwp
