#include "exec/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/env.hpp"

namespace rmwp {

void parallel_for(std::size_t jobs, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
    if (jobs <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error; // guarded by error_mutex until the join
    const auto run = [&] {
        while (!failed) {
            const std::size_t i = next++;
            if (i >= count) return;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!error) error = std::current_exception();
                failed = true;
            }
        }
    };
    {
        // No point spawning more threads than indices; the caller works
        // too, so `jobs` execution streams means jobs - 1 extra threads.
        // jthread joins on destruction, so a failed spawn cannot leave a
        // running thread behind the locals it reads.
        std::vector<std::jthread> workers;
        const std::size_t extra = std::min(jobs, count) - 1;
        workers.reserve(extra);
        for (std::size_t k = 0; k < extra; ++k) workers.emplace_back(run);
        run();
    }
    if (error) std::rethrow_exception(error);
}

std::size_t default_jobs() {
    const std::size_t hardware = std::max<unsigned>(std::thread::hardware_concurrency(), 1U);
    return env_size("RMWP_JOBS", hardware);
}

} // namespace rmwp
