#include "calibrate.hpp"

#include <algorithm>
#include <array>
#include <chrono>

namespace perfbench {

namespace {
volatile std::uint32_t g_sink = 0; // keeps the kernel's result observable
}

std::uint64_t calibration_kernel_ns() {
    std::array<std::uint32_t, 4096> values{};
    std::uint64_t state = 88172645463325252ULL;
    std::uint32_t checksum = 0;
    const auto begin = std::chrono::steady_clock::now();
    for (int round = 0; round < 18; ++round) {
        for (std::uint32_t& value : values) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            value = static_cast<std::uint32_t>(state);
        }
        std::sort(values.begin(), values.end());
        checksum += values[static_cast<std::size_t>(round) * 97U % values.size()];
    }
    const auto end = std::chrono::steady_clock::now();
    g_sink = checksum;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count());
}

} // namespace perfbench
