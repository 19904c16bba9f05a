// Host-speed calibration kernel.
//
// The benchmark's host is shared: neighbours slow every core by up to ~40 %
// for minutes at a time, which no statistic over one run can remove.  Each
// repetition therefore times this fixed kernel right before and right after
// serving; run.py scales the repetition's wall-clock times by
// kReferenceNs / kernel time, i.e. to the speed of an uncontended host.
// The kernel is compiled apart from the repository's flags (see
// CMakeLists.txt), so no change to the program can move it.
#pragma once

#include <cstdint>

namespace perfbench {

/// Kernel time, in nanoseconds, on the uncontended reference host (4-core
/// Intel Xeon, 2.0 GHz): scaled times are in reference-host units.
inline constexpr std::uint64_t kReferenceNs = 4'000'000;

/// Run the kernel once (xorshift fill + sort of a 16 KiB array, repeated)
/// and return its wall time in nanoseconds.
[[nodiscard]] std::uint64_t calibration_kernel_ns();

} // namespace perfbench
