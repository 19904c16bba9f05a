// Simulated time: int64 nanosecond ticks, compared exactly at any horizon
// (2^63 ns is ~292 years).  Milliseconds appear only at the interfaces and
// convert once, on the way in (DESIGN.md §3): instants to the nearest
// tick, relative deadlines down, durations up.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace rmwp {

__extension__ using Int128 = __int128;

/// Simulated time in nanosecond ticks.
using Time = std::int64_t;

inline constexpr Time kTicksPerMs = 1'000'000;

/// The instant after every representable one (e.g. a permanent fault's end).
inline constexpr Time kNever = std::numeric_limits<Time>::max();

/// `value` milliseconds as the nearest tick, for constants and literals.
[[nodiscard]] constexpr Time ms(double value) noexcept {
    return static_cast<Time>(value * static_cast<double>(kTicksPerMs) + (value < 0 ? -0.5 : 0.5));
}

/// Ticks as (approximate) milliseconds, for reports and exports.
[[nodiscard]] constexpr double to_ms(Time t) noexcept {
    return static_cast<double>(t) / static_cast<double>(kTicksPerMs);
}

/// Whether `value` ms is finite and its tick count fits in Time.
[[nodiscard]] inline bool representable_ms(double value) noexcept {
    return std::isfinite(value) && std::abs(value * static_cast<double>(kTicksPerMs)) < 0x1p63;
}

enum class TickRounding { nearest, down, up };

/// `value` ms as ticks.  A product within 1e-6 ticks of an integer is
/// snapped to it first (the decimal-to-binary error of inputs like 8.3 ms),
/// so exact decimal inputs convert exactly.  Requires representable_ms.
[[nodiscard]] inline Time to_ticks(double value, TickRounding rounding) {
    RMWP_EXPECT(representable_ms(value));
    double ticks = value * static_cast<double>(kTicksPerMs);
    if (std::abs(ticks - std::nearbyint(ticks)) <= 1e-6) ticks = std::nearbyint(ticks);
    if (rounding == TickRounding::down) return static_cast<Time>(std::floor(ticks));
    if (rounding == TickRounding::up) return static_cast<Time>(std::ceil(ticks));
    return static_cast<Time>(std::nearbyint(ticks));
}

/// ceil(t * factor), t and factor >= 0: derived durations (throttle
/// stretch, actual-work share) round up.
[[nodiscard]] inline Time scale_up(Time t, double factor) {
    RMWP_EXPECT(t >= 0 && factor >= 0.0 && static_cast<double>(t) * factor < 0x1p63);
    return static_cast<Time>(std::ceil(static_cast<double>(t) * factor));
}

/// floor(t * factor): a relative deadline derived from a duration rounds down.
[[nodiscard]] inline Time scale_down(Time t, double factor) {
    RMWP_EXPECT(t >= 0 && factor >= 0.0 && static_cast<double>(t) * factor < 0x1p63);
    return static_cast<Time>(std::floor(static_cast<double>(t) * factor));
}

/// ceil(t * num / den), exactly (in 128 bits when the product needs it):
/// remaining work moved between resources whose WCETs are `den` and `num`.
[[nodiscard]] inline Time rescale_up(Time t, Time num, Time den) {
    RMWP_EXPECT(t >= 0 && num >= 0 && den > 0);
    Time product = 0;
    if (!__builtin_mul_overflow(t, num, &product) && product <= kNever - den)
        return (product + den - 1) / den; // the common case, in one 64-bit division
    const Int128 quotient = (static_cast<Int128>(t) * num + den - 1) / den;
    RMWP_EXPECT(quotient <= std::numeric_limits<Time>::max());
    return static_cast<Time>(quotient);
}

} // namespace rmwp
