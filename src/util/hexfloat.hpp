// Bit-exact number serialization for text checkpoints (DESIGN.md §11).
//
// Doubles travel as C99 hex-floats ("%a"): exact round trip, locale
// independent, and still human-inspectable; integer ticks as decimal.  operator>> cannot parse
// hex-floats portably, so reading goes token -> strtod.  Shared by the
// online predictor's model checkpoint, the SimEngine stream checkpoint,
// and the serve-mode snapshot, so all three agree on the wire format.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace rmwp {

inline void put_f64(std::ostream& os, double value) {
    char buffer[48];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    os << buffer << '\n';
}

/// `context` names the stream in error messages, e.g. "predictor checkpoint".
inline double get_f64(std::istream& is, const char* context) {
    std::string token;
    if (!(is >> token)) throw std::runtime_error(std::string(context) + ": truncated stream");
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0')
        throw std::runtime_error(std::string(context) + ": bad number \"" + token + "\"");
    return value;
}

inline std::uint64_t get_u64(std::istream& is, const char* context) {
    std::uint64_t value = 0;
    if (!(is >> value)) throw std::runtime_error(std::string(context) + ": truncated stream");
    return value;
}

/// A non-negative tick count (simulated time or remaining work).
inline std::int64_t get_ticks(std::istream& is, const char* context) {
    std::int64_t value = 0;
    if (!(is >> value)) throw std::runtime_error(std::string(context) + ": truncated stream");
    if (value < 0) throw std::runtime_error(std::string(context) + ": negative time");
    return value;
}

} // namespace rmwp
