// Structured observability events (DESIGN.md §10).
//
// Every interesting decision the simulator or a resource manager takes —
// arrivals, admissions and rejections (with reason codes), executed
// schedule slices, preemptions, migrations, fault onsets/recoveries,
// rescue steps, plan rebuilds — is recorded as one fixed-size TraceEvent.
// Events carry two clocks: `t_sim` (simulated time in ticks, fully
// deterministic; the JSONL and Chrome exports write milliseconds) and `t_host` (host seconds since the sink was created,
// explicitly excluded from every determinism comparison).  The payload is
// numeric by design: the event stream stays POD, allocation-free, and
// cheap enough to record on the admission hot path.
#pragma once

#include <cstdint>
#include <limits>

#include "util/time.hpp"

namespace rmwp::obs {

/// Event taxonomy.  The numeric values are part of the on-disk JSONL
/// format only through their names (to_string/parse below); reordering is
/// safe for binaries but invalidates previously written files, so append
/// new kinds at the end.
enum class EventKind : std::uint8_t {
    arrival = 0,    ///< request arrived (task = trace index, detail = abs deadline)
    admit,          ///< candidate admitted (resource = mapping, aux = used_prediction)
    reject,         ///< candidate rejected (aux = RejectReason code)
    exec,           ///< executed schedule slice (resource, t_sim = begin, detail = duration)
    preempt,        ///< slice closed with the task still unfinished (planned preemption)
    migrate,        ///< task relocated (resource = from, aux = to, detail = energy)
    complete,       ///< task finished (t_sim = completion instant)
    abort_overhead, ///< admitted task dropped: overhead stall made its deadline unreachable
    rescue_begin,   ///< capacity-loss rescue activation (detail = active-set size)
    rescue_keep,    ///< task kept by the rescue (resource = new mapping, aux = was displaced)
    rescue_abort,   ///< task shed by the rescue
    fault_onset,    ///< fault struck (resource, aux = FaultKind code, detail = throttle factor)
    fault_recovery, ///< fault cleared (resource, aux = FaultKind code)
    plan_rebuild,   ///< execution schedule rebuilt (detail = active-set size)
};

inline constexpr std::size_t kEventKindCount = 14;

/// No-task / no-resource sentinels for events that concern the whole run.
inline constexpr std::uint64_t kNoTask = std::numeric_limits<std::uint64_t>::max();
inline constexpr std::int64_t kNoResource = -1;

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// Parse an event-kind name as written by to_string.  Returns false (and
/// leaves `out` untouched) on an unknown name.
[[nodiscard]] bool parse_event_kind(const char* name, EventKind& out) noexcept;

/// One recorded event.  48 bytes, trivially copyable.
struct TraceEvent {
    Time t_sim = 0;      ///< simulated time (ticks) — deterministic
    double t_host = 0.0; ///< host seconds since sink creation — NOT deterministic
    std::uint64_t task = kNoTask;
    std::int64_t resource = kNoResource;
    double detail = 0.0;    ///< kind-specific payload (duration in ms, energy, set size, ...)
    std::uint32_t aux = 0;  ///< kind-specific small payload (reason/kind codes, targets)
    EventKind kind = EventKind::arrival;

    /// Equality over every deterministic field (t_host ignored): the unit
    /// of the jobs-independence and tracing-on/off contracts.
    [[nodiscard]] bool deterministic_equal(const TraceEvent& other) const noexcept {
        return t_sim == other.t_sim && task == other.task && resource == other.resource &&
               detail == other.detail && aux == other.aux && kind == other.kind;
    }
};

} // namespace rmwp::obs
