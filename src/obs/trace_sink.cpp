#include "obs/trace_sink.hpp"

#include <atomic>
#include <cstdio>

#include "obs/trace_stream.hpp"
#include "util/check.hpp"

namespace rmwp::obs {
namespace {

/// One warning per process (not per sink): a 500-trace experiment with a
/// small ring must not print 500 copies.  Overwriting is by design — the
/// warning exists so nobody mistakes a truncated event file for the whole
/// run.
std::atomic_flag overwrite_warned = ATOMIC_FLAG_INIT;

void note_ring_overwrite(std::size_t capacity) noexcept {
    if (overwrite_warned.test_and_set(std::memory_order_relaxed)) return;
    std::fprintf(stderr,
                 "obs: TraceSink ring wrapped (capacity %zu); oldest events are being "
                 "overwritten — dropped() counts them, exports keep the most recent tail\n",
                 capacity);
}

} // namespace

TraceSink::TraceSink(std::size_t capacity) : capacity_(capacity) {
    RMWP_EXPECT(capacity_ > 0);
    ring_.resize(capacity_);
}

void TraceSink::emit(Time t_sim, EventKind kind, std::uint64_t task, std::int64_t resource,
                     double detail, std::uint32_t aux) noexcept {
    if (emitted_ == capacity_) note_ring_overwrite(capacity_);
    TraceEvent& slot = ring_[emitted_ % capacity_];
    slot.t_sim = t_sim;
    slot.t_host =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    slot.task = task;
    slot.resource = resource;
    slot.detail = detail;
    slot.aux = aux;
    slot.kind = kind;
    ++emitted_;
    if (stream_ != nullptr) stream_->append(slot);
}

std::vector<TraceEvent> TraceSink::events() const {
    std::vector<TraceEvent> out;
    const std::uint64_t retained = emitted_ < capacity_ ? emitted_ : capacity_;
    out.reserve(retained);
    const std::uint64_t first = emitted_ - retained;
    for (std::uint64_t k = 0; k < retained; ++k)
        out.push_back(ring_[(first + k) % capacity_]);
    return out;
}

} // namespace rmwp::obs
