#include "qspr/channels.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/strings.h"

namespace leqa::qspr {

ChannelReservations::ChannelReservations(std::size_t num_segments, int capacity,
                                         double slot_us)
    : occupancy_(num_segments), capacity_(capacity), slot_us_(slot_us) {
    LEQA_REQUIRE(capacity >= 1, "channel capacity must be >= 1");
    LEQA_REQUIRE(slot_us > 0.0, "slot duration must be positive");
}

std::int64_t ChannelReservations::slot_index(double slots, double time_us) const {
    // 2^63 is the first double int64_t cannot hold.  A tiny Tmove reaches
    // it from an ordinary schedule time.
    LEQA_REQUIRE(slots >= -0x1p63 && slots < 0x1p63,
                 "Tmove (t_move_us) of " + util::format_double(slot_us_) +
                     " us is too small: " + util::format_double(time_us) +
                     " us is more than 2^63 slots");
    return static_cast<std::int64_t>(slots);
}

double ChannelReservations::reserve(fabric::SegmentId segment, double earliest_us) {
    LEQA_REQUIRE(segment >= 0 && static_cast<std::size_t>(segment) < occupancy_.size(),
                 "segment id out of range");
    LEQA_REQUIRE(earliest_us >= 0.0, "reservation time must be non-negative");
    auto& slots = occupancy_[static_cast<std::size_t>(segment)];

    // First slot whose start is >= earliest (a qubit arriving mid-slot
    // enters at the next slot boundary), then past the full ones after it.
    std::int64_t slot = slot_index(std::ceil(earliest_us / slot_us_ - 1e-9), earliest_us);
    auto it = std::ranges::lower_bound(slots, slot, {}, &Slot::index);
    while (it != slots.end() && it->index == slot && it->count >= capacity_) {
        ++slot;
        ++it;
    }
    if (it == slots.end() || it->index != slot) it = slots.insert(it, Slot{slot, 0});
    const int count = ++it->count;
    stats_.max_occupancy = std::max(stats_.max_occupancy, count);
    ++stats_.reservations;

    const double start = static_cast<double>(slot) * slot_us_;
    if (start > earliest_us + 1e-9) {
        const double wait = start - earliest_us;
        // Quantization alignment (< one slot) is not congestion; only count
        // waits of at least a full slot as delayed hops.
        if (wait >= slot_us_ - 1e-9) {
            ++stats_.delayed_hops;
        }
        stats_.total_wait_us += wait;
    }
    return start;
}

double ChannelReservations::route(std::span<const fabric::SegmentId> path,
                                  double depart_us) {
    double now = depart_us;
    for (const fabric::SegmentId segment : path) {
        const double entry = reserve(segment, now);
        now = entry + slot_us_;
    }
    return now;
}

int ChannelReservations::occupancy_at(fabric::SegmentId segment, double time_us) const {
    LEQA_REQUIRE(segment >= 0 && static_cast<std::size_t>(segment) < occupancy_.size(),
                 "segment id out of range");
    const auto& slots = occupancy_[static_cast<std::size_t>(segment)];
    const std::int64_t slot = slot_index(std::floor(time_us / slot_us_), time_us);
    const auto it = std::ranges::lower_bound(slots, slot, {}, &Slot::index);
    return it != slots.end() && it->index == slot ? it->count : 0;
}

} // namespace leqa::qspr
