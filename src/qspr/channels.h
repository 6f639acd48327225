/// \file channels.h
/// \brief Time-slotted channel reservation table with capacity Nc.
///
/// Time is quantized into slots of one hop time (Tmove).  Each channel
/// segment admits at most Nc qubits per slot; a qubit that finds its next
/// segment full waits for the first slot with spare capacity -- this is the
/// pipelining behaviour LEQA's M/M/1 congestion model (Eq. 8) abstracts.
/// Each segment keeps its reserved slots in one vector sorted by slot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fabric/geometry.h"

namespace leqa::qspr {

struct ChannelStats {
    std::uint64_t reservations = 0;   ///< total hops reserved
    std::uint64_t delayed_hops = 0;   ///< hops that had to wait for a slot
    double total_wait_us = 0.0;       ///< accumulated waiting time
    int max_occupancy = 0;            ///< densest slot ever seen
};

class ChannelReservations {
public:
    /// \param num_segments  total channel segments on the fabric
    /// \param capacity      Nc, qubits admitted per segment per slot
    /// \param slot_us       slot duration (= Tmove)
    ChannelReservations(std::size_t num_segments, int capacity, double slot_us);

    /// Reserve the earliest slot of \p segment starting at or after
    /// \p earliest_us; returns the slot's start time.  Throws InputError
    /// when the time is more than 2^63 slots (a Tmove far too small).
    double reserve(fabric::SegmentId segment, double earliest_us);

    /// Route along consecutive segments departing at \p depart_us; each hop
    /// takes one slot.  Returns arrival time at the final ULB.
    double route(std::span<const fabric::SegmentId> path, double depart_us);

    /// Current reservation count of a segment at the slot containing
    /// \p time_us (0 if none).  Used by the maze router as congestion
    /// pressure.
    [[nodiscard]] int occupancy_at(fabric::SegmentId segment, double time_us) const;

    /// Nc, qubits admitted per segment per slot.
    [[nodiscard]] int capacity() const { return capacity_; }

    /// Slot duration (= Tmove).
    [[nodiscard]] double slot_us() const { return slot_us_; }

    [[nodiscard]] const ChannelStats& stats() const { return stats_; }

private:
    struct Slot {
        std::int64_t index = 0; ///< start time / Tmove
        int count = 0;          ///< qubits reserved in it
    };

    /// `slots`, a time over Tmove already rounded to a whole number, as a
    /// slot index; throws InputError naming Tmove past 2^63.
    [[nodiscard]] std::int64_t slot_index(double slots, double time_us) const;

    std::vector<std::vector<Slot>> occupancy_; // per segment, sorted by index
    int capacity_;
    double slot_us_;
    ChannelStats stats_;
};

} // namespace leqa::qspr
