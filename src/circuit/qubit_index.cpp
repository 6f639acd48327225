#include "circuit/qubit_index.h"

#include <algorithm>
#include <bit>

#include "util/error.h"

namespace leqa::circuit {

bool QubitIndex::add(std::string_view name) {
    if (find(name)) return false;
    LEQA_REQUIRE(names_.size() < UINT32_MAX - 1, "too many qubits");
    names_.emplace_back(name);
    if (4 * names_.size() > 3 * slots_.size()) {
        rehash(std::max<std::size_t>(16, 2 * slots_.size())); // places the new name too
    } else {
        place(names_.size() - 1);
    }
    return true;
}

void QubitIndex::place(std::size_t id) {
    const std::string_view name = names_[id];
    const std::uint64_t head = word(name.data(), name.size());
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(name, head);
    while (slots_[i].id != 0) i = (i + 1) & mask;
    slots_[i].key = std::bit_cast<std::array<std::uint32_t, 2>>(key_of(head, name.size()));
    slots_[i].id = static_cast<std::uint32_t>(id + 1);
}

void QubitIndex::rehash(std::size_t slots) {
    slots_.assign(slots, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (std::size_t id = 0; id < names_.size(); ++id) place(id);
}

} // namespace leqa::circuit
