#include "synth/decompose.h"

namespace leqa::synth {

std::size_t ft_ops_for_mcx(std::size_t num_controls) {
    if (num_controls <= 1) return 1;
    if (num_controls == 2) return 15;
    return 2 * (num_controls - 1) * 15 + 1;
}

std::size_t ancillas_for_mcx(std::size_t num_controls) {
    return num_controls >= 3 ? num_controls - 1 : 0;
}

std::size_t ft_ops_for_mcswap(std::size_t num_controls) {
    if (num_controls == 0) return 3;
    if (num_controls == 1) return 45;
    return 2 * (num_controls - 1) * 15 + 45;
}

std::size_t ancillas_for_mcswap(std::size_t num_controls) {
    return num_controls >= 2 ? num_controls - 1 : 0;
}

} // namespace leqa::synth
