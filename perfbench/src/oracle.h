/// \file oracle.h
/// \brief Recorded expected outputs and the shared end-of-run oracle.
///
/// `expected.json` is written once by `perfbench --record` (the benchmark's
/// definition time) and read by every run:
///   - "leqa_us": LEQA latencies from `LeqaEstimator::estimate_reference`
///     at the default fabric (compared at 1e-9 relative);
///   - "qspr_us": QSPR latencies of the mapped circuits;
///   - "optimize_us": final placed latencies of the seeded greedy optimizer;
///   - "explore": best index and latency checksum of each exploration, and
///     "sweep_us": latency checksum of each speed sweep.
#pragma once

#include <cstdint>
#include <string>

#include "bench.h"
#include "layers.h"
#include "util/json_value.h"

namespace perfbench {

class Expected {
public:
    [[nodiscard]] static Expected load(const std::string& path);

    [[nodiscard]] double leqa_us(const std::string& circuit) const;
    [[nodiscard]] double qspr_us(const std::string& circuit) const;
    [[nodiscard]] double optimize_us(const std::string& key) const;
    [[nodiscard]] std::size_t explore_best(const std::string& circuit) const;
    [[nodiscard]] double explore_checksum_us(const std::string& circuit) const;
    [[nodiscard]] double sweep_checksum_us(const std::string& circuit) const;

private:
    [[nodiscard]] double number(const std::string& section, const std::string& key) const;

    leqa::util::JsonValue doc_;
};

/// Compute every expected value and write it to \p path.
void record_expected(const std::string& path);

/// The small end-of-run oracle every workload runs, touching every layer:
/// bench: vs pre-FT .qasm vs FT .qasm of one circuit (and the recorded
/// reference), QSPR latencies, a small explore, a seeded greedy optimize,
/// and one served estimate compared byte for byte with a direct run.
/// Traced when the tracer is on.  Fixtures go to \p workdir.  Returns the
/// mean |LEQA - QSPR| / QSPR of the mapped circuits, in percent.
double run_common_oracle(const Expected& expected, Tally& tally, const std::string& workdir,
                         LayerInputs& inputs);

/// Write the pre-FT and FT .qasm fixtures of suite circuit \p name; returns
/// the FT op count.
std::size_t write_qasm_fixtures(const std::string& name, const std::string& qasm_path,
                                const std::string& ft_qasm_path);

} // namespace perfbench
