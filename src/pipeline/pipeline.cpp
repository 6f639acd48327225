#include "pipeline/pipeline.h"

#include <algorithm>
#include <thread>

#include "parser/io.h"
#include "parser/readers.h"
#include "qspr/placement.h"
#include "synth/decompose.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace leqa::pipeline {

// ---------------------------------------------------------- RunControl --

void RunControl::checkpoint(const char* stage) const {
    if (cancel.load(std::memory_order_relaxed)) {
        throw util::CancelledError(std::string("run cancelled before stage ") + stage);
    }
    if (deadline.has_value() && std::chrono::steady_clock::now() > *deadline) {
        throw util::DeadlineError(std::string("deadline exceeded before stage ") +
                                  stage);
    }
}

// ---------------------------------------------------------- CacheStats --

std::string CacheStats::to_string() const {
    return "circuits " + std::to_string(circuit_hits) + " hit / " +
           std::to_string(circuit_misses) + " miss, graphs " +
           std::to_string(graph_hits) + " hit / " + std::to_string(graph_misses) +
           " miss, evictions " + std::to_string(evictions) + ", surfaces " +
           std::to_string(surface_hits) + " hit / " +
           std::to_string(surface_recomputes) + " recompute / " +
           std::to_string(surface_evictions) + " evict";
}

// ------------------------------------------------------- CachedCircuit --

const circuit::Circuit& CachedCircuit::ft() const {
    std::call_once(ft_once_, [this] {
        if (info_.synthesized) {
            ft_ = synth::ft_synthesize(pre_ft_, synth_options_).circuit;
        } else if (!netlist_path_.empty()) {
            ft_ = parser::parse_netlist(netlist_, netlist_path_);
        }
    });
    return ft_;
}

const iig::Iig& CachedCircuit::iig() const {
    std::call_once(iig_once_, [this] {
        iig_ = std::make_unique<const iig::Iig>(qodg_->interaction_graph());
    });
    return *iig_;
}

bool CachedCircuit::ensure_graphs() const {
    bool built_now = false;
    std::call_once(profile_once_, [&] {
        // The profile borrows the QODG; both live (and die) together here.
        profile_ = std::make_unique<const core::CircuitProfile>(
            core::CircuitProfile::build(*qodg_));
        built_now = true;
    });
    return built_now;
}

const core::CircuitProfile& CachedCircuit::profile() const {
    ensure_graphs();
    return *profile_;
}

// ------------------------------------------------------------ Pipeline --

namespace {

/// Thrown by TapeOutput at the first gate outside the FT set of a file
/// that will be synthesized: the read stops there.
struct PreFtGate {};

/// The netlist readers' output for a path source: every gate goes
/// straight to the QODG's tape, and `.name` is kept for CircuitInfo.
struct TapeOutput {
    qodg::Qodg::Builder& tape;
    bool stop_at_pre_ft = false;
    std::string name;

    circuit::Qubit add_qubit(std::string_view qubit) { return tape.add_qubit(qubit); }
    void add_gate(const circuit::Gate& gate) {
        if (stop_at_pre_ft && !gate.is_ft()) throw PreFtGate{};
        tape.add_gate(gate);
    }
    void set_name(std::string circuit_name) { name = std::move(circuit_name); }
};

} // namespace

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {
    config_.params.validate();
    LEQA_REQUIRE(config_.max_cached_circuits >= 1,
                 "pipeline cache must hold at least one circuit");
}

PipelineConfig Pipeline::config() const {
    const util::MutexLock lock(mutex_);
    return config_;
}

void Pipeline::set_params(const fabric::PhysicalParams& params) {
    params.validate();
    const util::MutexLock lock(mutex_);
    config_.params = params;
}

void Pipeline::set_leqa_options(const core::LeqaOptions& options) {
    const util::MutexLock lock(mutex_);
    config_.leqa = options;
}

void Pipeline::set_qspr_options(const qspr::QsprOptions& options) {
    const util::MutexLock lock(mutex_);
    config_.qspr = options;
}

std::string Pipeline::cache_key(const CircuitSource& source) const {
    std::string key = source.identity();
    key += "|synth:";
    if (!config_.auto_synthesize) {
        key += "off";
    } else {
        key += config_.synth.share_ancillas ? "share" : "fresh";
        if (config_.synth.keep_toffoli) key += ",toffoli";
        key += ",p=anc"; // the ancilla name prefix (anc0, anc1, ...)
    }
    // The full fabric description of the session parameters.  The cached
    // intermediates are circuit-only today, but keying on the fabric means
    // a session whose geometry or topology moves (set_params) can never
    // serve a profile cached under a different fabric — per-request
    // parameter overrides still share the session entry by design.
    key += "|fabric:" + fabric::topology_kind_name(config_.params.topology) + ":" +
           std::to_string(config_.params.width) + "x" +
           std::to_string(config_.params.height);
    return key;
}

CachedCircuitPtr Pipeline::resolve(const CircuitSource& source) {
    return resolve_timed(source, nullptr);
}

CachedCircuitPtr Pipeline::resolve_timed(const CircuitSource& source, double* seconds) {
    std::string key;
    synth::FtSynthOptions synth_options;
    bool auto_synthesize = true;
    std::shared_future<CachedCircuitPtr> pending;
    std::promise<CachedCircuitPtr> promise;
    {
        const util::MutexLock lock(mutex_);
        key = cache_key(source); // reads config_: keyed under the lock
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++stats_.circuit_hits;
            lru_.splice(lru_.begin(), lru_, it->second.lru_pos); // refresh LRU
            if (seconds != nullptr) *seconds = 0.0;
            return it->second.entry;
        }
        const auto inflight = inflight_.find(key);
        if (inflight != inflight_.end()) {
            pending = inflight->second; // someone else is building this key
        } else {
            inflight_.emplace(key, promise.get_future().share());
            synth_options = config_.synth;
            auto_synthesize = config_.auto_synthesize;
        }
    }

    if (pending.valid()) {
        // Wait for the in-flight builder instead of duplicating the parse +
        // synthesis; a builder failure rethrows here too.
        const util::Stopwatch wait_clock;
        CachedCircuitPtr entry = pending.get();
        const util::MutexLock lock(mutex_);
        ++stats_.circuit_hits;
        if (seconds != nullptr) *seconds = wait_clock.seconds();
        return entry;
    }

    // Build outside the lock: parsing, synthesis and the QODG dominate and
    // must not serialize unrelated batch work.
    const util::Stopwatch clock;
    CachedCircuitPtr entry;
    try {
        auto building = std::make_shared<CachedCircuit>();
        building->info_.cache_key = key;
        std::optional<circuit::Circuit> circ;
        if (source.kind() == CircuitSource::Kind::Path) {
            // The file is read once, and its reader streams into the tape;
            // ft() reads the kept text when a map first asks.
            std::string text = parser::read_file(source.spec());
            qodg::Qodg::Builder tape;
            tape.reserve_gates(parser::gates_to_reserve(text));
            TapeOutput out{tape, auto_synthesize, {}};
            try {
                parser::parse_netlist_into(text, source.spec(), out);
                building->info_.name = out.name.empty() ? source.display_name() : out.name;
                building->info_.pre_ft_gates = tape.size();
                building->qodg_ = std::make_unique<const qodg::Qodg>(std::move(tape));
                building->netlist_ = std::move(text);
                building->netlist_path_ = source.spec();
            } catch (const PreFtGate&) {
                // A pre-FT file: read it into a circuit that synthesizes.
                circ = parser::parse_netlist(text, source.spec());
            }
        } else {
            circ = source.load();
        }
        if (circ) {
            building->info_.name = circ->name().empty() ? source.display_name() : circ->name();
            building->info_.pre_ft_gates = circ->size();
            if (auto_synthesize && !circ->is_ft()) {
                // Synthesis streams into the QODG's tape; ft() reruns it on
                // the kept pre-FT circuit when a map first asks.
                qodg::Qodg::Builder tape;
                building->synth_stats_ = synth::synthesize_into(*circ, synth_options, tape);
                building->info_.synthesized = true;
                building->qodg_ = std::make_unique<const qodg::Qodg>(std::move(tape));
                building->pre_ft_ = std::move(*circ);
                building->synth_options_ = synth_options;
            } else {
                building->qodg_ = std::make_unique<const qodg::Qodg>(*circ);
                building->ft_ = std::move(*circ);
            }
        }
        building->info_.qubits = building->qodg_->num_qubits();
        building->info_.ft_ops = building->qodg_->num_ops();
        entry = std::move(building);
    } catch (...) {
        {
            const util::MutexLock lock(mutex_);
            inflight_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
    if (seconds != nullptr) *seconds = clock.seconds();

    {
        const util::MutexLock lock(mutex_);
        ++stats_.circuit_misses;
        inflight_.erase(key);
        lru_.push_front(key);
        cache_.emplace(key, Slot{entry, lru_.begin()});
        while (cache_.size() > config_.max_cached_circuits) {
            cache_.erase(lru_.back());
            lru_.pop_back();
            ++stats_.evictions;
        }
    }
    promise.set_value(entry);
    return entry;
}

void Pipeline::ensure_graphs(const CachedCircuit& entry) {
    const bool built = entry.ensure_graphs();
    const util::MutexLock lock(mutex_);
    if (built) {
        ++stats_.graph_misses;
    } else {
        ++stats_.graph_hits;
    }
}

void Pipeline::note_surface_stats(const core::SurfaceCacheStats& stats) {
    const util::MutexLock lock(mutex_);
    stats_.surface_hits += stats.hits;
    stats_.surface_recomputes += stats.recomputes;
    stats_.surface_evictions += stats.evictions;
}

EstimationResult Pipeline::run_impl(const EstimationRequest& request,
                                    const RunControl* control, const char*& stage) {
    const util::Stopwatch total;
    stage = "config";
    fabric::PhysicalParams params;
    core::LeqaOptions leqa_options;
    qspr::QsprOptions qspr_options;
    {
        const util::MutexLock lock(mutex_);
        params = request.params.value_or(config_.params);
        leqa_options = config_.leqa;
        qspr_options = config_.qspr;
    }
    params.validate();

    EstimationResult result;
    result.label = request.label.empty() ? request.source.display_name() : request.label;
    result.params = params;

    stage = "resolve";
    if (control != nullptr) control->checkpoint(stage);
    const CachedCircuitPtr entry = resolve_timed(request.source, &result.times.resolve_s);
    result.circuit = entry->info();

    if (request.mode != RunMode::Map) {
        stage = "estimate";
        if (control != nullptr) control->checkpoint(stage);
        const util::Stopwatch graphs_clock;
        ensure_graphs(*entry);
        result.times.graphs_s = graphs_clock.seconds();

        const core::EstimationEngine engine(params, leqa_options);
        const util::Stopwatch estimate_clock;
        result.estimate = engine.estimate(entry->profile());
        result.times.estimate_s = estimate_clock.seconds();
        note_surface_stats(engine.surface_cache_stats());
    }
    if (request.mode != RunMode::Estimate) {
        stage = "map";
        if (control != nullptr) control->checkpoint(stage);
        const qspr::QsprMapper mapper(params, qspr_options);
        const util::Stopwatch map_clock;
        result.mapping = mapper.map(entry->ft());
        result.times.map_s = map_clock.seconds();
    }
    result.times.total_s = total.seconds();
    return result;
}

EstimationResult Pipeline::run(const EstimationRequest& request,
                               const RunControl* control) {
    const char* stage = "config";
    return run_impl(request, control, stage);
}

util::Result<EstimationResult> Pipeline::run_result(const EstimationRequest& request,
                                                    const RunControl* control) {
    const char* stage = "config";
    try {
        return run_impl(request, control, stage);
    } catch (...) {
        return util::status_from_exception(std::current_exception(), stage);
    }
}

std::vector<util::Result<EstimationResult>> Pipeline::run_batch_results(
    const std::vector<EstimationRequest>& requests, std::size_t threads,
    const RunControl* control) {
    const std::size_t count = requests.size();
    if (threads == 0) {
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    threads = std::min(threads, count); // never more threads than requests

    std::vector<std::optional<util::Result<EstimationResult>>> slots(count);
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; ++i) {
            slots[i] = run_result(requests[i], control);
        }
    } else {
        std::atomic<std::size_t> next{0};
        const auto worker = [&] {
            for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
                slots[i] = run_result(requests[i], control);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(threads - 1);
        try {
            for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
        } catch (...) {
            // Unwinding past joinable threads would std::terminate; the
            // shared index hands every request to the workers that run.
        }
        worker();
        for (std::thread& t : pool) t.join();
    }

    std::vector<util::Result<EstimationResult>> results;
    results.reserve(count);
    for (std::optional<util::Result<EstimationResult>>& slot : slots) {
        results.push_back(std::move(*slot));
    }
    return results;
}

// --------------------------------------------------------------- sweeps --

namespace {

/// Adapt an optional RunControl to core's between-points hook.
std::function<void()> point_checkpoint(const RunControl* control, const char* stage) {
    if (control == nullptr) return {};
    return [control, stage] { control->checkpoint(stage); };
}

} // namespace

core::SweepResult Pipeline::sweep(const CircuitSource& source,
                                  const core::ExplorationSpec& spec,
                                  const RunControl* control) {
    // An explicitly empty axis never was a valid sweep; keep the historic
    // error text instead of falling through to a one-point base evaluation.
    LEQA_REQUIRE(!spec.topologies.empty() || !spec.sides.empty() ||
                     !spec.capacities.empty() || !spec.speeds.empty(),
                 "sweep has no feasible configurations");
    return core::SweepResult::from(explore_cached(source, spec, control, "sweep"));
}

core::SweepResult Pipeline::sweep_fabric_sides(const CircuitSource& source,
                                               const std::vector<int>& sides,
                                               const RunControl* control) {
    core::ExplorationSpec spec;
    spec.sides = sides;
    return sweep(source, spec, control);
}

core::SweepResult Pipeline::sweep_speed(const CircuitSource& source,
                                        const std::vector<double>& speeds,
                                        const RunControl* control) {
    core::ExplorationSpec spec;
    spec.speeds = speeds;
    return sweep(source, spec, control);
}

core::ExplorationResult Pipeline::explore(const CircuitSource& source,
                                          const core::ExplorationSpec& spec,
                                          const RunControl* control) {
    return explore_cached(source, spec, control, "explore");
}

core::ExplorationResult Pipeline::explore_cached(const CircuitSource& source,
                                                 const core::ExplorationSpec& spec,
                                                 const RunControl* control,
                                                 const char* stage) {
    if (control != nullptr) control->checkpoint("resolve");
    const CachedCircuitPtr entry = resolve(source);
    ensure_graphs(*entry);
    const auto [params, leqa_options] = snapshot_estimation_config();
    core::ExplorationResult result =
        core::explore(entry->profile(), params, spec, leqa_options,
                     point_checkpoint(control, stage));
    note_surface_stats(result.surface_cache);
    return result;
}

// --------------------------------------------------------- optimization --

core::OptimizeResult Pipeline::optimize(const CircuitSource& source,
                                        const core::OptimizeOptions& options,
                                        const std::optional<fabric::PhysicalParams>& params,
                                        const RunControl* control) {
    if (control != nullptr) control->checkpoint("resolve");
    const CachedCircuitPtr entry = resolve(source);
    ensure_graphs(*entry);

    fabric::PhysicalParams run_params;
    qspr::QsprOptions qspr_options;
    {
        const util::MutexLock lock(mutex_);
        run_params = params.value_or(config_.params);
        qspr_options = config_.qspr;
    }
    run_params.validate();
    LEQA_REQUIRE(entry->info().qubits <= static_cast<std::size_t>(run_params.area()),
                 "circuit has more logical qubits than the fabric has ULBs");

    // Start from the same placement the session mapper would use, so the
    // result reads directly as "improvement over the mapper's start".
    std::vector<fabric::UlbId> homes =
        qspr_options.initial_homes.empty()
            ? qspr::initial_placement(
                  fabric::FabricGeometry(fabric::make_topology(run_params)),
                  entry->info().qubits, qspr_options.placement,
                  qspr_options.seed)
            : qspr_options.initial_homes;

    return core::optimize_placement(entry->qodg(), entry->ft(), run_params,
                                    std::move(homes), options,
                                    point_checkpoint(control, "optimize"));
}

// ---------------------------------------------------------- calibration --

Pipeline::TrainingSet Pipeline::training_samples(
    const std::vector<CircuitSource>& sources, const RunControl* control) {
    fabric::PhysicalParams params;
    qspr::QsprOptions qspr_options;
    {
        const util::MutexLock lock(mutex_);
        params = config_.params;
        qspr_options = config_.qspr;
    }
    const qspr::QsprMapper mapper(params, qspr_options);
    TrainingSet training;
    training.circuits.reserve(sources.size());
    training.graph_samples.reserve(sources.size());
    for (const CircuitSource& source : sources) {
        if (control != nullptr) control->checkpoint("calibrate");
        CachedCircuitPtr entry = resolve(source);
        ensure_graphs(*entry);
        const double actual_us = mapper.map(entry->ft()).latency_us;
        training.graph_samples.push_back({&entry->qodg(), actual_us});
        training.circuits.push_back(std::move(entry));
    }
    return training;
}

core::CalibrationResult Pipeline::calibrate(const std::vector<CircuitSource>& training,
                                            const RunControl* control) {
    return calibrate(training_samples(training, control));
}

core::CalibrationResult Pipeline::calibrate(const TrainingSet& training) {
    const auto [params, leqa_options] = snapshot_estimation_config();
    return core::calibrate_v(training.graph_samples, params, leqa_options);
}

std::pair<fabric::PhysicalParams, core::LeqaOptions>
Pipeline::snapshot_estimation_config() const {
    const util::MutexLock lock(mutex_);
    return {config_.params, config_.leqa};
}

void Pipeline::apply_calibration(const core::CalibrationResult& result) {
    const util::MutexLock lock(mutex_);
    config_.params.v = result.v;
}

// ------------------------------------------------------------ cache mgmt --

CacheStats Pipeline::cache_stats() const {
    const util::MutexLock lock(mutex_);
    return stats_;
}

std::size_t Pipeline::cached_circuits() const {
    const util::MutexLock lock(mutex_);
    return cache_.size();
}

void Pipeline::clear_cache() {
    const util::MutexLock lock(mutex_);
    cache_.clear();
    lru_.clear();
}

} // namespace leqa::pipeline
