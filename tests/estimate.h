/// \file estimate.h
/// \brief LEQA's estimate of one FT circuit for the tests: the staged
///        engine on a freshly built profile, as `Pipeline::run` computes it.
#pragma once

#include "circuit/circuit.h"
#include "core/engine.h"
#include "core/leqa.h"
#include "fabric/params.h"
#include "iig/iig.h"
#include "qodg/qodg.h"

namespace leqa::test_support {

/// Build the QODG, IIG and profile of \p circ and estimate it at \p params.
inline core::LeqaEstimate estimate(const circuit::Circuit& circ,
                                   const fabric::PhysicalParams& params,
                                   const core::LeqaOptions& options = {}) {
    const qodg::Qodg graph(circ);
    const iig::Iig iig(circ);
    return core::EstimationEngine(params, options)
        .estimate(core::CircuitProfile::build(graph, iig));
}

} // namespace leqa::test_support
