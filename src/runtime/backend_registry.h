// Backend registry: config.backend -> QrlBackend factory.
//
// Replaces the old if/else inside the Engine facade. The built-in
// backends (cycle-accurate Pipeline; a one-lane LaneEngine for kFast and
// kLanes) self-register on first use; register_backend exists so an
// out-of-tree backend (an RTL
// cosimulation bridge, a hardware device proxy) can slot in behind the
// same runtime surface without touching this layer.
#pragma once

#include <memory>

#include "env/environment.h"
#include "qtaccel/config.h"
#include "runtime/backend.h"

namespace qta::runtime {

using BackendFactory = std::unique_ptr<QrlBackend> (*)(
    const env::Environment& env, const qtaccel::PipelineConfig& config);

/// Installs (or replaces) the factory for `kind`. Thread-safe.
void register_backend(qtaccel::Backend kind, BackendFactory factory);

/// Builds the backend `config.backend` selects; aborts if no factory is
/// registered for it. Thread-safe.
std::unique_ptr<QrlBackend> make_backend(const env::Environment& env,
                                         const qtaccel::PipelineConfig& config);

}  // namespace qta::runtime
