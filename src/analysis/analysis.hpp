// Umbrella header for the Stat4 static verifier.
#pragma once

#include "analysis/catalog.hpp"       // IWYU pragma: export
#include "analysis/constraints.hpp"   // IWYU pragma: export
#include "analysis/dataflow.hpp"      // IWYU pragma: export
#include "analysis/diagnostics.hpp"   // IWYU pragma: export
#include "analysis/hazards.hpp"       // IWYU pragma: export
#include "analysis/interval.hpp"      // IWYU pragma: export
#include "analysis/pass_manager.hpp"  // IWYU pragma: export
#include "analysis/passes.hpp"        // IWYU pragma: export
#include "analysis/pipeline_model.hpp"  // IWYU pragma: export
#include "analysis/precision.hpp"     // IWYU pragma: export
#include "analysis/symbolic.hpp"      // IWYU pragma: export
#include "analysis/validate.hpp"      // IWYU pragma: export
#include "analysis/verifier.hpp"      // IWYU pragma: export
