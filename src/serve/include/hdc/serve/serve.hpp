#ifndef HDC_SERVE_SERVE_HPP
#define HDC_SERVE_SERVE_HPP

/// \file serve.hpp
/// \brief Umbrella header: the full public API of the hdc::serve subsystem.

#include "hdc/serve/adaptive_state.hpp"     // IWYU pragma: export
#include "hdc/serve/local_predictor.hpp"    // IWYU pragma: export
#include "hdc/serve/micro_batcher.hpp"      // IWYU pragma: export
#include "hdc/serve/net_server.hpp"         // IWYU pragma: export
#include "hdc/serve/prediction_writer.hpp"  // IWYU pragma: export
#include "hdc/serve/predictor.hpp"          // IWYU pragma: export
#include "hdc/serve/row_reader.hpp"         // IWYU pragma: export
#include "hdc/serve/server.hpp"             // IWYU pragma: export
#include "hdc/serve/swap_state.hpp"         // IWYU pragma: export

#endif  // HDC_SERVE_SERVE_HPP
