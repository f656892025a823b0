#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

/// \file layers.hpp
/// \brief The traced in-process replay: the seeded inputs pushed through the
/// public calls of io, serve, runtime, core and cluster with a span around
/// each call.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One printed metric and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct LayerConfig {
  std::uint64_t seed = 1;
  std::size_t threads = 1;  ///< the workload's `--threads`.
  std::size_t batch = 256;  ///< the workload's `--batch`.
  bool head = false;        ///< the workload serves `--head`.
  std::string beijing_snapshot;
  std::string text_snapshot;
  std::string trace_path;  ///< where the spans are dumped.
};

/// Runs the replay, prints the per-boundary call/row counts and self times,
/// dumps the spans, and returns the per-layer metrics.  Rows whose replayed
/// prediction disagrees with the per-row oracle are added to \p failed.
[[nodiscard]] std::vector<Metric> run_layers(const LayerConfig& config,
                                             std::size_t& attempted,
                                             std::size_t& failed);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_HPP
