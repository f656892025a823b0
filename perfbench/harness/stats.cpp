#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::int64_t host_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::int64_t field = 0;
  std::int64_t steal = 0;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> field; ++i) {
    steal = field;
  }
  return cpu == "cpu" ? steal : 0;
}

namespace {

/// Steal ticks at \p at_ns, linearly between the surrounding samples.
double steal_at(const StealTimeline& timeline, std::int64_t at_ns) {
  if (timeline.empty()) {
    return 0.0;
  }
  const auto after = std::lower_bound(
      timeline.begin(), timeline.end(), at_ns,
      [](const auto& sample, std::int64_t t) { return sample.first < t; });
  if (after == timeline.begin()) {
    return static_cast<double>(after->second);
  }
  if (after == timeline.end()) {
    return static_cast<double>(timeline.back().second);
  }
  const auto before = after - 1;
  const double span = static_cast<double>(after->first - before->first);
  const double f =
      span > 0.0 ? static_cast<double>(at_ns - before->first) / span : 0.0;
  return static_cast<double>(before->second) +
         f * static_cast<double>(after->second - before->second);
}

}  // namespace

std::vector<Window> windowed_quantiles(const std::vector<Timed>& samples,
                                       std::int64_t length_ns, double q,
                                       std::size_t min_per_window,
                                       std::size_t max_windows,
                                       const StealTimeline& steal) {
  const std::size_t windows = std::clamp<std::size_t>(
      samples.size() / std::max<std::size_t>(1, min_per_window), 1,
      max_windows);
  std::vector<std::vector<double>> by_window(windows);
  for (const Timed& sample : samples) {
    const auto w = static_cast<std::size_t>(
        std::clamp<double>(static_cast<double>(sample.due_ns) /
                               static_cast<double>(length_ns) *
                               static_cast<double>(windows),
                           0.0, static_cast<double>(windows - 1)));
    by_window[w].push_back(sample.us);
  }
  std::vector<Window> figures;
  const double width =
      static_cast<double>(length_ns) / static_cast<double>(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    if (by_window[w].empty()) {
      continue;
    }
    const double begin = width * static_cast<double>(w);
    const double stolen =
        steal_at(steal, static_cast<std::int64_t>(begin + width)) -
        steal_at(steal, static_cast<std::int64_t>(begin));
    figures.push_back({quantile(std::move(by_window[w]), q),
                       stolen / (width / 1e9)});
  }
  return figures;
}

double calm_median(std::vector<Window> windows) {
  std::vector<double> steal;
  for (const Window& window : windows) {
    steal.push_back(window.steal);
  }
  const double calm = median(std::move(steal));
  std::vector<double> figures;
  for (const Window& window : windows) {
    if (window.steal <= calm) {
      figures.push_back(window.figure);
    }
  }
  return median(std::move(figures));
}

std::string number(double value) {
  char buffer[64];
  const auto [end, error] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return error == std::errc{} ? std::string(buffer, end) : std::string("0");
}

}  // namespace perfbench
