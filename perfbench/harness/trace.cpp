#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

std::uint32_t Tracer::begin(const char* name, std::uint64_t group,
                            std::uint32_t rows) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.group = group;
  span.rows = rows;
  open_.push_back(span.id);
  spans_.push_back(span);
  spans_.back().start_ns = now_ns();
  return span.id;
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) {
    return;
  }
  spans_[id - 1].end_ns = now_ns();
  open_.pop_back();
}

void Tracer::set_rows(std::uint32_t id, std::uint32_t rows) {
  if (id != 0) {
    spans_[id - 1].rows = rows;
  }
}

std::vector<Tracer::Layer> Tracer::layers() const {
  // Children of one single-threaded parent never overlap, so the part of a
  // span its children cover is the sum of their durations.
  std::vector<double> child_ns(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
  }
  std::map<std::string, Layer> by_name;
  std::map<std::string, std::vector<double>> durations;
  std::vector<std::string> order;
  for (const Span& span : spans_) {
    auto [it, inserted] = by_name.try_emplace(span.name);
    if (inserted) {
      it->second.name = span.name;
      order.push_back(span.name);
    }
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    it->second.calls += 1;
    it->second.rows += span.rows;
    it->second.total_ns += duration;
    it->second.self_ns += duration - child_ns[span.id];
    durations[span.name].push_back(duration);
  }
  std::vector<Layer> out;
  for (const std::string& name : order) {
    by_name[name].median_ns = median(std::move(durations[name]));
    out.push_back(by_name[name]);
  }
  return out;
}

Tracer::Layer Tracer::layer(const std::string& name) const {
  for (Layer& candidate : layers()) {
    if (candidate.name == name) {
      return candidate;
    }
  }
  throw std::logic_error("no spans named " + name);
}

void Tracer::dump(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"group\":" << s.group
        << ",\"rows\":" << s.rows << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench
