// The per-row oracle: expected reply bytes for every generated sample, from
// per-row calls on the public API (never the batch engines under test).

#include <algorithm>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "hdc/io/io.hpp"
#include "hdc/serve/serve.hpp"

namespace perfbench {

namespace {

/// The head `hdcgen serve --head` writes for a regressor.
hdc::serve::HeadMode head_mode(bool head) {
  return head ? hdc::serve::HeadMode::Band : hdc::serve::HeadMode::None;
}

// One reply line formatted exactly as `hdcgen serve --format plain` does.
class LineFormatter {
 public:
  explicit LineFormatter(hdc::serve::HeadMode head)
      : writer_(out_, hdc::serve::OutputFormat::Plain, false, head) {}

  std::string value(double prediction, const hdc::Band* band) {
    if (band != nullptr) {
      writer_.write_band(0, prediction, *band, 0.0);
    } else {
      writer_.write(0, prediction, 0.0);
    }
    return take();
  }
  std::string label(std::size_t label) {
    writer_.write_class(0, label, 0.0);
    return take();
  }

 private:
  std::string take() {
    std::string line = out_.str();
    out_.str(std::string());
    return line;
  }

  std::ostringstream out_;
  hdc::serve::PredictionWriter writer_;
};

/// Beijing rows go to the regressor (with the band head when asked); text
/// lines, which only the traced run's text pass serves, to the classifier.
std::string base_reply(const hdc::io::Pipeline& pipeline,
                       hdc::serve::HeadMode head, LineFormatter& format,
                       const Sample& sample, bool text) {
  if (text) {
    return format.label(pipeline.classify_text(sample.line));
  }
  const double value = pipeline.regress(sample.features);
  if (head == hdc::serve::HeadMode::None) {
    return format.value(value, nullptr);
  }
  const hdc::Band band =
      pipeline.regressor().predict_band(pipeline.encode(sample.features));
  return format.value(value, &band);
}

std::string adapted_reply(const hdc::serve::AdaptiveState& state,
                          hdc::serve::HeadMode head, LineFormatter& format,
                          const Sample& sample) {
  const double value = state.predict(sample.features);
  if (head == hdc::serve::HeadMode::None) {
    return format.value(value, nullptr);
  }
  const hdc::Band band = state.predict_band(sample.features);
  return format.value(value, &band);
}

}  // namespace

Oracle make_oracle(const std::string& snapshot, const Corpus& corpus,
                   bool head, std::size_t threads) {
  const hdc::io::LoadedPipeline loaded = hdc::io::load_pipeline(snapshot);
  const hdc::io::Pipeline& pipeline = loaded.pipeline;
  const hdc::serve::HeadMode mode = head_mode(head);
  Oracle oracle;
  oracle.base.resize(corpus.pool.size());
  threads = std::max<std::size_t>(1, threads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      LineFormatter format(mode);
      for (std::size_t i = t; i < corpus.pool.size(); i += threads) {
        oracle.base[i] =
            base_reply(pipeline, mode, format, corpus.pool[i], corpus.text);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  return oracle;
}

struct FeedbackReplay::State {
  const Corpus& corpus;
  std::uint64_t generation;
  hdc::serve::HeadMode head;
  hdc::serve::AdaptiveState adaptive;
  LineFormatter format;
};

FeedbackReplay::FeedbackReplay(const std::string& snapshot,
                               const Corpus& corpus, bool head,
                               std::uint64_t generation) {
  auto serving = std::make_shared<const hdc::serve::ServingState>(
      hdc::io::load_pipeline(snapshot), generation, snapshot);
  const hdc::serve::HeadMode mode = head_mode(head);
  state_.reset(new State{corpus, generation, mode,
                         hdc::serve::AdaptiveState(serving),
                         LineFormatter(mode)});
}

FeedbackReplay::~FeedbackReplay() = default;

FeedbackTraffic FeedbackReplay::step(const std::vector<Event>& events) {
  State& s = *state_;
  FeedbackTraffic traffic;
  for (const Event& event : events) {
    if (event.kind == EventKind::Read) {
      continue;
    }
    const Sample& sample = s.corpus.pool[event.sample];
    if (event.kind == EventKind::Feedback) {
      traffic.lines.push_back(sample.line + '\n');
      traffic.replies.push_back(
          adapted_reply(s.adaptive, s.head, s.format, sample));
      continue;
    }
    traffic.lines.push_back("!adapt " + number(sample.target) + ' ' +
                            sample.line + '\n');
    const hdc::serve::AdaptOutcome outcome =
        s.adaptive.adapt(sample.features, sample.target);
    traffic.replies.push_back(
        "!ok adapt predicted=" + number(outcome.predicted) +
        " updated=" + std::to_string(outcome.updated ? 1 : 0) +
        " feedback=" + std::to_string(outcome.feedback_rows) +
        " updates=" + std::to_string(outcome.updates) +
        " overlay_rows=" + std::to_string(outcome.overlay_rows) +
        " generation=" + std::to_string(s.generation) + "\n");
  }
  return traffic;
}

}  // namespace perfbench
