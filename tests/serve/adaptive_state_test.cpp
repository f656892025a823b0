// AdaptiveState: the serving-side overlay behind `!adapt` / `!use` /
// `!delta`.  Feedback over a pinned (mmapped) generation must leave the
// base bit-identical, the exported delta must restore the adapted model
// exactly through the reload path, every malformed feedback row must be
// rejected without touching the overlay, and an adapted batch must equal
// an independent per-row oracle — also while feedback races the readers.

#include "hdc/serve/adaptive_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"

namespace {

using hdc::CentroidClassifier;
using hdc::HDRegressor;
using hdc::io::SnapshotWriter;
using hdc::serve::AdaptiveState;
using hdc::serve::AdaptOutcome;
using hdc::serve::HeadMode;
using hdc::serve::Predictions;
using hdc::serve::SampleBatch;
using hdc::serve::ServingState;
using hdc::serve::ServingStatePtr;
namespace fixtures = hdc::io::fixtures;

std::string temp_file(const std::string& name) {
  const auto stamp = static_cast<unsigned long long>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return (std::filesystem::path(testing::TempDir()) /
          ("astate_" + std::to_string(stamp) + "_" + name))
      .string();
}

std::string write_classifier(const std::string& name) {
  const std::string path = temp_file(name);
  const fixtures::ClassifierPipeline models =
      fixtures::make_classifier_pipeline();
  SnapshotWriter writer;
  writer.add_pipeline(models.encoder, models.model);
  writer.write_file(path);
  return path;
}

std::string write_beijing(const std::string& name) {
  const std::string path = temp_file(name);
  const fixtures::BeijingPipeline models = fixtures::make_beijing_pipeline();
  SnapshotWriter writer;
  writer.add_pipeline(*models.encoder, models.model);
  writer.write_file(path);
  return path;
}

std::string write_text(const std::string& name) {
  const std::string path = temp_file(name);
  const fixtures::TextPipeline models = fixtures::make_text_pipeline();
  SnapshotWriter writer;
  writer.add_pipeline(models.encoder, models.model);
  writer.write_file(path);
  return path;
}

ServingStatePtr pin(const std::string& path) {
  return std::make_shared<const ServingState>(hdc::io::load_pipeline(path),
                                              0, path);
}

/// Deterministic 4-feature rows for the classifier pipeline.
std::vector<double> classifier_row(std::size_t i) {
  std::vector<double> row(4);
  for (std::size_t f = 0; f < row.size(); ++f) {
    row[f] = 23.0 * static_cast<double>(i) + 80.0 * static_cast<double>(f);
  }
  return row;
}

/// Deterministic 3-feature rows for the Beijing regressor pipeline.
std::vector<double> beijing_row(std::size_t i) {
  return {static_cast<double>(i % 5), static_cast<double>((i * 53) % 366),
          0.5 * static_cast<double>((i * 7) % 48)};
}

/// Deterministic raw-text rows for the text pipeline.
std::string text_row(std::size_t i) {
  static constexpr const char* kWords[] = {"lorem ipsum", "dolor sit amet",
                                           "quick brown fox", "zyx wvu tsr",
                                           "hdc basis", "circular data"};
  return std::string(kWords[i % 6]) + " " + std::to_string((i * 37) % 101);
}

/// Feeds labelled feedback until the overlay holds at least one row.
void adapt_until_touched(AdaptiveState& state, std::size_t num_classes) {
  for (std::size_t i = 0; state.overlay_rows() == 0 || i < 16; ++i) {
    ASSERT_LT(i, 4096U) << "no feedback row ever updated the model";
    const auto row = classifier_row(i);
    (void)state.adapt(row, static_cast<double>(i % num_classes));
  }
}

TEST(AdaptiveStateTest, ValidatesConstructionAndFeedback) {
  EXPECT_THROW(AdaptiveState(nullptr), std::invalid_argument);

  const std::string path = write_classifier("validate.hdcs");
  AdaptiveState state(pin(path));
  EXPECT_EQ(state.kind(), hdc::io::PipelineKind::Classifier);
  const auto row = classifier_row(0);
  // Non-integral, negative, out-of-range and non-finite targets must all
  // fail before any overlay row is created.
  for (const double target : {1.5, -1.0, 1e9, std::nan("")}) {
    EXPECT_THROW((void)state.adapt(row, target), std::invalid_argument)
        << "target " << target;
  }
  EXPECT_THROW((void)state.adapt(std::vector<double>{1.0, 2.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)state.predict(std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_EQ(state.overlay_rows(), 0U);
  EXPECT_EQ(state.feedback_rows(), 0U);
  std::filesystem::remove(path);
}

TEST(AdaptiveStateTest, AdaptBuildsOverlayAndReportsOutcomes) {
  const std::string path = write_classifier("outcomes.hdcs");
  const ServingStatePtr base = pin(path);
  AdaptiveState state(base);

  // Untouched: the adapted side predicts exactly as the base pipeline.
  for (std::size_t i = 0; i < 10; ++i) {
    const auto row = classifier_row(i);
    EXPECT_EQ(state.predict(row),
              static_cast<double>(base->pipeline().classify(row)));
  }

  std::uint64_t seen = 0;
  std::uint64_t updated = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    const auto row = classifier_row(i);
    const double before = state.predict(row);
    const AdaptOutcome outcome = state.adapt(row, static_cast<double>(i % 3));
    EXPECT_EQ(outcome.predicted, before) << "row " << i;
    ++seen;
    updated += outcome.updated ? 1U : 0U;
    EXPECT_EQ(outcome.feedback_rows, seen);
    EXPECT_EQ(outcome.updates, updated);
  }
  EXPECT_GT(updated, 0U);
  EXPECT_EQ(state.feedback_rows(), seen);
  EXPECT_EQ(state.updates(), updated);
  EXPECT_GT(state.overlay_rows(), 0U);
  EXPECT_EQ(state.changed_rows().size(), state.overlay_rows());

  state.reset();
  EXPECT_EQ(state.overlay_rows(), 0U);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto row = classifier_row(i);
    EXPECT_EQ(state.predict(row),
              static_cast<double>(base->pipeline().classify(row)));
  }
  std::filesystem::remove(path);
}

TEST(AdaptiveStateTest, ExportedDeltaRestoresTheAdaptedModelExactly) {
  const std::string path = write_classifier("export.hdcs");
  AdaptiveState state(pin(path));
  adapt_until_touched(state, 3);

  const std::string delta_path = temp_file("export.delta.hdcs");
  const std::size_t rows = state.export_delta(delta_path);
  EXPECT_EQ(rows, state.overlay_rows());
  ASSERT_TRUE(hdc::io::snapshot_is_delta(delta_path));

  // Reloading the delta against the base serves predictions bit-identical
  // to the live overlay — the acceptance criterion at the state layer.
  const auto patched = hdc::io::load_pipeline_or_delta(delta_path, path);
  for (std::size_t i = 0; i < 60; ++i) {
    const auto row = classifier_row(i);
    EXPECT_EQ(static_cast<double>(patched.pipeline.classify(row)),
              state.predict(row))
        << "row " << i;
  }

  // With nothing adapted there is no delta to export.
  state.reset();
  EXPECT_THROW((void)state.export_delta(delta_path), std::runtime_error);
  std::filesystem::remove(path);
  std::filesystem::remove(delta_path);
}

TEST(AdaptiveStateTest, RegressorFeedbackAdaptsAndExports) {
  const std::string path = write_beijing("regressor.hdcs");
  const ServingStatePtr base = pin(path);
  AdaptiveState state(base);
  EXPECT_EQ(state.kind(), hdc::io::PipelineKind::Regressor);

  const auto probe = [](std::size_t i) {
    return std::vector<double>{static_cast<double>(i % 5),
                               static_cast<double>((i * 53) % 366),
                               0.5 * static_cast<double>((i * 7) % 48)};
  };
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(state.predict(probe(i)),
                     base->pipeline().regress(probe(i)));
  }
  // Regressor targets are arbitrary reals: push every prediction toward
  // the opposite end of the label range until the model row is overlaid.
  for (std::size_t i = 0; state.overlay_rows() == 0 || i < 24; ++i) {
    ASSERT_LT(i, 4096U) << "regressor feedback never updated the model";
    (void)state.adapt(probe(i), i % 2 == 0 ? 1.0 : 0.0);
  }
  EXPECT_EQ(state.overlay_rows(), 1U);

  const std::string delta_path = temp_file("regressor.delta.hdcs");
  EXPECT_EQ(state.export_delta(delta_path), 1U);
  const auto patched = hdc::io::load_pipeline_or_delta(delta_path, path);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(patched.pipeline.regress(probe(i)),
                     state.predict(probe(i)))
        << "row " << i;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(delta_path);
}

TEST(AdaptiveStateTest, ExportAgainstTheWrongBaseIsRejected) {
  const std::string path = write_classifier("wrongbase.hdcs");
  const std::string other = write_beijing("otherbase.hdcs");
  // A generation whose tracked base is the beijing snapshot: its model
  // shape disagrees with the overlay's.
  AdaptiveState state(std::make_shared<const ServingState>(
      hdc::io::load_pipeline(path), 0, path, other));
  adapt_until_touched(state, 3);
  const std::string delta_path = temp_file("wrongbase.delta.hdcs");
  EXPECT_THROW((void)state.export_delta(delta_path), hdc::io::SnapshotError);
  std::filesystem::remove(path);
  std::filesystem::remove(other);
}

// --- The shared readout: an adapted batch equals a per-row oracle.

enum class Model { NumericClassifier, TextClassifier, Regressor };

/// The pinned pipeline's base class arena with \p state's changed rows
/// patched in: the adapted classifier, built without the overlay.
CentroidClassifier patched_base(const AdaptiveState& state) {
  const CentroidClassifier& base = state.base_state()->pipeline().classifier();
  const auto words = base.packed_class_words();
  std::vector<std::uint64_t> arena(words.begin(), words.end());
  for (const auto& [label, row] : state.changed_rows()) {
    std::ranges::copy(row, arena.begin() + static_cast<std::ptrdiff_t>(
                                               label * base.words_per_class()));
  }
  return CentroidClassifier::from_packed_class_words(
      base.num_classes(), base.dimension(), std::move(arena));
}

/// Feedback that disagrees with most predictions, until the classifier
/// overlay has touched at least two classes (or the regressor its row).
void feed(AdaptiveState& state, Model model) {
  const std::uint64_t want = model == Model::Regressor ? 1 : 2;
  for (std::size_t i = 0; state.overlay_rows() < want || i < 48; ++i) {
    ASSERT_LT(i, 4096U) << "feedback never updated the model";
    switch (model) {
      case Model::NumericClassifier:
        (void)state.adapt(classifier_row(i), static_cast<double>(i % 3));
        break;
      case Model::TextClassifier:
        (void)state.adapt(text_row(i), static_cast<double>((i + 1) % 3));
        break;
      case Model::Regressor:
        (void)state.adapt(beijing_row(i), i % 2 == 0 ? 1.0 : 0.0);
        break;
    }
  }
}

class AdaptedReadoutTest
    : public testing::TestWithParam<std::tuple<Model, bool, std::size_t>> {};

TEST_P(AdaptedReadoutTest, BatchEqualsPerRowOracle) {
  const auto [model, with_head, count] = GetParam();
  const std::string path =
      model == Model::NumericClassifier ? write_classifier("readout.hdcs")
      : model == Model::TextClassifier  ? write_text("readout_text.hdcs")
                                        : write_beijing("readout_reg.hdcs");
  const ServingStatePtr base = pin(path);
  AdaptiveState state(base);
  feed(state, model);
  const hdc::io::Pipeline& pipeline = base->pipeline();

  // Rows past the feedback range, so the batch is not the training set.
  std::vector<std::vector<double>> rows;
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = 1'000 + 3 * i;
    if (model == Model::TextClassifier) {
      texts.push_back(text_row(r));
    } else {
      rows.push_back(model == Model::Regressor ? beijing_row(r)
                                               : classifier_row(r));
    }
  }
  const SampleBatch batch =
      model == Model::TextClassifier
          ? SampleBatch(std::span<const std::string>(texts))
          : SampleBatch(std::span<const std::vector<double>>(rows));
  HeadMode head = HeadMode::None;
  if (with_head) {
    head = model == Model::Regressor ? HeadMode::Band : HeadMode::Confidence;
  }
  const Predictions got = state.predict(batch, head);
  ASSERT_EQ(got.predictions.size(), count);
  EXPECT_EQ(got.generation, base->generation());
  EXPECT_EQ(got.confidences.size(),
            with_head && model != Model::Regressor ? count : 0U);
  EXPECT_EQ(got.bands.size(),
            with_head && model == Model::Regressor ? count : 0U);

  if (model == Model::Regressor) {
    const HDRegressor oracle = state.regressor()->materialize();
    for (std::size_t i = 0; i < count; ++i) {
      const hdc::Hypervector encoded = pipeline.encode(rows[i]);
      EXPECT_EQ(got.predictions[i], oracle.predict(encoded)) << "row " << i;
      if (with_head) {
        const hdc::Band band = oracle.predict_band(encoded);
        EXPECT_EQ(got.bands[i].p10, band.p10) << "row " << i;
        EXPECT_EQ(got.bands[i].p50, band.p50) << "row " << i;
        EXPECT_EQ(got.bands[i].p90, band.p90) << "row " << i;
      }
    }
  } else {
    ASSERT_GE(state.changed_rows().size(), 2U);
    const CentroidClassifier oracle = patched_base(state);
    for (std::size_t i = 0; i < count; ++i) {
      const hdc::Hypervector encoded = model == Model::TextClassifier
                                           ? pipeline.encode_text(texts[i])
                                           : pipeline.encode(rows[i]);
      if (with_head) {
        const hdc::Top2 top = oracle.predict_top2(encoded);
        EXPECT_EQ(got.predictions[i], static_cast<double>(top.best.index))
            << "row " << i;
        EXPECT_EQ(got.confidences[i], hdc::margin_confidence(top))
            << "row " << i;
      } else {
        EXPECT_EQ(got.predictions[i],
                  static_cast<double>(oracle.predict(encoded)))
            << "row " << i;
      }
    }
  }
  std::filesystem::remove(path);
}

std::string readout_case_name(
    const testing::TestParamInfo<AdaptedReadoutTest::ParamType>& info) {
  static constexpr const char* kModels[] = {"Numeric", "Text", "Regressor"};
  const auto [model, with_head, count] = info.param;
  return std::string(kModels[static_cast<int>(model)]) +
         (with_head ? "Head" : "NoHead") + "Batch" + std::to_string(count);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsHeadsBatches, AdaptedReadoutTest,
    testing::Combine(testing::Values(Model::NumericClassifier,
                                     Model::TextClassifier, Model::Regressor),
                     testing::Bool(), testing::Values(1U, 7U, 64U)),
    readout_case_name);

TEST(AdaptiveStateTest, FeedbackRacingBatchReadersStaysConsistent) {
  // One feedback thread against three batch readers: every batch must be
  // well formed while rows are re-packed, and the final overlay must equal
  // a serial replay of the same feedback.  Run under TSan in CI.
  const std::string path = write_classifier("race.hdcs");
  const ServingStatePtr base = pin(path);
  AdaptiveState state(base);
  constexpr std::size_t kFeedback = 300;
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < 16; ++i) {
    rows.push_back(classifier_row(500 + i));
  }
  const SampleBatch batch = std::span<const std::vector<double>>(rows);

  // A fixed amount of work on each side, so a reader-heavy schedule cannot
  // starve the feedback thread.
  std::atomic<std::size_t> malformed{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      const HeadMode head = r == 0 ? HeadMode::None : HeadMode::Confidence;
      for (int k = 0; k < 200; ++k) {
        const Predictions out = state.predict(batch, head);
        const bool ok =
            out.predictions.size() == rows.size() &&
            out.confidences.size() ==
                (head == HeadMode::None ? 0 : rows.size()) &&
            std::ranges::all_of(out.predictions,
                                [](double p) { return p >= 0 && p < 3; }) &&
            std::ranges::all_of(out.confidences, [](double c) {
              return c >= 0.0 && c <= 1.0;
            });
        malformed += ok ? 0 : 1;
      }
    });
  }
  for (std::size_t i = 0; i < kFeedback; ++i) {
    (void)state.adapt(classifier_row(i), static_cast<double>(i % 3));
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(malformed.load(), 0U);

  AdaptiveState serial(base);
  for (std::size_t i = 0; i < kFeedback; ++i) {
    (void)serial.adapt(classifier_row(i), static_cast<double>(i % 3));
  }
  EXPECT_GT(state.overlay_rows(), 0U);
  EXPECT_EQ(state.changed_rows(), serial.changed_rows());
  const Predictions raced = state.predict(batch, HeadMode::Confidence);
  const Predictions replayed = serial.predict(batch, HeadMode::Confidence);
  EXPECT_EQ(raced.predictions, replayed.predictions);
  EXPECT_EQ(raced.confidences, replayed.confidences);
  std::filesystem::remove(path);
}

}  // namespace
