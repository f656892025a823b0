// AdaptiveState: the serving-side overlay behind `!adapt` / `!use` /
// `!delta`.  Feedback over a pinned (mmapped) generation must leave the
// base bit-identical, the exported delta must restore the adapted model
// exactly through the reload path, and every malformed feedback row must be
// rejected without touching the overlay.

#include "hdc/serve/adaptive_state.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"

namespace {

using hdc::io::SnapshotWriter;
using hdc::serve::AdaptiveState;
using hdc::serve::AdaptOutcome;
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

}  // namespace
