// Property suite for the copy-on-write adaptation overlays: the
// equivalences that make online learning over borrowed (mmap-backed)
// models safe to serve.  Overlay == base with its changed rows patched in,
// bit for bit; borrowed base == owning base bit for bit; and two replicas
// fed the same feedback stream build bit-identical overlays (the cluster
// broadcast correctness condition).

#include "hdc/core/adaptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "hdc/core/basis_level.hpp"
#include "hdc/core/classifier.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/core/regressor.hpp"
#include "hdc/core/scalar_encoder.hpp"

namespace {

using hdc::AdaptiveClassifier;
using hdc::AdaptiveRegressor;
using hdc::CentroidClassifier;
using hdc::checked_class_label;
using hdc::HDRegressor;
using hdc::Hypervector;
using hdc::kDefaultAdaptSeed;
using hdc::Rng;

constexpr std::size_t kDim = 1'030;  // partial tail word
constexpr std::size_t kClasses = 5;

/// A finalized trainable classifier plus an inference-only restore of the
/// same class-vectors — the owning twin of a snapshot-borrowed model.
struct ClassifierPair {
  std::shared_ptr<const CentroidClassifier> trained;
  std::shared_ptr<const CentroidClassifier> restored;
};

ClassifierPair make_classifier_pair(std::uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_shared<CentroidClassifier>(kClasses, kDim, seed);
  for (int i = 0; i < 40; ++i) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      model->add_sample(c, Hypervector::random(kDim, rng));
    }
  }
  model->finalize();
  std::vector<Hypervector> rows;
  for (std::size_t c = 0; c < kClasses; ++c) {
    rows.emplace_back(model->class_vector(c));
  }
  return {model, std::make_shared<const CentroidClassifier>(
                     CentroidClassifier::from_class_vectors(rows))};
}

/// Deterministic labelled feedback stream; some samples are deliberately
/// far from their label's centroid so adapt() actually fires.
std::vector<std::pair<std::size_t, Hypervector>> feedback_stream(
    std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::size_t, Hypervector>> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stream.emplace_back(i % kClasses, Hypervector::random(kDim, rng));
  }
  return stream;
}

TEST(AdaptiveClassifierTest, ConstructionValidates) {
  EXPECT_THROW(AdaptiveClassifier(nullptr, kDefaultAdaptSeed),
               std::invalid_argument);
  auto unfinalized = std::make_shared<CentroidClassifier>(2, 128, 1);
  EXPECT_THROW(AdaptiveClassifier(unfinalized, kDefaultAdaptSeed),
               std::logic_error);
}

TEST(AdaptiveClassifierTest, UntouchedOverlayIsBitIdenticalToBase) {
  const auto pair = make_classifier_pair(11);
  const AdaptiveClassifier overlay(pair.restored, kDefaultAdaptSeed);
  EXPECT_EQ(overlay.touched_classes(), 0U);
  EXPECT_TRUE(overlay.changed_rows().empty());
  Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    const auto query = Hypervector::random(kDim, rng);
    EXPECT_EQ(overlay.predict(query), pair.restored->predict(query));
  }
  // No update, no copy: the current model is the base itself.
  EXPECT_EQ(&overlay.current(), pair.restored.get());
}

TEST(AdaptiveClassifierTest, BorrowedAndOwningBasesBuildIdenticalOverlays) {
  // The restore path must not change adaptation: an overlay over the
  // inference-only restored model and one over the trainable original
  // (identical class-vectors) agree word for word after the same stream.
  const auto pair = make_classifier_pair(21);
  AdaptiveClassifier over_trained(pair.trained, kDefaultAdaptSeed);
  AdaptiveClassifier over_restored(pair.restored, kDefaultAdaptSeed);
  for (const auto& [label, sample] : feedback_stream(60, 22)) {
    EXPECT_EQ(over_trained.adapt(label, sample),
              over_restored.adapt(label, sample));
  }
  EXPECT_GT(over_restored.touched_classes(), 0U);
  EXPECT_EQ(over_trained.changed_rows(), over_restored.changed_rows());
  EXPECT_EQ(over_trained.updates(), over_restored.updates());
}

/// The independent oracle for an adapted classifier: the base arena with
/// the overlay's changed rows patched in.
CentroidClassifier patched_base(const CentroidClassifier& base,
                                const AdaptiveClassifier& overlay) {
  const auto words = base.packed_class_words();
  std::vector<std::uint64_t> arena(words.begin(), words.end());
  for (const auto& [label, row] : overlay.changed_rows()) {
    std::copy(row.begin(), row.end(),
              arena.begin() + static_cast<std::ptrdiff_t>(
                                  label * base.words_per_class()));
  }
  return CentroidClassifier::from_packed_class_words(
      base.num_classes(), base.dimension(), std::move(arena));
}

TEST(AdaptiveClassifierTest, OverlayPredictsBitIdenticallyToMaterialize) {
  const auto pair = make_classifier_pair(31);
  AdaptiveClassifier overlay(pair.restored, kDefaultAdaptSeed);
  for (const auto& [label, sample] : feedback_stream(80, 32)) {
    (void)overlay.adapt(label, sample);
  }
  ASSERT_GE(overlay.touched_classes(), 2U);
  const CentroidClassifier oracle = patched_base(*pair.restored, overlay);
  const CentroidClassifier flat = overlay.materialize();
  Rng rng(33);
  for (int i = 0; i < 100; ++i) {
    const auto query = Hypervector::random(kDim, rng);
    EXPECT_EQ(overlay.predict(query), oracle.predict(query));
    const hdc::Top2 got = overlay.current().predict_top2(query);
    const hdc::Top2 want = oracle.predict_top2(query);
    EXPECT_EQ(got.best.index, want.best.index);
    EXPECT_EQ(got.second.index, want.second.index);
    EXPECT_EQ(got.second.distance, want.second.distance);
    EXPECT_EQ(flat.predict(query), oracle.predict(query));
  }
  // Word for word: the adapted arena is the base arena with exactly the
  // changed rows patched in, and materialize() copies it.
  const auto adapted = overlay.current().packed_class_words();
  const auto expected = oracle.packed_class_words();
  EXPECT_TRUE(std::equal(adapted.begin(), adapted.end(), expected.begin(),
                         expected.end()));
  const auto copied = flat.packed_class_words();
  EXPECT_TRUE(std::equal(copied.begin(), copied.end(), expected.begin(),
                         expected.end()));
  // The base itself is never written.
  for (std::size_t c = 0; c < kClasses; ++c) {
    EXPECT_TRUE(pair.restored->class_vector(c) == pair.trained->class_vector(c))
        << "class " << c;
  }
}

TEST(AdaptiveClassifierTest, ReplicasWithSameSeedAreBitIdentical) {
  const auto pair = make_classifier_pair(51);
  AdaptiveClassifier rank0(pair.restored, kDefaultAdaptSeed);
  AdaptiveClassifier rank1(pair.restored, kDefaultAdaptSeed);
  for (const auto& [label, sample] : feedback_stream(100, 52)) {
    EXPECT_EQ(rank0.adapt(label, sample), rank1.adapt(label, sample));
  }
  EXPECT_EQ(rank0.changed_rows(), rank1.changed_rows());
  EXPECT_EQ(rank0.feedback_rows(), rank1.feedback_rows());
  EXPECT_EQ(rank0.updates(), rank1.updates());
}

TEST(AdaptiveClassifierTest, ResetRestoresTheBase) {
  const auto pair = make_classifier_pair(61);
  AdaptiveClassifier overlay(pair.restored, kDefaultAdaptSeed);
  for (const auto& [label, sample] : feedback_stream(30, 62)) {
    (void)overlay.adapt(label, sample);
  }
  ASSERT_GT(overlay.touched_classes(), 0U);
  overlay.reset();
  EXPECT_EQ(overlay.touched_classes(), 0U);
  Rng rng(63);
  for (int i = 0; i < 30; ++i) {
    const auto query = Hypervector::random(kDim, rng);
    EXPECT_EQ(overlay.predict(query), pair.restored->predict(query));
  }
}

TEST(AdaptiveClassifierTest, AdaptRepairsAPoisonedRestoredModel) {
  // The tentpole scenario: a restored (inference-only) model with a bad
  // class boundary, which before this PR could not adapt at all.  Feedback
  // through the overlay must repair it without touching the base.
  Rng rng(71);
  const auto proto_a = Hypervector::random(kDim, rng);
  const auto proto_b = Hypervector::random(kDim, rng);
  CentroidClassifier trained(2, kDim, 72);
  for (int i = 0; i < 30; ++i) {
    trained.add_sample(0, hdc::flip_random_bits(proto_a, kDim / 12, rng));
    trained.add_sample(1, hdc::flip_random_bits(proto_b, kDim / 12, rng));
  }
  for (int i = 0; i < 25; ++i) {  // poison class 1 with near-A samples
    trained.add_sample(1, hdc::flip_random_bits(proto_a, kDim / 12, rng));
  }
  trained.finalize();
  std::vector<Hypervector> rows;
  for (std::size_t c = 0; c < 2; ++c) {
    rows.emplace_back(trained.class_vector(c));
  }
  const auto restored = std::make_shared<const CentroidClassifier>(
      CentroidClassifier::from_class_vectors(rows));

  AdaptiveClassifier overlay(restored, kDefaultAdaptSeed);
  std::size_t wrong_before = 0;
  for (int i = 0; i < 50; ++i) {
    wrong_before +=
        overlay.predict(hdc::flip_random_bits(proto_a, kDim / 12, rng)) != 0
            ? 1U
            : 0U;
  }
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int i = 0; i < 40; ++i) {
      (void)overlay.adapt(0, hdc::flip_random_bits(proto_a, kDim / 12, rng));
      (void)overlay.adapt(1, hdc::flip_random_bits(proto_b, kDim / 12, rng));
    }
  }
  std::size_t wrong_after = 0;
  for (int i = 0; i < 50; ++i) {
    wrong_after +=
        overlay.predict(hdc::flip_random_bits(proto_a, kDim / 12, rng)) != 0
            ? 1U
            : 0U;
  }
  EXPECT_LE(wrong_after, wrong_before);
  EXPECT_EQ(wrong_after, 0U);
  // The base model itself is untouched (the mmap-safety property).
  for (std::size_t c = 0; c < 2; ++c) {
    const auto original = trained.class_vector(c);
    const auto base = restored->class_vector(c);
    EXPECT_TRUE(std::equal(original.words().begin(), original.words().end(),
                           base.words().begin()));
  }
}

TEST(AdaptiveClassifierTest, CheckedClassLabelRejectsBadTargets) {
  EXPECT_EQ(checked_class_label(0.0, 3), 0U);
  EXPECT_EQ(checked_class_label(2.0, 3), 2U);
  EXPECT_THROW((void)checked_class_label(2.5, 3), std::invalid_argument);
  EXPECT_THROW((void)checked_class_label(-1.0, 3), std::invalid_argument);
  EXPECT_THROW((void)checked_class_label(3.0, 3), std::invalid_argument);
  EXPECT_THROW(
      (void)checked_class_label(std::numeric_limits<double>::quiet_NaN(), 3),
      std::invalid_argument);
  EXPECT_THROW(
      (void)checked_class_label(std::numeric_limits<double>::infinity(), 3),
      std::invalid_argument);
}

/// A finalized regressor and its inference-only from_model restore.
struct RegressorPair {
  std::shared_ptr<const HDRegressor> trained;
  std::shared_ptr<const HDRegressor> restored;
};

RegressorPair make_regressor_pair(std::uint64_t seed) {
  hdc::LevelBasisConfig config;
  config.dimension = kDim;
  config.size = 16;
  config.seed = seed;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(config), 0.0, 1.0);
  auto model = std::make_shared<HDRegressor>(labels, seed + 1);
  for (int k = 0; k < 24; ++k) {
    const double x = static_cast<double>(k) / 23.0;
    model->add_sample(labels->encode(x), x);
  }
  model->finalize();
  return {model, std::make_shared<const HDRegressor>(HDRegressor::from_model(
                     labels, Hypervector(model->model())))};
}

TEST(AdaptiveRegressorTest, ConstructionValidates) {
  EXPECT_THROW(AdaptiveRegressor(nullptr, kDefaultAdaptSeed),
               std::invalid_argument);
}

TEST(AdaptiveRegressorTest, UntouchedOverlayMatchesBaseAndAdaptsInPlace) {
  const auto pair = make_regressor_pair(81);
  AdaptiveRegressor overlay(pair.restored, kDefaultAdaptSeed);
  EXPECT_FALSE(overlay.touched());
  EXPECT_TRUE(overlay.changed_rows().empty());
  const auto& labels = pair.restored->labels();
  for (int k = 0; k < 16; ++k) {
    const double x = static_cast<double>(k) / 15.0;
    EXPECT_DOUBLE_EQ(overlay.predict(labels.encode(x)),
                     pair.restored->predict(labels.encode(x)));
  }
  // Drive feedback toward a shifted target curve until an update fires.
  for (int k = 0; k < 48; ++k) {
    const double x = static_cast<double>(k % 16) / 15.0;
    (void)overlay.adapt(labels.encode(x), 1.0 - x);
  }
  EXPECT_TRUE(overlay.touched());
  EXPECT_GT(overlay.updates(), 0U);
  const auto changed = overlay.changed_rows();
  ASSERT_EQ(changed.size(), 1U);
  EXPECT_EQ(changed.begin()->first, 0U);
}

TEST(AdaptiveRegressorTest, OverlayPredictsBitIdenticallyToMaterialize) {
  const auto pair = make_regressor_pair(91);
  AdaptiveRegressor overlay(pair.restored, kDefaultAdaptSeed);
  const auto& labels = pair.restored->labels();
  for (int k = 0; k < 64; ++k) {
    const double x = static_cast<double>(k % 16) / 15.0;
    (void)overlay.adapt(labels.encode(x), 1.0 - x);
  }
  ASSERT_TRUE(overlay.touched());
  const HDRegressor flat = overlay.materialize();
  for (int k = 0; k < 32; ++k) {
    const double x = static_cast<double>(k) / 31.0;
    EXPECT_DOUBLE_EQ(overlay.predict(labels.encode(x)),
                     flat.predict(labels.encode(x)));
  }
  const auto flat_words = flat.model().words();
  const auto overlay_words = overlay.model_words();
  EXPECT_TRUE(std::equal(overlay_words.begin(), overlay_words.end(),
                         flat_words.begin()));
}

TEST(AdaptiveRegressorTest, BorrowedAndOwningBasesBuildIdenticalOverlays) {
  const auto pair = make_regressor_pair(101);
  AdaptiveRegressor over_trained(pair.trained, kDefaultAdaptSeed);
  AdaptiveRegressor over_restored(pair.restored, kDefaultAdaptSeed);
  const auto& labels = pair.restored->labels();
  for (int k = 0; k < 64; ++k) {
    const double x = static_cast<double>(k % 16) / 15.0;
    EXPECT_DOUBLE_EQ(over_trained.adapt(labels.encode(x), 1.0 - x),
                     over_restored.adapt(labels.encode(x), 1.0 - x));
  }
  EXPECT_EQ(over_trained.changed_rows(), over_restored.changed_rows());
  EXPECT_EQ(over_trained.updates(), over_restored.updates());
}

TEST(AdaptiveRegressorTest, ResetRestoresTheBase) {
  const auto pair = make_regressor_pair(111);
  AdaptiveRegressor overlay(pair.restored, kDefaultAdaptSeed);
  const auto& labels = pair.restored->labels();
  for (int k = 0; k < 48; ++k) {
    const double x = static_cast<double>(k % 16) / 15.0;
    (void)overlay.adapt(labels.encode(x), 1.0 - x);
  }
  ASSERT_TRUE(overlay.touched());
  overlay.reset();
  EXPECT_FALSE(overlay.touched());
  for (int k = 0; k < 16; ++k) {
    const double x = static_cast<double>(k) / 15.0;
    EXPECT_DOUBLE_EQ(overlay.predict(labels.encode(x)),
                     pair.restored->predict(labels.encode(x)));
  }
}

}  // namespace
