// Round-trip and failure-injection tests for classifier snapshots (HDCS)
// and the inference-only restore semantics.

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "hdc/core/ops.hpp"
#include "hdc/io/snapshot.hpp"

namespace {

using hdc::CentroidClassifier;
using hdc::Hypervector;
using hdc::Rng;
using hdc::io::MappedSnapshot;
using hdc::io::SnapshotError;
using hdc::io::SnapshotWriter;

CentroidClassifier trained_model(Rng& rng,
                                 std::vector<Hypervector>* prototypes) {
  constexpr std::size_t dim = 4'096;
  CentroidClassifier model(3, dim, 5);
  for (int c = 0; c < 3; ++c) {
    prototypes->push_back(Hypervector::random(dim, rng));
  }
  for (int i = 0; i < 20; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      model.add_sample(c, hdc::flip_random_bits((*prototypes)[c], 400, rng));
    }
  }
  model.finalize();
  return model;
}

/// The snapshot bytes of a one-section file holding \p model.
std::string snapshot_bytes(const CentroidClassifier& model) {
  SnapshotWriter writer;
  writer.add_classifier(model);
  std::ostringstream out;
  writer.write(out);
  return out.str();
}

/// Reads \p bytes back as a heap-backed snapshot; the classifiers it hands
/// out borrow from it.
MappedSnapshot load(const std::string& bytes) {
  std::istringstream in(bytes);
  return hdc::io::load_snapshot(in);
}

TEST(ModelSerializationTest, ClassifierRoundTripPredictsIdentically) {
  Rng rng(1);
  std::vector<Hypervector> prototypes;
  const CentroidClassifier original = trained_model(rng, &prototypes);

  const MappedSnapshot snapshot = load(snapshot_bytes(original));
  const CentroidClassifier loaded = snapshot.classifier(0);

  EXPECT_EQ(loaded.num_classes(), original.num_classes());
  EXPECT_EQ(loaded.dimension(), original.dimension());
  EXPECT_TRUE(loaded.inference_only());
  EXPECT_TRUE(loaded.finalized());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(loaded.class_vector(c), original.class_vector(c));
  }
  // Identical predictions on noisy probes.
  for (int i = 0; i < 30; ++i) {
    const std::size_t c = static_cast<std::size_t>(i) % 3;
    const Hypervector probe = hdc::flip_random_bits(prototypes[c], 800, rng);
    EXPECT_EQ(loaded.predict(probe), original.predict(probe));
  }
}

TEST(ModelSerializationTest, UnfinalizedClassifierRejected) {
  CentroidClassifier model(2, 128, 1);
  SnapshotWriter writer;
  EXPECT_THROW(writer.add_classifier(model), SnapshotError);
}

TEST(ModelSerializationTest, LoadedModelIsInferenceOnly) {
  Rng rng(2);
  std::vector<Hypervector> prototypes;
  const CentroidClassifier original = trained_model(rng, &prototypes);
  const MappedSnapshot snapshot = load(snapshot_bytes(original));
  CentroidClassifier loaded = snapshot.classifier(0);

  const Hypervector sample = Hypervector::random(loaded.dimension(), rng);
  EXPECT_THROW(loaded.add_sample(0, sample), std::logic_error);
  EXPECT_THROW((void)loaded.adapt(0, sample), std::logic_error);
  EXPECT_NO_THROW((void)loaded.predict(sample));
}

TEST(ModelSerializationTest, FromClassVectorsValidates) {
  EXPECT_THROW((void)CentroidClassifier::from_class_vectors({}),
               std::invalid_argument);
  Rng rng(3);
  std::vector<Hypervector> mixed;
  mixed.push_back(Hypervector::random(64, rng));
  mixed.push_back(Hypervector::random(65, rng));
  EXPECT_THROW((void)CentroidClassifier::from_class_vectors(std::move(mixed)),
               std::invalid_argument);
}

TEST(ModelSerializationTest, RejectsTruncatedClassifierStream) {
  Rng rng(4);
  std::vector<Hypervector> prototypes;
  const CentroidClassifier original = trained_model(rng, &prototypes);
  const std::string full = snapshot_bytes(original);
  EXPECT_THROW((void)load(full.substr(0, full.size() / 2)), SnapshotError);
}

// Regression: a model loaded inference-only must *report* that state
// (finalized() / trainable()) so serving code can branch on it up front
// instead of discovering it via std::logic_error on the first update.
TEST(ModelSerializationTest, LoadedModelReportsQueryableTrainability) {
  Rng rng(6);
  std::vector<Hypervector> prototypes;
  const CentroidClassifier original = trained_model(rng, &prototypes);
  EXPECT_TRUE(original.trainable());
  EXPECT_FALSE(original.inference_only());

  const MappedSnapshot snapshot = load(snapshot_bytes(original));
  CentroidClassifier loaded = snapshot.classifier(0);

  EXPECT_TRUE(loaded.finalized());
  EXPECT_FALSE(loaded.trainable());
  EXPECT_TRUE(loaded.inference_only());
  // Every training-state mutator still throws, including the ones the
  // queryable state is meant to predict.
  const Hypervector sample = Hypervector::random(loaded.dimension(), rng);
  hdc::BundleAccumulator partial(loaded.dimension());
  partial.add(sample);
  EXPECT_THROW(loaded.absorb(0, partial), std::logic_error);
  EXPECT_THROW(loaded.finalize(), std::logic_error);
  // Restored models report zero accumulated samples, not stale counts.
  EXPECT_EQ(loaded.class_count(0), 0U);
  EXPECT_NO_THROW((void)loaded.predict(sample));
}

TEST(ModelSerializationTest, DetachYieldsOwningBitExactCopy) {
  Rng rng(7);
  std::vector<Hypervector> prototypes;
  const CentroidClassifier original = trained_model(rng, &prototypes);
  const MappedSnapshot snapshot = load(snapshot_bytes(original));
  const CentroidClassifier loaded = snapshot.classifier(0);
  EXPECT_FALSE(loaded.owns_storage());

  const CentroidClassifier copy = loaded.detach();
  EXPECT_TRUE(copy.owns_storage());
  EXPECT_EQ(copy.num_classes(), loaded.num_classes());
  for (std::size_t c = 0; c < copy.num_classes(); ++c) {
    EXPECT_EQ(copy.class_vector(c), loaded.class_vector(c));
  }
}

TEST(ModelSerializationTest, RejectsWrongTag) {
  // A basis section is not a classifier: the typed accessor refuses it.
  Rng rng(5);
  hdc::BasisInfo info;
  info.dimension = 64;
  info.size = 1;
  const hdc::Basis basis(info, {Hypervector::random(64, rng)});
  SnapshotWriter writer;
  writer.add_basis(basis);
  std::ostringstream out;
  writer.write(out);
  const MappedSnapshot snapshot = load(out.str());
  EXPECT_THROW((void)snapshot.classifier(0), SnapshotError);
}

}  // namespace
