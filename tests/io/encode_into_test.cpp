// Allocation-free encoding is bit-exact: ComposedEncoder::encode_into and
// the Pipeline::batch_encoder engines (composed, key-value and scalar
// pipelines) must reproduce the per-row encode() for every dimension shape
// — one bit, a partial word, exactly one word, one word plus a bit, and
// the serving d = 10240.  Every output row starts as random garbage, so a
// writer that accumulates into its row instead of overwriting it fails.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hdc/base/rng.hpp"
#include "hdc/core/hdc.hpp"
#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"
#include "hdc/runtime/runtime.hpp"

namespace {

using hdc::ComposedEncoder;
using hdc::Hypervector;
using hdc::Rng;
using hdc::io::MappedSnapshot;
using hdc::io::Pipeline;
using hdc::io::SnapshotWriter;
namespace fixtures = hdc::io::fixtures;

const std::size_t kDimensions[] = {1, 63, 64, 65, 10240};

std::vector<std::uint64_t> garbage_row(std::size_t dimension, Rng& rng) {
  std::vector<std::uint64_t> row(hdc::bits::words_for(dimension));
  for (std::uint64_t& word : row) {
    word = rng();
  }
  return row;
}

/// Asserts \p words are exactly \p expected's packed words.
void expect_words(std::span<const std::uint64_t> words,
                  const Hypervector& expected, const std::string& what) {
  const auto want = expected.words();
  ASSERT_EQ(words.size(), want.size()) << what;
  for (std::size_t w = 0; w < words.size(); ++w) {
    ASSERT_EQ(words[w], want[w]) << what << ", word " << w;
  }
}

/// Feature rows spanning each encoder's domain, with values outside it
/// (clamped or wrapped) and on its edges.
std::vector<std::vector<double>> feature_rows(std::size_t width,
                                              std::size_t count, Rng& rng) {
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> row(width);
    for (double& value : row) {
      value = i % 7 == 0 ? static_cast<double>(i % 3) - 1.0
                         : rng.uniform(-2.0, 400.0);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(EncodeIntoTest, ComposedEncoderOverwritesItsRowWithEncode) {
  for (const std::size_t d : kDimensions) {
    SCOPED_TRACE("d=" + std::to_string(d));
    hdc::RandomBasisConfig random_config;
    random_config.dimension = d;
    random_config.size = 9;
    random_config.seed = 71;
    std::vector<hdc::ScalarEncoderPtr> parts{
        std::make_shared<hdc::LinearScalarEncoder>(
            fixtures::make_basis(hdc::BasisKind::Level, {d, 5, 72}), 0.0,
            4.0),
        std::make_shared<hdc::CircularScalarEncoder>(
            fixtures::make_basis(hdc::BasisKind::Circular, {d, 12, 73}),
            366.0),
        std::make_shared<hdc::CircularScalarEncoder>(
            hdc::make_random_basis(random_config), 24.0),
        std::make_shared<hdc::LinearScalarEncoder>(
            fixtures::make_basis(hdc::BasisKind::Random, {d, 6, 74}), -1.0,
            1.0)};
    Rng rng(75 + d);
    // Two parts bind through one xor_rows; three and four add xor_into.
    for (std::size_t width = 2; width <= parts.size(); ++width) {
      const ComposedEncoder encoder(
          {parts.begin(), parts.begin() + static_cast<std::ptrdiff_t>(width)});
      for (const auto& row : feature_rows(width, 40, rng)) {
        std::vector<std::uint64_t> out = garbage_row(d, rng);
        encoder.encode_into(row, out);
        const Hypervector expected = encoder.encode(row);
        expect_words(out, expected, "width " + std::to_string(width));
        // encode() is the same XOR product the parts give one by one.
        Hypervector bound(parts[0]->encode(row[0]));
        for (std::size_t i = 1; i < width; ++i) {
          bound ^= parts[i]->encode(row[i]);
        }
        ASSERT_EQ(expected, bound);
      }
    }
    const ComposedEncoder encoder({parts[0], parts[1]});
    std::vector<std::uint64_t> out(hdc::bits::words_for(d));
    const std::vector<double> three{1.0, 2.0, 3.0};
    EXPECT_THROW(encoder.encode_into(three, out), std::invalid_argument);
    std::vector<std::uint64_t> wide(hdc::bits::words_for(d) + 1);
    const std::vector<double> two{1.0, 2.0};
    EXPECT_THROW(encoder.encode_into(two, wide), std::invalid_argument);
  }
}

/// Writes \p writer to a temp file and restores its pipeline from the
/// mapping, which \p snapshot keeps alive.
Pipeline restore_pipeline(const SnapshotWriter& writer,
                          const std::string& name,
                          std::optional<MappedSnapshot>& snapshot) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / name).string();
  writer.write_file(path);
  snapshot.emplace(MappedSnapshot::open(path));
  std::filesystem::remove(path);
  return Pipeline::restore(*snapshot);
}

TEST(EncodeIntoTest, PipelineBatchEncodersMatchPerRowEncode) {
  const auto pool = std::make_shared<hdc::runtime::ThreadPool>(3);
  for (const std::size_t d : kDimensions) {
    const fixtures::FixtureSpec spec{d, 5, 2023 + d};
    // Process-unique names: ctest runs each TEST as its own process.
    const std::string stem =
        "encode_into_" + std::to_string(d) + "_" +
        std::to_string(static_cast<unsigned long long>(
            std::chrono::steady_clock::now().time_since_epoch().count()));
    // The writers borrow the models, which must outlive write_file().
    const fixtures::BeijingPipeline beijing =
        fixtures::make_beijing_pipeline(spec);
    const fixtures::ClassifierPipeline gestures =
        fixtures::make_classifier_pipeline(spec);
    const fixtures::RegressorPipeline seasonal =
        fixtures::make_regressor_pipeline(spec);
    SnapshotWriter composed;
    composed.add_pipeline(*beijing.encoder, beijing.model);
    SnapshotWriter key_value;
    key_value.add_pipeline(gestures.encoder, gestures.model);
    SnapshotWriter scalar;
    scalar.add_pipeline(*seasonal.encoder, seasonal.model);
    std::optional<MappedSnapshot> mappings[3];
    const struct {
      const char* name;
      Pipeline pipeline;
    } cases[] = {
        {"composed",
         restore_pipeline(composed, stem + "_composed.hdcs", mappings[0])},
        {"key-value",
         restore_pipeline(key_value, stem + "_key_value.hdcs", mappings[1])},
        {"scalar",
         restore_pipeline(scalar, stem + "_scalar.hdcs", mappings[2])},
    };
    for (const auto& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " pipeline, d=" + std::to_string(d));
      const Pipeline& pipeline = c.pipeline;
      ASSERT_EQ(pipeline.dimension(), d);
      Rng rng(91 + d);
      const auto rows = feature_rows(pipeline.num_features(), 37, rng);
      const hdc::runtime::BatchEncoder encoder = pipeline.batch_encoder(pool);
      const hdc::runtime::VectorArena arena = encoder.encode(rows);
      ASSERT_EQ(arena.size(), rows.size());
      EXPECT_TRUE(arena.tails_clean());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Hypervector expected = pipeline.encode(rows[i]);
        expect_words(arena.words(i), expected,
                     "arena row " + std::to_string(i));
        std::vector<std::uint64_t> out = garbage_row(d, rng);
        encoder.encode_into(rows[i], out);
        expect_words(out, expected, "row " + std::to_string(i));
      }
      std::vector<std::uint64_t> wide(hdc::bits::words_for(d) + 1);
      EXPECT_THROW(encoder.encode_into(rows[0], wide),
                   std::invalid_argument);
    }
  }
}

}  // namespace
