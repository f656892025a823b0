// Round-trip and failure-injection tests for bases and classifiers stored
// as HDCS snapshots and read back through the portable stream loader
// (`load_snapshot`): every basis family and word-boundary dimension
// survives bit-exactly with its metadata, and malformed files — bad magic,
// truncation, implausible fields, dirty tail bits, unknown basis kinds,
// the wrong section type — are refused before any model escapes.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hdc/core/basis_circular.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/basis_random.hpp"
#include "hdc/core/scatter_code.hpp"
#include "hdc/io/checksum.hpp"
#include "hdc/io/snapshot.hpp"

namespace {

using hdc::Basis;
using hdc::CentroidClassifier;
using hdc::Hypervector;
using hdc::Rng;
using hdc::io::MappedSnapshot;
using hdc::io::SnapshotError;
using hdc::io::SnapshotWriter;

std::span<const std::byte> as_bytes(const std::string& bytes) {
  return {reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()};
}

/// One snapshot file holding \p bases in order (alignment 64 keeps it small).
std::string snapshot_of(const std::vector<Basis>& bases) {
  SnapshotWriter writer(64);
  for (const Basis& basis : bases) {
    writer.add_basis(basis);
  }
  std::ostringstream out;
  writer.write(out);
  return out.str();
}

/// Reads \p bytes back through the stream loader (payloads verified).
MappedSnapshot load(const std::string& bytes) {
  std::istringstream in(bytes);
  return hdc::io::load_snapshot(in);
}

Basis random_basis(std::size_t d, std::size_t m, std::uint64_t seed) {
  hdc::RandomBasisConfig config;
  config.dimension = d;
  config.size = m;
  config.seed = seed;
  return hdc::make_random_basis(config);
}

void store_u64(std::string& bytes, std::size_t at, std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xFFU);
  }
}

/// Recomputes the header's table checksum after a table edit, so the
/// parser's semantic rules — not the checksum — decide the outcome.
std::string reseal_table(std::string bytes) {
  const std::size_t section_count =
      hdc::io::detail::load_u32(as_bytes(bytes), 16);
  const auto* raw = reinterpret_cast<const std::byte*>(bytes.data());
  store_u64(bytes, 32,
            hdc::io::xxhash64(
                {raw + 64, section_count * hdc::io::snapshot_entry_bytes},
                hdc::io::snapshot_version));
  return bytes;
}

/// Overwrites the u16 at \p field_offset of table entry \p entry and
/// reseals the table checksum.
std::string patch_entry_u16(std::string bytes, std::size_t entry,
                            std::size_t field_offset, std::uint16_t value) {
  const std::size_t at =
      64 + entry * hdc::io::snapshot_entry_bytes + field_offset;
  bytes[at] = static_cast<char>(value & 0xFFU);
  bytes[at + 1] = static_cast<char>((value >> 8) & 0xFFU);
  return reseal_table(std::move(bytes));
}

/// Overwrites the u64 at \p field_offset of table entry \p entry and
/// reseals the table checksum.
std::string patch_entry_u64(std::string bytes, std::size_t entry,
                            std::size_t field_offset, std::uint64_t value) {
  store_u64(bytes, 64 + entry * hdc::io::snapshot_entry_bytes + field_offset,
            value);
  return reseal_table(std::move(bytes));
}

void expect_same_basis(const Basis& loaded, const Basis& original) {
  EXPECT_EQ(loaded.info().kind, original.info().kind);
  EXPECT_EQ(loaded.info().method, original.info().method);
  EXPECT_EQ(loaded.info().dimension, original.info().dimension);
  EXPECT_EQ(loaded.info().size, original.info().size);
  EXPECT_DOUBLE_EQ(loaded.info().r, original.info().r);
  EXPECT_EQ(loaded.info().seed, original.info().seed);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i], original[i]) << "row " << i;
  }
}

TEST(SnapshotRoundTripTest, BasisRoundTripsAtWordBoundaryDimensions) {
  for (const std::size_t d : {1UL, 63UL, 64UL, 65UL, 10'000UL}) {
    const Basis original = random_basis(d, 3, d);
    const MappedSnapshot snapshot = load(snapshot_of({original}));
    expect_same_basis(snapshot.basis(0), original);
  }
}

TEST(SnapshotRoundTripTest, SeveralSectionsInOneFileReadBackInOrder) {
  const Basis a = random_basis(300, 2, 1);
  const Basis b = random_basis(300, 5, 2);
  Rng rng(3);
  const auto classifier = CentroidClassifier::from_class_vectors(
      {Hypervector::random(300, rng), Hypervector::random(300, rng)});

  SnapshotWriter writer(64);
  EXPECT_EQ(writer.add_basis(a), 0U);
  EXPECT_EQ(writer.add_classifier(classifier), 1U);
  EXPECT_EQ(writer.add_basis(b), 2U);
  std::ostringstream out;
  writer.write(out);

  const MappedSnapshot snapshot = load(out.str());
  ASSERT_EQ(snapshot.section_count(), 3U);
  expect_same_basis(snapshot.basis(0), a);
  expect_same_basis(snapshot.basis(2), b);
  const CentroidClassifier loaded = snapshot.classifier(1);
  for (std::size_t c = 0; c < classifier.num_classes(); ++c) {
    EXPECT_EQ(loaded.class_vector(c), classifier.class_vector(c));
  }
}

TEST(SnapshotRoundTripTest, OutOfRangeSectionIndexRejected) {
  const MappedSnapshot snapshot = load(snapshot_of({random_basis(64, 2, 4)}));
  EXPECT_THROW((void)snapshot.section(1), std::out_of_range);
  EXPECT_THROW((void)snapshot.basis(1), std::out_of_range);
  EXPECT_THROW((void)snapshot.section_words(1), std::out_of_range);
}

TEST(SnapshotRoundTripTest, BasisRoundTripPreservesEverything) {
  hdc::CircularBasisConfig config;
  config.dimension = 1'000;
  config.size = 10;
  config.r = 0.25;
  config.seed = 99;
  const Basis original = hdc::make_circular_basis(config);
  expect_same_basis(load(snapshot_of({original})).basis(0), original);
}

TEST(SnapshotRoundTripTest, AllBasisKindsRoundTrip) {
  std::vector<Basis> bases;
  bases.push_back(random_basis(200, 3, 1));
  {
    hdc::LevelBasisConfig c;
    c.dimension = 200;
    c.size = 4;
    c.method = hdc::LevelMethod::ExactFlip;
    c.seed = 2;
    bases.push_back(hdc::make_level_basis(c));
  }
  {
    hdc::LevelBasisConfig c;
    c.dimension = 200;
    c.size = 4;
    c.r = 0.5;
    c.seed = 3;
    bases.push_back(hdc::make_level_basis(c));
  }
  {
    hdc::ScatterBasisConfig c;
    c.dimension = 200;
    c.size = 5;
    c.seed = 4;
    bases.push_back(hdc::make_scatter_basis(c));
  }
  {
    hdc::CircularBasisConfig c;
    c.dimension = 200;
    c.size = 6;
    c.seed = 5;
    bases.push_back(hdc::make_circular_basis(c));
  }
  const MappedSnapshot snapshot = load(snapshot_of(bases));
  ASSERT_EQ(snapshot.section_count(), bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    SCOPED_TRACE("section " + std::to_string(i));
    expect_same_basis(snapshot.basis(i), bases[i]);
  }
}

TEST(SnapshotRoundTripTest, RejectsBadMagic) {
  EXPECT_THROW((void)load("NOPE....garbage"), SnapshotError);
  std::string bytes = snapshot_of({random_basis(64, 2, 6)});
  bytes[3] = 'X';  // "HDCX": the rest of the file is intact
  EXPECT_THROW((void)load(bytes), SnapshotError);
}

TEST(SnapshotRoundTripTest, RejectsWrongSectionType) {
  Rng rng(7);
  const auto classifier = CentroidClassifier::from_class_vectors(
      {Hypervector::random(64, rng), Hypervector::random(64, rng)});
  const Basis basis = random_basis(64, 2, 7);
  SnapshotWriter writer(64);  // records references: models outlive write()
  writer.add_basis(basis);
  writer.add_classifier(classifier);
  std::ostringstream out;
  writer.write(out);
  const MappedSnapshot snapshot = load(out.str());

  // Each typed accessor refuses a section of another type.
  EXPECT_THROW((void)snapshot.basis(1), SnapshotError);
  EXPECT_THROW((void)snapshot.regressor(0), SnapshotError);
  EXPECT_THROW((void)snapshot.regressor(1), SnapshotError);
  EXPECT_THROW((void)snapshot.scalar_encoder(0), SnapshotError);
  EXPECT_THROW((void)snapshot.feature_encoder(1), SnapshotError);
  EXPECT_THROW((void)snapshot.sequence_encoder(0), SnapshotError);
}

TEST(SnapshotRoundTripTest, RejectsTruncatedStream) {
  const std::string full = snapshot_of({random_basis(10'000, 2, 8)});
  for (const std::size_t keep :
       {0UL, 4UL, 5UL, 12UL, 63UL, 64UL, 200UL, full.size() - 8}) {
    EXPECT_THROW((void)load(full.substr(0, keep)), SnapshotError)
        << "kept " << keep << " bytes";
  }
}

TEST(SnapshotRoundTripTest, RejectsImplausibleDimension) {
  // Absurd dimension / row count fields with a valid table checksum must be
  // refused at parse, before any allocation sized by them.
  const std::string bytes = snapshot_of({random_basis(64, 2, 9)});
  for (const std::size_t field : {8UL, 16UL}) {  // dimension, count
    for (const std::uint64_t value :
         {~std::uint64_t{0}, hdc::io::snapshot_sanity_limit + 1}) {
      EXPECT_THROW((void)load(patch_entry_u64(bytes, 0, field, value)),
                   SnapshotError)
          << "field offset " << field << " value " << value;
    }
  }
}

TEST(SnapshotRoundTripTest, RejectsTailBitViolation) {
  // d = 60 with a bit set beyond the dimension in row 0, and the payload
  // checksum resealed over the dirty word: the checksum passes, so the
  // arena's tail-invariant check must refuse the basis.
  const std::string clean = snapshot_of({random_basis(60, 2, 10)});
  const auto layout = hdc::io::parse_snapshot_layout(as_bytes(clean));
  const auto& record = layout.sections[0];
  std::string dirty = clean;
  dirty[static_cast<std::size_t>(record.payload_offset) + 7] |= '\x80';
  const auto* raw = reinterpret_cast<const std::byte*>(dirty.data());
  const std::uint64_t payload_checksum = hdc::io::xxhash64(
      {raw + record.payload_offset,
       static_cast<std::size_t>(record.payload_bytes)});
  dirty = patch_entry_u64(dirty, 0, 72, payload_checksum);

  const MappedSnapshot snapshot = load(dirty);
  EXPECT_THROW((void)snapshot.basis(0), std::invalid_argument);
}

TEST(SnapshotRoundTripTest, RejectsCorruptedBasisHeader) {
  const std::string bytes = snapshot_of({random_basis(100, 2, 11)});
  // Unknown basis kind and unknown level method, each with a valid table
  // checksum.
  EXPECT_THROW((void)load(patch_entry_u16(bytes, 0, 2, 0x7F)), SnapshotError);
  EXPECT_THROW((void)load(patch_entry_u16(bytes, 0, 4, 0x7F)), SnapshotError);
  // A basis entry re-typed as a section type the format does not define.
  EXPECT_THROW((void)load(patch_entry_u16(bytes, 0, 0, 0x7F)), SnapshotError);
}

}  // namespace
