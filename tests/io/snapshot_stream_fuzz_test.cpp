// Corrupted-file fuzzing of the two snapshot entry points that take a
// stream or a path rather than an in-memory image: the portable stream
// loader (`load_snapshot`, which verifies every payload eagerly) and the
// mmap reader (`MappedSnapshot::open`).  Every truncation and every
// single-bit flip of a small, padding-free basis or classifier snapshot
// must raise SnapshotError, so no corruption can yield a model.  The suite
// runs under the ASan/UBSan CI job, so "raises" also means no
// out-of-bounds read or undefined behaviour on the way.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hdc/core/basis_random.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/io/format.hpp"
#include "hdc/io/snapshot.hpp"

namespace {

using hdc::Basis;
using hdc::CentroidClassifier;
using hdc::Hypervector;
using hdc::Rng;
using hdc::io::MappedSnapshot;
using hdc::io::SnapshotError;
using hdc::io::SnapshotIntegrity;
using hdc::io::SnapshotWriter;

/// A one-basis snapshot; d = 70 exercises a partial tail word and m = 3
/// covers row-to-row boundaries.  Alignment 64 keeps the file a few hundred
/// bytes so the quadratic fuzz loops stay fast.
std::string basis_snapshot_bytes() {
  hdc::RandomBasisConfig config;
  config.dimension = 70;
  config.size = 3;
  config.seed = 97;
  const Basis basis = hdc::make_random_basis(config);
  SnapshotWriter writer(64);  // records a reference: basis outlives write()
  writer.add_basis(basis);
  std::ostringstream out;
  writer.write(out);
  return out.str();
}

/// A one-classifier snapshot at d = 70 with three classes.
std::string classifier_snapshot_bytes() {
  Rng rng(6);
  std::vector<Hypervector> class_vectors;
  for (int c = 0; c < 3; ++c) {
    class_vectors.push_back(Hypervector::random(70, rng));
  }
  const auto model =
      CentroidClassifier::from_class_vectors(std::move(class_vectors));
  SnapshotWriter writer(64);  // records a reference: model outlives write()
  writer.add_classifier(model);
  std::ostringstream out;
  writer.write(out);
  return out.str();
}

MappedSnapshot load(const std::string& bytes,
                    SnapshotIntegrity integrity = SnapshotIntegrity::Checksum) {
  std::istringstream in(bytes);
  return hdc::io::load_snapshot(in, integrity);
}

std::string flip_bit(std::string bytes, std::size_t pos, int bit) {
  bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                 (1U << bit));
  return bytes;
}

/// Packed words of a successfully loaded basis, after checking that the
/// object is internally consistent: header fields match the storage, every
/// row keeps the tail invariant, and the cleanup kernel stays in bounds.
std::vector<std::uint64_t> coherent_basis_words(const Basis& basis) {
  EXPECT_GT(basis.size(), 0U);
  EXPECT_EQ(basis.info().size, basis.size());
  EXPECT_EQ(basis.info().dimension, basis.dimension());
  EXPECT_EQ(basis.packed_words().size(),
            basis.size() * basis.words_per_vector());
  const std::uint64_t tail = hdc::bits::tail_mask(basis.dimension());
  for (std::size_t i = 0; i < basis.size(); ++i) {
    EXPECT_EQ(basis[i].words().back() & ~tail, 0ULL) << "row " << i;
    EXPECT_LT(basis.nearest(basis[i]), basis.size());
  }
  return {basis.packed_words().begin(), basis.packed_words().end()};
}

/// Class-vector rows of a successfully loaded classifier, after checking it
/// is finalized and predicts in range.
std::vector<Hypervector> coherent_class_vectors(
    const CentroidClassifier& model) {
  EXPECT_TRUE(model.finalized());
  EXPECT_GT(model.num_classes(), 0U);
  std::vector<Hypervector> rows;
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    EXPECT_LT(model.predict(model.class_vector(c)), model.num_classes());
    rows.emplace_back(model.class_vector(c));
  }
  return rows;
}

/// A one-section file at alignment 64 has no padding: the 64-byte header
/// and one 128-byte table entry end on the alignment boundary, and the
/// payload runs to the end of the file.  Every byte is then covered by a
/// structural rule or a checksum, so every single-bit flip must be refused.
void expect_no_uncovered_bytes(const std::string& bytes) {
  const auto layout = hdc::io::parse_snapshot_layout(
      {reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()});
  ASSERT_EQ(layout.sections.size(), 1U);
  EXPECT_EQ(layout.sections[0].payload_offset,
            64U + hdc::io::snapshot_entry_bytes);
  EXPECT_EQ(layout.sections[0].payload_offset +
                layout.sections[0].payload_bytes,
            bytes.size());
}

TEST(SnapshotStreamFuzzTest, EveryTruncationOfABasisFileThrows) {
  const std::string bytes = basis_snapshot_bytes();
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    EXPECT_THROW((void)load(bytes.substr(0, length)), SnapshotError)
        << "prefix length " << length;
  }
  // The untruncated file stays readable.
  const MappedSnapshot snapshot = load(bytes);
  (void)coherent_basis_words(snapshot.basis(0));
}

TEST(SnapshotStreamFuzzTest, EveryBitFlipOfABasisFileIsRejected) {
  const std::string bytes = basis_snapshot_bytes();
  expect_no_uncovered_bytes(bytes);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      EXPECT_THROW((void)load(flip_bit(bytes, pos, bit)), SnapshotError)
          << "byte " << pos << " bit " << bit;
    }
  }
  (void)coherent_basis_words(load(bytes).basis(0));
}

// The mmap reader has its own open/map path; every truncated file must be
// refused by open() itself, before any accessor runs.
TEST(SnapshotStreamFuzzTest, EveryTruncationOfAClassifierFileThrowsOnOpen) {
  const std::string bytes = classifier_snapshot_bytes();
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "truncated_classifier.hdcs")
          .string();
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes.substr(0, length);
    }
    EXPECT_THROW((void)MappedSnapshot::open(path), SnapshotError)
        << "prefix length " << length;
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const MappedSnapshot snapshot = MappedSnapshot::open(path);
  EXPECT_EQ(coherent_class_vectors(snapshot.classifier(0)),
            coherent_class_vectors(load(bytes).classifier(0)));
  std::filesystem::remove(path);
}

TEST(SnapshotStreamFuzzTest, EveryBitFlipOfAClassifierFileIsRejected) {
  const std::string bytes = classifier_snapshot_bytes();
  expect_no_uncovered_bytes(bytes);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      EXPECT_THROW((void)load(flip_bit(bytes, pos, bit)), SnapshotError)
          << "byte " << pos << " bit " << bit;
    }
  }
  (void)coherent_class_vectors(load(bytes).classifier(0));
}

// Trust integrity skips payload hashing by contract, but the header and
// section table are still fully validated: every flip before the first
// payload byte is refused.
TEST(SnapshotStreamFuzzTest, TrustModeStillRefusesEveryHeaderAndTableFlip) {
  const std::string bytes = basis_snapshot_bytes();
  const std::size_t table_end = 64 + hdc::io::snapshot_entry_bytes;
  for (std::size_t pos = 0; pos < table_end; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      EXPECT_THROW(
          (void)load(flip_bit(bytes, pos, bit), SnapshotIntegrity::Trust),
          SnapshotError)
          << "byte " << pos << " bit " << bit;
    }
  }
}

TEST(SnapshotStreamFuzzTest, ImplausibleHeaderFieldsAreRejectedWithoutAllocating) {
  // Corrupted count / size fields must fail validation before they size any
  // allocation: a section count past the cap, and a recorded file size far
  // beyond the bytes actually present.
  const std::string bytes = basis_snapshot_bytes();
  for (const std::size_t pos : {19UL, 31UL}) {  // section count, file size
    std::string corrupted = bytes;
    corrupted[pos] = '\x7F';
    EXPECT_THROW((void)load(corrupted), SnapshotError) << "byte " << pos;
  }
}

}  // namespace
