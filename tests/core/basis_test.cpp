// Tests for the Basis container: invariants, nearest-neighbour cleanup and
// pairwise matrices.

#include "hdc/core/basis.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "hdc/core/basis_random.hpp"
#include "hdc/core/ops.hpp"

namespace {

using hdc::Basis;
using hdc::BasisInfo;
using hdc::Hypervector;
using hdc::Rng;

Basis small_basis(std::size_t m, std::size_t d, std::uint64_t seed) {
  hdc::RandomBasisConfig config;
  config.dimension = d;
  config.size = m;
  config.seed = seed;
  return hdc::make_random_basis(config);
}

TEST(BasisTest, RejectsEmptySet) {
  BasisInfo info;
  info.size = 0;
  EXPECT_THROW(Basis(info, std::vector<Hypervector>{}), std::invalid_argument);
}

TEST(BasisTest, RejectsSizeMismatch) {
  Rng rng(1);
  std::vector<Hypervector> vectors;
  vectors.push_back(Hypervector::random(100, rng));
  BasisInfo info;
  info.dimension = 100;
  info.size = 2;  // wrong: only one vector supplied
  EXPECT_THROW(Basis(info, std::move(vectors)), std::invalid_argument);
}

TEST(BasisTest, RejectsDimensionMismatch) {
  Rng rng(1);
  std::vector<Hypervector> vectors;
  vectors.push_back(Hypervector::random(100, rng));
  vectors.push_back(Hypervector::random(101, rng));
  BasisInfo info;
  info.dimension = 100;
  info.size = 2;
  EXPECT_THROW(Basis(info, std::move(vectors)), std::invalid_argument);
}

TEST(BasisTest, CheckedAccessThrowsOutOfRange) {
  const Basis basis = small_basis(4, 256, 3);
  EXPECT_NO_THROW((void)basis.at(3));
  EXPECT_THROW((void)basis.at(4), std::out_of_range);
}

TEST(BasisTest, NearestFindsExactMember) {
  const Basis basis = small_basis(16, 10'000, 4);
  for (std::size_t i = 0; i < basis.size(); ++i) {
    EXPECT_EQ(basis.nearest(basis[i]), i);
  }
}

TEST(BasisTest, NearestSurvivesNoise) {
  const Basis basis = small_basis(16, 10'000, 5);
  Rng rng(6);
  for (std::size_t i = 0; i < basis.size(); ++i) {
    // 20% corruption still leaves the true member by far the closest.
    const Hypervector noisy = hdc::flip_random_bits(basis[i], 2'000, rng);
    EXPECT_EQ(basis.nearest(noisy), i);
  }
}

TEST(BasisTest, NearestValidatesDimension) {
  const Basis basis = small_basis(4, 128, 7);
  Rng rng(8);
  const auto query = Hypervector::random(64, rng);
  EXPECT_THROW((void)basis.nearest(query), std::invalid_argument);
}

TEST(BasisTest, PairwiseDistancesAreSymmetricWithZeroDiagonal) {
  const Basis basis = small_basis(8, 2'048, 9);
  const auto dist = basis.pairwise_distances();
  ASSERT_EQ(dist.size(), 8U);
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_EQ(dist[i].size(), 8U);
    EXPECT_DOUBLE_EQ(dist[i][i], 0.0);
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(dist[i][j], dist[j][i]);
      EXPECT_DOUBLE_EQ(dist[i][j],
                       hdc::normalized_distance(basis[i], basis[j]));
    }
  }
}

TEST(BasisTest, SimilaritiesAreOneMinusDistances) {
  const Basis basis = small_basis(5, 1'024, 10);
  const auto dist = basis.pairwise_distances();
  const auto sims = basis.pairwise_similarities();
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(sims[i][j], 1.0 - dist[i][j]);
    }
  }
}

TEST(BasisTest, NearestBreaksTiesTowardTheLowestIndex) {
  // Construct bases whose rows are exactly equidistant from a chosen query:
  // duplicated rows, and rows at symmetric single-bit offsets.  The
  // documented contract (ties keep the lowest index) must hold on both the
  // typed path and the raw-words path, across tail-word shapes.
  for (const std::size_t d : {64UL, 70UL, 130UL}) {
    Rng rng(100 + d);
    const Hypervector a = Hypervector::random(d, rng);
    Hypervector b = a;
    b.flip_bit(0);
    Hypervector c = a;
    c.flip_bit(d - 1);

    BasisInfo info;
    info.dimension = d;
    info.size = 4;
    // Rows 1 and 2 are both at distance 1 from `a`; row 3 duplicates row 1.
    const Basis basis(info, std::vector<Hypervector>{a, b, c, b});

    EXPECT_EQ(basis.nearest(a), 0U) << "d " << d;          // exact hit
    EXPECT_EQ(basis.nearest(b), 1U) << "d " << d;          // dup: 1 over 3
    Hypervector far = a;
    far.flip_bit(0);
    far.flip_bit(d - 1);  // distance 1 from rows 1 and 2, 2 from row 0
    EXPECT_EQ(basis.nearest(far), 1U) << "d " << d;        // tie: 1 over 2
    EXPECT_EQ(basis.nearest_words(far.words()), 1U) << "d " << d;
  }
}

TEST(BasisTest, NearestWordsRejectsWrongWordCount) {
  const Basis basis = small_basis(4, 130, 11);  // 3 words per vector
  const std::vector<std::uint64_t> short_query(2, 0ULL);
  const std::vector<std::uint64_t> long_query(4, 0ULL);
  EXPECT_THROW((void)basis.nearest_words(short_query), std::invalid_argument);
  EXPECT_THROW((void)basis.nearest_words(long_query), std::invalid_argument);
  const std::vector<std::uint64_t> exact(3, 0ULL);
  EXPECT_NO_THROW((void)basis.nearest_words(exact));
}

TEST(BasisTest, PackedArenaIsTheOnlyVectorStorage) {
  // The arena must account for every resident vector byte: m rows of
  // words_for(d) words, and nothing duplicated per Hypervector.
  const std::size_t d = 10'240;
  const std::size_t m = 16;
  const Basis basis = small_basis(m, d, 12);
  const std::size_t arena_bytes =
      m * hdc::bits::words_for(d) * sizeof(std::uint64_t);
  EXPECT_EQ(basis.packed_words().size() * sizeof(std::uint64_t), arena_bytes);
  EXPECT_EQ(basis.resident_bytes(), arena_bytes);
}

TEST(BasisTest, AdoptsPrepackedArenaZeroCopy) {
  const Basis original = small_basis(5, 70, 13);
  const std::vector<std::uint64_t> packed(original.packed_words().begin(),
                                          original.packed_words().end());
  const Basis adopted(original.info(), std::span(packed), hdc::borrowed);
  EXPECT_FALSE(adopted.owns_storage());
  EXPECT_EQ(adopted.packed_words().data(), packed.data());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(adopted[i] == original[i]) << "row " << i;
  }

  // Arena validation: wrong word count and dirty tail bits are rejected.
  const std::span<const std::uint64_t> wrong_count(packed.data(),
                                                   packed.size() - 1);
  EXPECT_THROW(Basis(original.info(), wrong_count, hdc::borrowed),
               std::invalid_argument);
  std::vector<std::uint64_t> dirty = packed;
  dirty[1] |= 1ULL << 63;  // bit 127 of row 0: beyond dimension 70
  EXPECT_THROW(Basis(original.info(), std::span(dirty), hdc::borrowed),
               std::invalid_argument);

  // A crafted size whose multiply with the stride wraps to the arena length
  // must not bypass validation (overflow-safe word-count check).
  BasisInfo overflow = original.info();
  overflow.size = std::size_t{1} << 63;  // * 2 words/vector wraps to 0
  EXPECT_THROW(
      Basis(overflow, std::span<const std::uint64_t>{}, hdc::borrowed),
      std::invalid_argument);
}

TEST(BasisTest, ToStringNamesAllEnumerators) {
  EXPECT_STREQ(hdc::to_string(hdc::BasisKind::Random), "random");
  EXPECT_STREQ(hdc::to_string(hdc::BasisKind::Level), "level");
  EXPECT_STREQ(hdc::to_string(hdc::BasisKind::Circular), "circular");
  EXPECT_STREQ(hdc::to_string(hdc::BasisKind::Scatter), "scatter");
  EXPECT_STREQ(hdc::to_string(hdc::LevelMethod::ExactFlip), "exact-flip");
  EXPECT_STREQ(hdc::to_string(hdc::LevelMethod::Interpolation),
               "interpolation");
}

}  // namespace
