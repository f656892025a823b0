// Keyed-readout exactness: HDRegressor and AdaptiveRegressor read a
// prediction off the keyed label rows K_l = M ⊗ L_l with the raw query.
// Every readout must equal the bind-then-sweep oracle built here from the
// paper's formula — labels.decode(M ⊗ q) and the Hamming profile of M ⊗ q
// over the label grid rows — for linear, circular and multi-scale label
// encoders, odd and word-boundary dimensions, equidistant ties, and after
// adapt() has rewritten M (a stale K fails there).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hdc/core/adaptive.hpp"
#include "hdc/core/basis_circular.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/bitops.hpp"
#include "hdc/core/multiscale_encoder.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/core/regressor.hpp"

namespace {

using hdc::AdaptiveRegressor;
using hdc::Band;
using hdc::HDRegressor;
using hdc::Hypervector;
using hdc::HypervectorView;
using hdc::Rng;
using hdc::ScalarEncoder;
using hdc::ScalarEncoderPtr;

constexpr std::size_t kDims[] = {1, 63, 64, 65, 10240};

struct LabelCase {
  std::string name;
  ScalarEncoderPtr labels;
};

std::vector<LabelCase> label_cases(std::size_t d) {
  hdc::LevelBasisConfig level;
  level.dimension = d;
  level.size = 16;
  level.seed = 7;
  hdc::CircularBasisConfig circular;
  circular.dimension = d;
  circular.size = 12;
  circular.seed = 8;
  hdc::MultiScaleCircularEncoder::Config multiscale;
  multiscale.dimension = d;
  multiscale.scales = {4, 12};
  multiscale.period = 1.0;
  multiscale.seed = 9;
  return {
      {"linear", std::make_shared<hdc::LinearScalarEncoder>(
                     hdc::make_level_basis(level), -1.0, 1.0)},
      {"circular", std::make_shared<hdc::CircularScalarEncoder>(
                       hdc::make_circular_basis(circular), 360.0)},
      {"multiscale",
       std::make_shared<hdc::MultiScaleCircularEncoder>(multiscale)},
  };
}

/// Random training inputs labelled round the grid, then finalized.
HDRegressor trained_model(const ScalarEncoderPtr& labels,
                          std::vector<Hypervector>& inputs) {
  HDRegressor model(labels, 11);
  Rng rng(12);
  for (std::size_t k = 0; k < 24; ++k) {
    inputs.push_back(Hypervector::random(labels->dimension(), rng));
    model.add_sample(inputs.back(), labels->value_of(k % labels->size()));
  }
  model.finalize();
  return model;
}

/// Training inputs, fresh random vectors and the grid rows themselves.
std::vector<Hypervector> queries_for(const ScalarEncoder& labels,
                                     const std::vector<Hypervector>& inputs) {
  std::vector<Hypervector> queries = inputs;
  Rng rng(13);
  for (int k = 0; k < 8; ++k) {
    queries.push_back(Hypervector::random(labels.dimension(), rng));
  }
  for (std::size_t l = 0; l < labels.size(); ++l) {
    queries.emplace_back(labels.encode(labels.value_of(l)));
  }
  return queries;
}

struct Expected {
  double value = 0.0;
  std::vector<std::size_t> distances;
  Band band;
};

/// The paper's readout, spelled out: bind the query to M, then decode and
/// sweep the label grid rows.
Expected bind_then_sweep(const ScalarEncoder& labels, HypervectorView model,
                         HypervectorView query) {
  const Hypervector bound = model ^ query;
  Expected out;
  out.value = labels.decode(bound);
  out.distances.resize(labels.size());
  hdc::bits::hamming_many(bound.words(), labels.grid_words(),
                          hdc::bits::words_for(labels.dimension()),
                          labels.size(), out.distances);
  out.band = hdc::band_from_distances(out.distances, labels,
                                      labels.dimension());
  return out;
}

template <class Model>
void expect_matches_oracle(const Model& model, HypervectorView model_hv,
                           const ScalarEncoder& labels,
                           const std::vector<Hypervector>& queries) {
  std::vector<std::size_t> distances(labels.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const Expected want = bind_then_sweep(labels, model_hv, queries[i]);
    EXPECT_EQ(model.predict(queries[i]), want.value);
    model.label_distances(queries[i], distances);
    EXPECT_EQ(distances, want.distances);
    const Band band = model.predict_band(queries[i]);
    EXPECT_EQ(band.p10, want.band.p10);
    EXPECT_EQ(band.p50, want.band.p50);
    EXPECT_EQ(band.p90, want.band.p90);
  }
}

/// Drives mistake-driven feedback (target half the grid away from the
/// prediction) until the model words change; returns false if they never do.
template <class Model, class Words>
bool adapt_until_changed(Model& model, const ScalarEncoder& labels,
                         const std::vector<Hypervector>& queries,
                         Words model_words) {
  const std::vector<std::uint64_t> before(model_words().begin(),
                                          model_words().end());
  for (std::size_t k = 0; k < 4 * queries.size(); ++k) {
    const Hypervector& q = queries[k % queries.size()];
    const std::size_t predicted = labels.index_of(model.predict(q));
    (void)model.adapt(
        q, labels.value_of((predicted + labels.size() / 2) % labels.size()));
    if (!std::equal(before.begin(), before.end(), model_words().begin())) {
      return true;
    }
  }
  return false;
}

/// True when some query's oracle profile differs between the two models —
/// the precondition for a stale-K check to mean anything.
bool profiles_differ(const ScalarEncoder& labels, HypervectorView a,
                     HypervectorView b, const std::vector<Hypervector>& queries) {
  for (const Hypervector& q : queries) {
    if (bind_then_sweep(labels, a, q).distances !=
        bind_then_sweep(labels, b, q).distances) {
      return true;
    }
  }
  return false;
}

TEST(KeyedReadoutTest, GridRowsAreTheEncodedGridPoints) {
  for (const std::size_t d : kDims) {
    for (const LabelCase& c : label_cases(d)) {
      SCOPED_TRACE(c.name + " d=" + std::to_string(d));
      const std::size_t stride = hdc::bits::words_for(d);
      const auto grid = c.labels->grid_words();
      ASSERT_EQ(grid.size(), c.labels->size() * stride);
      for (std::size_t l = 0; l < c.labels->size(); ++l) {
        const auto row = c.labels->encode(c.labels->value_of(l)).words();
        EXPECT_TRUE(std::equal(row.begin(), row.end(),
                               grid.begin() + static_cast<std::ptrdiff_t>(
                                                  l * stride)))
            << "row " << l;
      }
    }
  }
}

TEST(KeyedReadoutTest, RegressorMatchesBindThenSweepOracle) {
  for (const std::size_t d : kDims) {
    for (const LabelCase& c : label_cases(d)) {
      SCOPED_TRACE(c.name + " d=" + std::to_string(d));
      std::vector<Hypervector> inputs;
      const HDRegressor trained = trained_model(c.labels, inputs);
      const auto queries = queries_for(*c.labels, inputs);
      expect_matches_oracle(trained, trained.model(), *c.labels, queries);

      const auto restored = std::make_shared<const HDRegressor>(
          HDRegressor::from_model(c.labels, trained.model()));
      expect_matches_oracle(*restored, trained.model(), *c.labels, queries);
      // The sweeps' full-width loads must not straddle cache lines.
      for (const HDRegressor* model : {&trained, restored.get()}) {
        const auto* keys = model->keyed_label_words().data();
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(keys) % 64, 0U);
      }
      const AdaptiveRegressor untouched(restored, hdc::kDefaultAdaptSeed);
      expect_matches_oracle(untouched, trained.model(), *c.labels, queries);
    }
  }
}

TEST(KeyedReadoutTest, EquidistantTieKeepsTheLowestIndex) {
  constexpr std::size_t d = 10240;
  const std::size_t stride = hdc::bits::words_for(d);
  for (const LabelCase& c : label_cases(d)) {
    SCOPED_TRACE(c.name);
    const ScalarEncoder& labels = *c.labels;
    const auto grid = labels.grid_words();
    Rng rng(21);
    const Hypervector model_hv = Hypervector::random(d, rng);
    const HDRegressor model = HDRegressor::from_model(c.labels, model_hv);
    // X = L_a with half the bits where L_a and L_b differ switched to L_b's:
    // equidistant from both rows.  Query q = M ⊗ X unbinds to exactly X.
    bool found = false;
    for (std::size_t a = 0; a + 1 < labels.size() && !found; ++a) {
      for (std::size_t b = a + 1; b < labels.size() && !found; ++b) {
        const auto row_a = grid.subspan(a * stride, stride);
        const auto row_b = grid.subspan(b * stride, stride);
        Hypervector x(HypervectorView(d, row_a));
        std::size_t differing = 0;
        for (std::size_t bit = 0; bit < d; ++bit) {
          if (hdc::bits::get_bit(row_a, bit) !=
              hdc::bits::get_bit(row_b, bit)) {
            if (differing++ % 2 == 0) {
              x.flip_bit(bit);
            }
          }
        }
        if (differing == 0 || differing % 2 != 0) {
          continue;
        }
        const Hypervector query = model_hv ^ x;
        const Expected want = bind_then_sweep(labels, model_hv, query);
        std::size_t smallest = want.distances[a];
        for (const std::size_t distance : want.distances) {
          smallest = std::min(smallest, distance);
        }
        if (want.distances[b] != want.distances[a] ||
            want.distances[a] != smallest) {
          continue;  // Some third row is nearer; try another pair.
        }
        found = true;
        EXPECT_EQ(model.predict(query), labels.value_of(a));
        expect_matches_oracle(model, model_hv, labels, {query});
      }
    }
    EXPECT_TRUE(found) << "no equidistant pair to test the tie rule on";
  }
}

TEST(KeyedReadoutTest, AdaptRebuildsTheKeyedRows) {
  for (const std::size_t d : kDims) {
    for (const LabelCase& c : label_cases(d)) {
      SCOPED_TRACE(c.name + " d=" + std::to_string(d));
      std::vector<Hypervector> inputs;
      HDRegressor model = trained_model(c.labels, inputs);
      const auto queries = queries_for(*c.labels, inputs);
      const Hypervector before = model.model();
      if (!adapt_until_changed(model, *c.labels, queries,
                               [&] { return model.model().words(); })) {
        ASSERT_EQ(d, 1U) << "feedback never changed the model";
        continue;  // A one-bit model can re-threshold to itself.
      }
      ASSERT_TRUE(profiles_differ(*c.labels, before, model.model(), queries));
      expect_matches_oracle(model, model.model(), *c.labels, queries);
    }
  }
}

TEST(KeyedReadoutTest, OverlayUpdateRebuildsTheKeyedRows) {
  for (const std::size_t d : kDims) {
    for (const LabelCase& c : label_cases(d)) {
      SCOPED_TRACE(c.name + " d=" + std::to_string(d));
      std::vector<Hypervector> inputs;
      const auto base = std::make_shared<const HDRegressor>(
          trained_model(c.labels, inputs));
      const auto queries = queries_for(*c.labels, inputs);
      AdaptiveRegressor overlay(base, hdc::kDefaultAdaptSeed);
      if (!adapt_until_changed(overlay, *c.labels, queries,
                               [&] { return overlay.model_words(); })) {
        ASSERT_EQ(d, 1U) << "feedback never changed the overlay";
        continue;
      }
      const Hypervector adapted(HypervectorView(d, overlay.model_words()));
      ASSERT_TRUE(profiles_differ(*c.labels, base->model(), adapted, queries));
      expect_matches_oracle(overlay, adapted, *c.labels, queries);
      // Further updates keep K in step with every rewrite of the overlay.
      ASSERT_TRUE(adapt_until_changed(overlay, *c.labels, queries,
                                      [&] { return overlay.model_words(); }) ||
                  d == 1);
      expect_matches_oracle(
          overlay, HypervectorView(d, overlay.model_words()), *c.labels,
          queries);
    }
  }
}

}  // namespace
