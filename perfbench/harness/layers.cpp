// The traced in-process replay behind `--trace 1`.  Every span wraps one
// public call at a layer boundary; the spans live in memory and are dumped
// once at the end.  End-to-end metrics never come from here.

#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "hdc/cluster/cluster.hpp"
#include "hdc/core/accumulator.hpp"
#include "hdc/core/bitops.hpp"
#include "hdc/io/io.hpp"
#include "hdc/serve/serve.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBeijingBatches = 64;
constexpr std::size_t kTextRows = 1024;
constexpr std::size_t kAdaptCalls = 400;
constexpr std::size_t kSetupRepeats = 30;
constexpr std::size_t kClusterSetups = 5;
constexpr std::size_t kOverheadPasses = 15;

using Rows = std::vector<std::vector<double>>;

std::string joined_lines(const Corpus& corpus) {
  std::string text;
  for (const Sample& sample : corpus.pool) {
    text += sample.line;
    text += '\n';
  }
  return text;
}

std::string expected_output(const Oracle& oracle) {
  std::string text;
  for (const std::string& line : oracle.base) {
    text += line;
  }
  return text;
}

hdc::serve::HeadMode beijing_head(bool head) {
  return head ? hdc::serve::HeadMode::Band : hdc::serve::HeadMode::None;
}

/// Beijing rows through serve parse -> runtime encode/predict/band -> serve
/// write, one `batch` span (shared group id) per micro-batch.  Returns the
/// pass's wall time and the written prediction stream.
struct BeijingPass {
  double wall_ns = 0.0;
  std::string output;
};

BeijingPass beijing_pass(Tracer& tracer, const hdc::io::Pipeline& pipeline,
                         const hdc::runtime::ThreadPoolPtr& pool,
                         const std::string& corpus, std::size_t batch,
                         bool head, std::uint64_t group_base) {
  const hdc::runtime::BatchEncoder encoder = pipeline.batch_encoder(pool);
  const hdc::runtime::BatchRegressor regressor =
      pipeline.batch_regressor(pool);
  std::istringstream in(corpus);
  hdc::serve::RowReader reader(in, pipeline.num_features());
  std::ostringstream out;
  hdc::serve::PredictionWriter writer(out, hdc::serve::OutputFormat::Plain,
                                      false, beijing_head(head));
  const std::int64_t start = now_ns();
  std::vector<double> row;
  Rows rows;
  std::size_t written = 0;
  for (std::uint64_t b = 0;; ++b) {
    rows.clear();
    ScopedSpan batch_span(tracer, "batch", group_base + b, 0);
    {
      ScopedSpan span(tracer, "serve.parse", group_base + b, 0);
      while (rows.size() < batch && reader.next(row)) {
        rows.push_back(row);
      }
      span.set_rows(static_cast<std::uint32_t>(rows.size()));
    }
    const auto n = static_cast<std::uint32_t>(rows.size());
    batch_span.set_rows(n);
    if (rows.empty()) {
      break;
    }
    hdc::runtime::VectorArena encoded;
    {
      ScopedSpan span(tracer, "runtime.encode", group_base + b, n);
      encoded = encoder.encode(rows);
    }
    std::vector<double> values;
    {
      ScopedSpan span(tracer, "runtime.predict", group_base + b, n);
      values = regressor.predict(encoded);
    }
    std::vector<hdc::Band> bands;
    {
      ScopedSpan span(tracer, "runtime.band", group_base + b, n);
      bands = regressor.predict_band(encoded);
    }
    {
      ScopedSpan span(tracer, "serve.write", group_base + b, n);
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (head) {
          writer.write_band(written + i, values[i], bands[i], 0.0);
        } else {
          writer.write(written + i, values[i], 0.0);
        }
      }
      writer.flush();
    }
    written += values.size();
  }
  return {static_cast<double>(now_ns() - start), out.str()};
}

Rows parse_rows(const Corpus& corpus) {
  Rows rows;
  for (const Sample& sample : corpus.pool) {
    rows.push_back(sample.features);
  }
  return rows;
}

void print_layers(const Tracer& tracer) {
  std::printf("%-28s %8s %9s %14s %14s\n", "span", "calls", "rows",
              "total_us", "self_us");
  for (const Tracer::Layer& layer : tracer.layers()) {
    std::printf("%-28s %8zu %9zu %14.1f %14.1f\n", layer.name.c_str(),
                layer.calls, layer.rows, layer.total_ns / 1e3,
                layer.self_ns / 1e3);
  }
}

}  // namespace

std::vector<Metric> run_layers(const LayerConfig& config,
                               std::size_t& attempted, std::size_t& failed) {
  Tracer tracer(true);
  const Corpus beijing =
      make_beijing_corpus(config.seed, kBeijingBatches * config.batch);
  const Rows beijing_rows = parse_rows(beijing);
  const std::string beijing_text = joined_lines(beijing);
  const Corpus text = make_text_corpus(config.seed, kTextRows);

  // cluster — first, while this process has no thread pool: the fork
  // backend forks its worker ranks at construction.
  hdc::cluster::ClusterOptions cluster_options;
  cluster_options.replicas = 2;
  cluster_options.scheme = hdc::cluster::ShardScheme::Rows;
  cluster_options.backend = hdc::cluster::CommBackend::Fork;
  cluster_options.integrity = hdc::io::SnapshotIntegrity::Trust;
  for (std::size_t i = 0; i < kClusterSetups; ++i) {
    ScopedSpan span(tracer, "cluster.setup");
    const hdc::cluster::ShardedServer probe(config.beijing_snapshot,
                                            cluster_options);
  }
  std::vector<std::vector<double>> cluster_predictions;
  {
    hdc::cluster::ShardedServer sharded(config.beijing_snapshot,
                                        cluster_options);
    for (std::size_t b = 0; b < kBeijingBatches; ++b) {
      const std::span<const std::vector<double>> rows(
          beijing_rows.data() + b * config.batch, config.batch);
      ScopedSpan span(tracer, "cluster.predict", b,
                      static_cast<std::uint32_t>(config.batch));
      cluster_predictions.push_back(sharded.predict(rows).predictions);
    }
  }

  // io — the Beijing snapshot every workload serves.
  const std::string& snapshot = config.beijing_snapshot;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    std::optional<hdc::io::MappedSnapshot> mapped;
    {
      ScopedSpan span(tracer, "io.open");
      mapped.emplace(hdc::io::MappedSnapshot::open(
          snapshot, hdc::io::SnapshotIntegrity::Trust));
    }
    ScopedSpan span(tracer, "io.restore");
    const hdc::io::Pipeline restored = hdc::io::Pipeline::restore(*mapped);
  }

  const hdc::io::LoadedPipeline bj = hdc::io::load_pipeline(
      config.beijing_snapshot, hdc::io::SnapshotIntegrity::Trust);
  const hdc::io::LoadedPipeline tx = hdc::io::load_pipeline(
      config.text_snapshot, hdc::io::SnapshotIntegrity::Trust);
  const auto pool =
      std::make_shared<hdc::runtime::ThreadPool>(config.threads);

  // cluster overhead: the same batches through one in-process Server.
  {
    hdc::serve::ServerOptions options;
    options.batch_size = config.batch;
    const hdc::serve::Server server(bj.pipeline, options, pool);
    const Oracle plain = make_oracle(config.beijing_snapshot, beijing, false,
                                     config.threads);
    for (std::size_t b = 0; b < kBeijingBatches; ++b) {
      const std::span<const std::vector<double>> rows(
          beijing_rows.data() + b * config.batch, config.batch);
      std::vector<double> local;
      {
        ScopedSpan span(tracer, "serve.server_predict", b,
                        static_cast<std::uint32_t>(config.batch));
        local = server.predict(rows);
      }
      for (std::size_t i = 0; i < local.size(); ++i) {
        const std::string& want = plain.base[b * config.batch + i];
        ++attempted;
        if (local[i] != cluster_predictions[b][i] ||
            std::stod(want) != local[i]) {
          ++failed;
        }
      }
    }
  }

  // serve + runtime over the Beijing batches; the traced passes alternate
  // with untraced ones to measure the tracing overhead.
  const Oracle beijing_oracle = make_oracle(config.beijing_snapshot, beijing,
                                            config.head, config.threads);
  const std::string beijing_expected = expected_output(beijing_oracle);
  std::vector<double> traced_ns;
  std::vector<double> untraced_ns;
  for (std::size_t pass = 0; pass < kOverheadPasses; ++pass) {
    // Alternate which mode goes first so warm-up favours neither.
    for (const bool traced : {pass % 2 == 0, pass % 2 != 0}) {
      if (!traced) {
        Tracer off(false);
        untraced_ns.push_back(beijing_pass(off, bj.pipeline, pool,
                                           beijing_text, config.batch,
                                           config.head, 0)
                                  .wall_ns);
        continue;
      }
      const BeijingPass result =
          beijing_pass(tracer, bj.pipeline, pool, beijing_text, config.batch,
                       config.head, 1000 * (pass + 1));
      traced_ns.push_back(result.wall_ns);
      attempted += beijing.pool.size();
      failed += count_mismatched_lines(result.output, beijing_expected);
    }
  }
  std::printf("replay passes: median untraced %.0f us, traced %.0f us\n",
              median(untraced_ns) / 1e3, median(traced_ns) / 1e3);

  // runtime encode at one thread, for the scaling ratio.
  {
    const auto single = std::make_shared<hdc::runtime::ThreadPool>(1);
    const hdc::runtime::BatchEncoder encoder =
        bj.pipeline.batch_encoder(single);
    for (std::size_t b = 0; b < kBeijingBatches; ++b) {
      const std::span<const std::vector<double>> rows(
          beijing_rows.data() + b * config.batch, config.batch);
      ScopedSpan span(tracer, "runtime.encode_1thread", b,
                      static_cast<std::uint32_t>(config.batch));
      (void)encoder.encode(rows);
    }
  }

  // Text rows through parse -> text encode -> classify -> write.
  {
    const Oracle text_oracle =
        make_oracle(config.text_snapshot, text, false, config.threads);
    const hdc::runtime::BatchTextEncoder encoder =
        tx.pipeline.batch_text_encoder(pool);
    const hdc::runtime::BatchClassifier classifier =
        tx.pipeline.batch_classifier(pool);
    std::istringstream in(joined_lines(text));
    hdc::serve::RowReader reader(in, 0, hdc::serve::RowFormat::Text);
    std::ostringstream out;
    hdc::serve::PredictionWriter writer(out, hdc::serve::OutputFormat::Plain);
    std::string line;
    std::vector<std::string> lines;
    for (std::uint64_t b = 0;; ++b) {
      lines.clear();
      ScopedSpan batch_span(tracer, "text_batch", b, 0);
      {
        ScopedSpan span(tracer, "serve.parse_text", b, 0);
        while (lines.size() < config.batch && reader.next_text(line)) {
          lines.push_back(line);
        }
        span.set_rows(static_cast<std::uint32_t>(lines.size()));
      }
      const auto n = static_cast<std::uint32_t>(lines.size());
      batch_span.set_rows(n);
      if (lines.empty()) {
        break;
      }
      hdc::runtime::VectorArena encoded;
      {
        ScopedSpan span(tracer, "runtime.text_encode", b, n);
        encoded = encoder.encode(lines);
      }
      std::vector<std::size_t> labels;
      {
        ScopedSpan span(tracer, "runtime.classify", b, n);
        labels = classifier.predict(encoded);
      }
      ScopedSpan span(tracer, "serve.write_text", b, n);
      for (const std::size_t label : labels) {
        writer.write_class(0, label, 0.0);
      }
      writer.flush();
    }
    attempted += text.pool.size();
    failed += count_mismatched_lines(out.str(), expected_output(text_oracle));
  }

  // core: bundling, n-gram encoding and the label-grid sweep.
  {
    const hdc::runtime::BatchEncoder encoder = bj.pipeline.batch_encoder(pool);
    const hdc::runtime::VectorArena encoded = encoder.encode(
        std::span<const std::vector<double>>(beijing_rows.data(),
                                             16 * config.batch));
    const std::size_t dimension = bj.pipeline.dimension();
    hdc::BundleAccumulator accumulator(dimension);
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      ScopedSpan span(tracer, "core.bundle_add");
      accumulator.add(encoded.view(i));
    }
    for (std::size_t i = 0; i < 50; ++i) {
      ScopedSpan span(tracer, "core.bundle_finalize");
      (void)accumulator.finalize(encoded.view(i));
    }
    const hdc::NGramEncoder& ngram = *tx.pipeline.ngram_encoder();
    for (const Sample& sample : text.pool) {
      ScopedSpan span(tracer, "core.ngram_encode");
      (void)ngram.encode(sample.line);
    }
    const hdc::HDRegressor& model = bj.pipeline.regressor();
    const hdc::Basis& labels = model.labels().basis();
    std::vector<std::uint64_t> bound(hdc::bits::words_for(dimension));
    std::vector<std::size_t> distances(labels.size());
    for (std::size_t b = 0; b < 16; ++b) {
      ScopedSpan span(tracer, "core.sweep", b,
                      static_cast<std::uint32_t>(config.batch));
      for (std::size_t i = b * config.batch; i < (b + 1) * config.batch;
           ++i) {
        hdc::bits::xor_rows(bound, model.model().words(), encoded.words(i));
        hdc::bits::hamming_many(bound, labels.packed_words(),
                                hdc::bits::words_for(dimension),
                                labels.size(), distances);
      }
    }
  }

  // serve: the online-adaptation overlay on the Beijing pipeline.
  std::uint64_t overlay_rows = 0;
  {
    auto state = std::make_shared<const hdc::serve::ServingState>(
        hdc::io::load_pipeline(snapshot, hdc::io::SnapshotIntegrity::Trust),
        0, snapshot);
    hdc::serve::AdaptiveState adaptive(state);
    for (std::size_t i = 0; i < kAdaptCalls; ++i) {
      const Sample& sample = beijing.pool[(i * 7919) % beijing.pool.size()];
      ScopedSpan span(tracer, "serve.adapt");
      (void)adaptive.adapt(sample.features, sample.target);
    }
    overlay_rows = adaptive.overlay_rows();
  }

  print_layers(tracer);
  tracer.dump(config.trace_path);
  std::printf("spans dumped to %s (%zu spans)\n", config.trace_path.c_str(),
              tracer.spans().size());

  // Per-call figures are median spans; per-row figures are span time over
  // the rows the spans carried.
  const auto per_call = [&](const char* name, double scale) {
    const Tracer::Layer layer = tracer.layer(name);
    return Metric{"", layer.median_ns / scale, "", layer.calls};
  };
  const auto per_row = [&](const char* name, double scale) {
    const Tracer::Layer layer = tracer.layer(name);
    return Metric{"", layer.total_ns / static_cast<double>(layer.rows) / scale,
                  "", layer.rows};
  };
  const auto named = [](Metric metric, const char* name, const char* unit) {
    metric.name = name;
    metric.unit = unit;
    return metric;
  };
  const Tracer::Layer encode = tracer.layer("runtime.encode");
  const Tracer::Layer encode_1thread = tracer.layer("runtime.encode_1thread");
  const double sweep_bytes_per_row =
      static_cast<double>(bj.pipeline.regressor().labels().size()) *
      static_cast<double>(bj.pipeline.dimension()) / 8.0;
  const Tracer::Layer sweep = tracer.layer("core.sweep");
  const Metric cluster_us = per_call("cluster.predict", 1e3);
  const Metric server_us = per_call("serve.server_predict", 1e3);
  std::vector<Metric> metrics{
      named(per_call("io.open", 1e3), "io.open_us", "us"),
      named(per_call("io.restore", 1e3), "io.restore_us", "us"),
      named(per_row("serve.parse", 1.0), "serve.parse_ns_per_row", "ns"),
      named(per_row("serve.write", 1.0), "serve.write_ns_per_row", "ns"),
      named(per_call("serve.adapt", 1e3), "serve.adapt_us_per_call", "us"),
      {"serve.adapt_overlay_rows", static_cast<double>(overlay_rows),
       "count", 1},
      named(per_row("runtime.encode", 1.0), "runtime.encode_ns_per_row",
            "ns"),
      named(per_row("runtime.text_encode", 1e3),
            "runtime.text_encode_us_per_row", "us"),
      {"runtime.encode_scaling",
       (encode_1thread.total_ns / static_cast<double>(encode_1thread.rows)) /
           (encode.total_ns / static_cast<double>(encode.rows)),
       "ratio", encode_1thread.calls},
      named(per_row("runtime.predict", 1.0), "runtime.predict_ns_per_row",
            "ns"),
      named(per_row("runtime.band", 1.0), "runtime.band_ns_per_row", "ns"),
      named(per_call("core.bundle_add", 1.0), "core.bundle_add_ns", "ns"),
      named(per_call("core.bundle_finalize", 1e3), "core.bundle_finalize_us",
            "us"),
      named(per_call("core.ngram_encode", 1e3),
            "core.ngram_encode_us_per_row", "us"),
      {"core.sweep_bytes_per_row", sweep_bytes_per_row, "B", sweep.rows},
      {"core.sweep_gbps",
       sweep_bytes_per_row * static_cast<double>(sweep.rows) / sweep.total_ns,
       "GB/s", sweep.rows},
      named(cluster_us, "cluster.predict_us_per_batch", "us"),
      {"cluster.overhead_us_per_batch", cluster_us.value - server_us.value,
       "us", cluster_us.samples},
      named(per_call("cluster.setup", 1e6), "cluster.setup_ms", "ms"),
      {"trace.overhead_share", median(traced_ns) / median(untraced_ns),
       "ratio", kOverheadPasses},
  };
  return metrics;
}

}  // namespace perfbench
