// Micro-batching server conformance: everything `hdcgen serve` does in
// process.  A composed Beijing pipeline (and a feature-encoder classifier
// pipeline) is snapshotted, restored from the mapping, and served through
// Server over string streams; the written predictions must equal the
// sequential Pipeline::regress/classify oracle row for row — for every
// batch size, thread count, integrity mode and input format — and the
// plain output must be byte-identical across runs (the golden-diff
// property the serve-e2e CI suite relies on).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "hdc/cluster/cluster.hpp"
#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"
#include "hdc/serve/serve.hpp"

namespace {

using hdc::io::MappedSnapshot;
using hdc::io::Pipeline;
using hdc::io::SnapshotIntegrity;
using hdc::io::SnapshotWriter;
using hdc::serve::HeadMode;
using hdc::serve::LocalPredictor;
using hdc::serve::OutputFormat;
using hdc::serve::PredictionWriter;
using hdc::serve::Predictor;
using hdc::serve::RowFormat;
using hdc::serve::RowReader;
using hdc::serve::Server;
using hdc::serve::ServerOptions;
namespace fixtures = hdc::io::fixtures;

std::string temp_file(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

/// The committed-CSV shape: deterministic (year, day, hour) rows covering
/// both circular wraps.
std::vector<std::vector<double>> beijing_rows(std::size_t count) {
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back({static_cast<double>(i % 5),
                    static_cast<double>((i * 53) % 366),
                    0.5 * static_cast<double>((i * 7) % 48)});
  }
  return rows;
}

std::string as_csv(const std::vector<std::vector<double>>& rows) {
  std::ostringstream out;
  for (const auto& row : rows) {
    for (std::size_t f = 0; f < row.size(); ++f) {
      out << (f == 0 ? "" : ",") << row[f];
    }
    out << '\n';
  }
  return out.str();
}

/// Writes the Beijing composed pipeline snapshot once per test process.
/// The name is process-unique: ctest runs every discovered TEST as its own
/// process in parallel, and a shared fixed path would let one process
/// truncate the file mid-write while a sibling still has it mmapped
/// (SIGBUS past the new EOF).
const std::string& beijing_snapshot() {
  static const std::string path = [] {
    const auto stamp = static_cast<unsigned long long>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    const std::string file =
        temp_file("serve_beijing_" + std::to_string(stamp) + ".hdcs");
    const fixtures::BeijingPipeline models = fixtures::make_beijing_pipeline();
    SnapshotWriter writer;
    writer.add_pipeline(*models.encoder, models.model);
    writer.write_file(file);
    return file;
  }();
  return path;
}

TEST(ServerTest, ServesBitExactAcrossBatchSizesThreadsAndIntegrity) {
  const auto rows = beijing_rows(41);  // not a multiple of any batch size
  const std::string csv = as_csv(rows);

  const auto oracle_snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline oracle = Pipeline::restore(oracle_snapshot);
  std::string expected;
  {
    std::ostringstream out;
    PredictionWriter writer(out, OutputFormat::Plain);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      writer.write(i, oracle.regress(rows[i]), 0.0);
    }
    expected = out.str();
  }

  const struct {
    std::size_t batch;
    std::size_t threads;
    SnapshotIntegrity integrity;
  } variants[] = {
      {1, 1, SnapshotIntegrity::Checksum},
      {7, 4, SnapshotIntegrity::Checksum},
      {64, 2, SnapshotIntegrity::Trust},
      {1024, 4, SnapshotIntegrity::Trust},
  };
  for (const auto& variant : variants) {
    SCOPED_TRACE("batch=" + std::to_string(variant.batch) +
                 " threads=" + std::to_string(variant.threads));
    const auto snapshot =
        MappedSnapshot::open(beijing_snapshot(), variant.integrity);
    ServerOptions options;
    options.batch_size = variant.batch;
    options.num_threads = variant.threads;
    const Server server(Pipeline::restore(snapshot), options);
    std::istringstream in(csv);
    std::ostringstream out;
    RowReader reader(in, server.predictor().num_features());
    PredictionWriter writer(out, OutputFormat::Plain);
    const Server::Stats stats = server.run(reader, writer);
    EXPECT_EQ(stats.rows, rows.size());
    EXPECT_EQ(stats.batches,
              (rows.size() + variant.batch - 1) / variant.batch);
    EXPECT_EQ(out.str(), expected);
  }
}

TEST(ServerTest, PredictMatchesPerRowOracle) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline pipeline = Pipeline::restore(snapshot);
  const Server server(pipeline, {});
  const auto rows = beijing_rows(17);
  const std::vector<double> batched = server.predict(rows);
  ASSERT_EQ(batched.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batched[i], pipeline.regress(rows[i])) << "row " << i;
  }
  EXPECT_TRUE(server.predict({}).empty());
}

TEST(ServerTest, ClassifierPipelineWritesIntegerLabels) {
  // Unique per process for the same reason as beijing_snapshot().
  const std::string path = temp_file(
      "serve_classifier_" +
      std::to_string(static_cast<unsigned long long>(
          std::chrono::steady_clock::now().time_since_epoch().count())) +
      ".hdcs");
  const fixtures::ClassifierPipeline models =
      fixtures::make_classifier_pipeline();
  {
    SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(path);
  }
  const auto snapshot = MappedSnapshot::open(path);
  const Pipeline pipeline = Pipeline::restore(snapshot);
  const Server server(pipeline, {});

  std::ostringstream csv;
  std::vector<std::size_t> expected;
  for (int probe = 0; probe < 30; ++probe) {
    std::vector<double> row(pipeline.num_features());
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = 12.0 * probe + 90.0 * static_cast<double>(f);
    }
    expected.push_back(pipeline.classify(row));
    for (std::size_t f = 0; f < row.size(); ++f) {
      csv << (f == 0 ? "" : ",") << row[f];
    }
    csv << '\n';
  }
  std::istringstream in(csv.str());
  std::ostringstream out;
  RowReader reader(in, pipeline.num_features());
  PredictionWriter writer(out, OutputFormat::Plain);
  (void)server.run(reader, writer);
  std::istringstream lines(out.str());
  std::string line;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << "row " << i;
    EXPECT_EQ(line, std::to_string(expected[i])) << "row " << i;
  }
  EXPECT_FALSE(std::getline(lines, line));
  std::filesystem::remove(path);
}

/// Process-unique text-pipeline snapshot (same rationale as
/// beijing_snapshot()).
const std::string& text_snapshot() {
  static const std::string path = [] {
    const auto stamp = static_cast<unsigned long long>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    const std::string file =
        temp_file("serve_text_" + std::to_string(stamp) + ".hdcs");
    const fixtures::TextPipeline models = fixtures::make_text_pipeline();
    SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(file);
    return file;
  }();
  return path;
}

TEST(ServerTest, TextPipelineServesRawLinesBitExact) {
  const auto snapshot = MappedSnapshot::open(text_snapshot());
  const Pipeline oracle = Pipeline::restore(snapshot);
  const std::vector<std::string> rows = {
      "lo vo miri",  "zu ka pelo tir", "anda vestri olm", "tir tir",
      "1,2,3",  // Numeric-looking bytes are still raw text payload.
      "mixed 42 bytes!"};
  std::string input;
  for (const std::string& row : rows) {
    input += row + "\n";
  }

  for (const std::size_t batch : {1U, 4U, 64U}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ServerOptions options;
    options.batch_size = batch;
    options.num_threads = 3;
    const Server server(Pipeline::restore(snapshot), options);
    std::istringstream in(input);
    std::ostringstream out;
    RowReader reader(in, 0, RowFormat::Text);
    PredictionWriter writer(out, OutputFormat::Plain);
    const Server::Stats stats = server.run(reader, writer);
    EXPECT_EQ(stats.rows, rows.size());
    std::istringstream lines(out.str());
    std::string line;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(std::getline(lines, line)) << "row " << i;
      EXPECT_EQ(line, std::to_string(oracle.classify_text(rows[i])))
          << "row " << i;
    }
    EXPECT_FALSE(std::getline(lines, line));
  }

  // A text batch through the predictor agrees with the per-row oracle too.
  const Server server(Pipeline::restore(snapshot), {});
  const std::vector<double> batched =
      server.predictor().predict(rows, HeadMode::None).predictions;
  ASSERT_EQ(batched.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batched[i],
              static_cast<double>(oracle.classify_text(rows[i])))
        << "row " << i;
  }
}

TEST(ServerTest, ReaderFormatMustMatchThePipelineInputMode) {
  // Text pipeline + numeric reader (and vice versa) is a configuration
  // error, rejected before any row is consumed.
  const auto text = MappedSnapshot::open(text_snapshot());
  const Server text_server(Pipeline::restore(text), {});
  std::istringstream in("1,2,3\n");
  std::ostringstream out;
  RowReader csv_reader(in, 3, RowFormat::Csv);
  PredictionWriter writer(out, OutputFormat::Plain);
  EXPECT_THROW((void)text_server.run(csv_reader, writer),
               std::invalid_argument);

  const auto beijing = MappedSnapshot::open(beijing_snapshot());
  const Server numeric_server(Pipeline::restore(beijing), {});
  RowReader text_reader(in, 0, RowFormat::Text);
  EXPECT_THROW((void)numeric_server.run(text_reader, writer),
               std::invalid_argument);
  const std::vector<std::string> text_rows{"abc"};
  EXPECT_THROW(
      (void)numeric_server.predictor().predict(text_rows, HeadMode::None),
      std::invalid_argument);
}

TEST(ServerTest, ConfidenceHeadMatchesPerRowTop2) {
  const auto snapshot = MappedSnapshot::open(text_snapshot());
  const Pipeline oracle = Pipeline::restore(snapshot);
  const std::vector<std::string> rows = {"lo vo miri", "zu ka pelo tir",
                                         "anda vestri olm", "zzz"};
  std::string input;
  std::string expected;
  {
    std::ostringstream expect_out;
    PredictionWriter expect_writer(expect_out, OutputFormat::Plain,
                                   /*with_latency=*/false,
                                   hdc::serve::HeadMode::Confidence);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      input += rows[i] + "\n";
      const hdc::Top2 top =
          oracle.classifier().predict_top2(oracle.encode_text(rows[i]));
      expect_writer.write_class(i, top.best.index,
                                hdc::margin_confidence(top), 0.0);
    }
    expected = expect_out.str();
  }
  ServerOptions options;
  options.batch_size = 3;
  const Server server(Pipeline::restore(snapshot), options);
  std::istringstream in(input);
  std::ostringstream out;
  RowReader reader(in, 0, RowFormat::Text);
  PredictionWriter writer(out, OutputFormat::Plain, /*with_latency=*/false,
                          hdc::serve::HeadMode::Confidence);
  (void)server.run(reader, writer);
  EXPECT_EQ(out.str(), expected);
}

TEST(ServerTest, BandHeadMatchesPerRowPredictBand) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline oracle = Pipeline::restore(snapshot);
  const auto rows = beijing_rows(11);
  std::string expected;
  {
    std::ostringstream expect_out;
    PredictionWriter expect_writer(expect_out, OutputFormat::Plain,
                                   /*with_latency=*/false,
                                   hdc::serve::HeadMode::Band);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const hdc::Hypervector encoded = oracle.encode(rows[i]);
      expect_writer.write_band(i, oracle.regressor().predict(encoded),
                               oracle.regressor().predict_band(encoded),
                               0.0);
    }
    expected = expect_out.str();
  }
  ServerOptions options;
  options.batch_size = 4;
  options.num_threads = 2;
  const Server server(Pipeline::restore(snapshot), options);
  std::istringstream in(as_csv(rows));
  std::ostringstream out;
  RowReader reader(in, 3);
  PredictionWriter writer(out, OutputFormat::Plain, /*with_latency=*/false,
                          hdc::serve::HeadMode::Band);
  (void)server.run(reader, writer);
  EXPECT_EQ(out.str(), expected);
}

/// Process-unique classifier-pipeline snapshot (same rationale as
/// beijing_snapshot()).
const std::string& classifier_snapshot() {
  static const std::string path = [] {
    const auto stamp = static_cast<unsigned long long>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    const std::string file =
        temp_file("serve_classes_" + std::to_string(stamp) + ".hdcs");
    const fixtures::ClassifierPipeline models =
        fixtures::make_classifier_pipeline();
    SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(file);
    return file;
  }();
  return path;
}

/// Per-row classifier oracle for one batch: labels and top-2 candidates.
struct ClassOracle {
  std::vector<std::size_t> labels;
  std::vector<hdc::Top2> tops;
};

void expect_classes_match(LocalPredictor& local,
                          const hdc::serve::SampleBatch& batch,
                          const ClassOracle& oracle) {
  const auto plain = local.predict(batch, HeadMode::None);
  const auto confident = local.predict(batch, HeadMode::Confidence);
  ASSERT_EQ(plain.predictions.size(), oracle.labels.size());
  ASSERT_EQ(confident.confidences.size(), oracle.labels.size());
  for (std::size_t i = 0; i < oracle.labels.size(); ++i) {
    const auto label = static_cast<double>(oracle.labels[i]);
    const auto best = static_cast<double>(oracle.tops[i].best.index);
    EXPECT_EQ(plain.predictions[i], label) << "row " << i;
    EXPECT_EQ(confident.predictions[i], best) << "row " << i;
    const double confidence = hdc::margin_confidence(oracle.tops[i]);
    EXPECT_EQ(confident.confidences[i], confidence) << "row " << i;
  }
}

TEST(ServerTest, OneRoundPredictMatchesPerRowPipeline) {
  // LocalPredictor encodes and reads out each batch in a single pool round;
  // predictions, bands and confidences must equal the per-row Pipeline
  // calls for every thread count and batch shape, chunk boundaries
  // included.
  const auto beijing = MappedSnapshot::open(beijing_snapshot());
  const auto classes = MappedSnapshot::open(classifier_snapshot());
  const auto text = MappedSnapshot::open(text_snapshot());
  const Pipeline regressor = Pipeline::restore(beijing);
  const Pipeline classifier = Pipeline::restore(classes);
  const Pipeline language = Pipeline::restore(text);
  for (const std::size_t threads : {1U, 2U, 3U}) {
    LocalPredictor local_regressor(Pipeline::restore(beijing), {}, threads);
    LocalPredictor local_classifier(Pipeline::restore(classes), {}, threads);
    LocalPredictor local_language(Pipeline::restore(text), {}, threads);
    for (const std::size_t batch : {1U, 7U, 256U}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      const auto rows = beijing_rows(batch);
      const auto plain = local_regressor.predict(rows, HeadMode::None);
      const auto banded = local_regressor.predict(rows, HeadMode::Band);
      ASSERT_EQ(plain.predictions.size(), batch);
      ASSERT_EQ(banded.bands.size(), batch);
      for (std::size_t i = 0; i < batch; ++i) {
        const double expected = regressor.regress(rows[i]);
        const hdc::Hypervector encoded = regressor.encode(rows[i]);
        const hdc::Band band = regressor.regressor().predict_band(encoded);
        EXPECT_EQ(plain.predictions[i], expected) << "row " << i;
        EXPECT_EQ(banded.predictions[i], expected) << "row " << i;
        EXPECT_EQ(banded.bands[i].p10, band.p10) << "row " << i;
        EXPECT_EQ(banded.bands[i].p50, band.p50) << "row " << i;
        EXPECT_EQ(banded.bands[i].p90, band.p90) << "row " << i;
      }

      std::vector<std::vector<double>> features(batch);
      std::vector<std::string> lines(batch);
      ClassOracle numeric;
      ClassOracle language_id;
      for (std::size_t i = 0; i < batch; ++i) {
        for (std::size_t f = 0; f < classifier.num_features(); ++f) {
          features[i].push_back(7.0 * i + 90.0 * f);
        }
        const hdc::Hypervector sample = classifier.encode(features[i]);
        numeric.labels.push_back(classifier.classify(features[i]));
        numeric.tops.push_back(classifier.classifier().predict_top2(sample));

        lines[i] = std::string(1 + i % 4, 'a' + i % 26) + " vo miri";
        const hdc::Hypervector line = language.encode_text(lines[i]);
        language_id.labels.push_back(language.classify_text(lines[i]));
        language_id.tops.push_back(language.classifier().predict_top2(line));
      }
      const std::span<const std::vector<double>> feature_rows(features);
      const std::span<const std::string> text_rows(lines);
      expect_classes_match(local_classifier, feature_rows, numeric);
      expect_classes_match(local_language, text_rows, language_id);
    }
  }
}

TEST(ServerTest, HeadModeMustMatchThePipelineKind) {
  // Confidence is a classifier head, Band a regressor head; a mismatch is
  // rejected before any row is consumed.
  const auto beijing = MappedSnapshot::open(beijing_snapshot());
  const Server regressor_server(Pipeline::restore(beijing), {});
  std::istringstream in("1,2,3\n");
  std::ostringstream out;
  RowReader reader(in, 3);
  PredictionWriter confidence(out, OutputFormat::Plain,
                              /*with_latency=*/false,
                              hdc::serve::HeadMode::Confidence);
  EXPECT_THROW((void)regressor_server.run(reader, confidence),
               std::invalid_argument);

  const auto text = MappedSnapshot::open(text_snapshot());
  const Server classifier_server(Pipeline::restore(text), {});
  RowReader text_reader(in, 0, RowFormat::Text);
  PredictionWriter band(out, OutputFormat::Plain, /*with_latency=*/false,
                        hdc::serve::HeadMode::Band);
  EXPECT_THROW((void)classifier_server.run(text_reader, band),
               std::invalid_argument);
}

TEST(ServerTest, CsvAndJsonlOutputCarryRowIndexAndLatency) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Server server(Pipeline::restore(snapshot), {});
  const std::string csv = as_csv(beijing_rows(3));
  {
    std::istringstream in(csv);
    std::ostringstream out;
    RowReader reader(in, 3);
    PredictionWriter writer(out, OutputFormat::Csv, /*with_latency=*/true);
    (void)server.run(reader, writer);
    const std::string text = out.str();
    EXPECT_NE(text.find("row,prediction,latency_us\n"), std::string::npos);
    EXPECT_NE(text.find("\n0,"), std::string::npos);
    EXPECT_NE(text.find("\n2,"), std::string::npos);
  }
  {
    std::istringstream in(csv);
    std::ostringstream out;
    RowReader reader(in, 3);
    PredictionWriter writer(out, OutputFormat::Jsonl);
    (void)server.run(reader, writer);
    EXPECT_NE(out.str().find("{\"row\": 0, \"prediction\": "),
              std::string::npos);
  }
}

/// A streambuf that hands out its content line by line, sleeping before
/// every line after the first — a stalling producer whose inter-row gap
/// provably exceeds any flush interval below the sleep.
class SlowLineBuf : public std::streambuf {
 public:
  SlowLineBuf(const std::string& text, std::chrono::microseconds gap)
      : gap_(gap) {
    std::size_t begin = 0;
    while (begin < text.size()) {
      std::size_t end = text.find('\n', begin);
      end = end == std::string::npos ? text.size() : end + 1;
      lines_.push_back(text.substr(begin, end - begin));
      begin = end;
    }
  }

 protected:
  int_type underflow() override {
    if (next_ >= lines_.size()) {
      return traits_type::eof();
    }
    if (next_ > 0) {
      std::this_thread::sleep_for(gap_);
    }
    std::string& line = lines_[next_++];
    setg(line.data(), line.data(), line.data() + line.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> lines_;
  std::chrono::microseconds gap_;
  std::size_t next_ = 0;
};

/// Runs \p body over each predictor the stdin loop must batch alike: the
/// in-process batch engines and a 2-replica Loopback cluster.
template <typename Body>
void for_each_predictor(const Body& body) {
  {
    SCOPED_TRACE("local predictor");
    hdc::serve::LocalPredictor local(
        hdc::io::load_pipeline(beijing_snapshot()), beijing_snapshot());
    body(local);
  }
  {
    SCOPED_TRACE("2-replica loopback cluster");
    hdc::cluster::ClusterOptions options;
    options.replicas = 2;
    options.backend = hdc::cluster::CommBackend::Loopback;
    hdc::cluster::ShardedServer cluster(beijing_snapshot(), options);
    body(cluster);
  }
}

TEST(ServerTest, FlushIntervalFlushesPartialBatches) {
  for_each_predictor([](Predictor& predictor) {
    // The batch never fills from 5 rows; the timer flushes it.
    ServerOptions options;
    options.batch_size = 1024;
    options.flush_interval = std::chrono::microseconds(200);
    const Server server(predictor, options);
    // Each inter-row gap sleeps well past the flush interval, so the timer
    // check after every second admission is *guaranteed* to have expired
    // (sleep_for never returns early on a steady clock): rows pair up as
    // {0,1}, {2,3} with row 4 flushed by end-of-stream — at least 3
    // batches, always (scheduler preemption can only add flushes, never
    // merge them).
    SlowLineBuf buf(as_csv(beijing_rows(5)), std::chrono::milliseconds(2));
    std::istream in(&buf);
    std::ostringstream out;
    RowReader reader(in, 3);
    PredictionWriter writer(out, OutputFormat::Plain);
    const Server::Stats stats = server.run(reader, writer);
    EXPECT_EQ(stats.rows, 5U);
    EXPECT_GE(stats.batches, 3U);
    EXPECT_LE(stats.batches, 5U);
  });
}

TEST(ServerTest, PausedProducerNeverPinsAdmittedRows) {
  // Regression for the serve-loop latency bug: the flush timer used to be
  // evaluated only after reader.next() returned another row, so a row
  // admitted right before the producer paused sat in the partial batch for
  // the whole pause (unbounded, not flush_interval).  The loop now flushes
  // pending rows before any read that may block.  With SlowLineBuf the
  // stream's buffer is provably empty after every admitted row, so each of
  // the 5 rows must be flushed as its own batch *before* the next
  // inter-row sleep — deterministically, whatever the scheduler does.  A
  // cluster predictor runs the same loop.
  for_each_predictor([](Predictor& predictor) {
    ServerOptions options;
    options.batch_size = 1024;
    options.flush_interval = std::chrono::milliseconds(60'000);  // huge
    const Server server(predictor, options);
    SlowLineBuf buf(as_csv(beijing_rows(5)), std::chrono::milliseconds(1));
    std::istream in(&buf);
    std::ostringstream out;
    RowReader reader(in, 3);
    PredictionWriter writer(out, OutputFormat::Plain);
    const Server::Stats stats = server.run(reader, writer);
    EXPECT_EQ(stats.rows, 5U);
    // The huge interval proves the flush came from the may-block guard, not
    // the deadline: the old loop would have served all 5 rows in one batch
    // at end of stream.
    EXPECT_EQ(stats.batches, 5U);
  });
}

TEST(ServerTest, ZeroFlushIntervalDisablesTheTimer) {
  for_each_predictor([](Predictor& predictor) {
    ServerOptions options;
    options.batch_size = 1024;
    options.flush_interval = std::chrono::microseconds(0);
    const Server server(predictor, options);
    SlowLineBuf buf(as_csv(beijing_rows(5)), std::chrono::milliseconds(1));
    std::istream in(&buf);
    std::ostringstream out;
    RowReader reader(in, 3);
    PredictionWriter writer(out, OutputFormat::Plain);
    const Server::Stats stats = server.run(reader, writer);
    EXPECT_EQ(stats.rows, 5U);
    EXPECT_EQ(stats.batches, 1U);  // full/EOF flushes only
  });
}

TEST(ServerTest, MalformedRowServesEarlierRowsThenThrows) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline pipeline = Pipeline::restore(snapshot);
  const Server server(pipeline, {});
  std::istringstream in("0,15,3\n1,180,12\nbroken row\n4,300,23\n");
  std::ostringstream out;
  RowReader reader(in, 3);
  PredictionWriter writer(out, OutputFormat::Plain);
  EXPECT_THROW((void)server.run(reader, writer), hdc::serve::RowError);
  // Both rows before the bad one were predicted and flushed.
  std::ostringstream expected;
  {
    PredictionWriter oracle(expected, OutputFormat::Plain);
    oracle.write(0, pipeline.regress(std::vector<double>{0, 15, 3}), 0.0);
    oracle.write(1, pipeline.regress(std::vector<double>{1, 180, 12}), 0.0);
  }
  EXPECT_EQ(out.str(), expected.str());
}

using Rows = std::vector<std::vector<double>>;

/// Forwards to a real predictor and records every numeric batch it was
/// asked to predict, row by row.
class RecordingPredictor : public Predictor {
 public:
  explicit RecordingPredictor(Predictor& inner) : inner_(&inner) {}

  [[nodiscard]] hdc::io::PipelineKind kind() const override {
    return inner_->kind();
  }
  [[nodiscard]] hdc::io::PipelineInput input() const override {
    return inner_->input();
  }
  [[nodiscard]] std::size_t num_features() const override {
    return inner_->num_features();
  }
  [[nodiscard]] hdc::serve::Predictions predict(
      const hdc::serve::SampleBatch& batch, HeadMode head) override {
    const auto rows = std::get<std::span<const std::vector<double>>>(batch);
    batches.emplace_back(rows.begin(), rows.end());
    return inner_->predict(batch, head);
  }
  hdc::serve::AdaptOutcome adapt(const hdc::serve::Sample& sample,
                                 double target) override {
    return inner_->adapt(sample, target);
  }
  std::uint64_t reload(const std::string& path) override {
    return inner_->reload(path);
  }
  std::uint64_t export_delta(const std::string& out_path) override {
    return inner_->export_delta(out_path);
  }
  [[nodiscard]] std::uint64_t generation() const override {
    return inner_->generation();
  }
  [[nodiscard]] std::string source() const override { return inner_->source(); }

  std::vector<Rows> batches;

 private:
  Predictor* inner_;
};

/// The per-row Pipeline::regress oracle over \p rows, as plain output.
std::string regress_oracle(const Rows& rows) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline pipeline = Pipeline::restore(snapshot);
  std::ostringstream out;
  PredictionWriter writer(out, OutputFormat::Plain);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    writer.write(i, pipeline.regress(rows[i]), 0.0);
  }
  return out.str();
}

TEST(ServerTest, ShortLastBatchPredictsOnlyItsOwnRows) {
  // The batcher keeps its row slots across batches: after two full batches
  // of 4, the last batch of 2 reuses slots that still hold rows 4..7.  It
  // must hand the predictor rows 8 and 9 only, never a stale slot.
  const auto rows = beijing_rows(10);
  const std::string expected = regress_oracle(rows);
  for_each_predictor([&](Predictor& inner) {
    RecordingPredictor predictor(inner);
    ServerOptions options;
    options.batch_size = 4;
    const Server server(predictor, options);
    std::istringstream in(as_csv(rows));
    std::ostringstream out;
    RowReader reader(in, 3);
    PredictionWriter writer(out, OutputFormat::Plain);
    const Server::Stats stats = server.run(reader, writer);
    EXPECT_EQ(stats.rows, 10U);
    EXPECT_EQ(stats.batches, 3U);
    ASSERT_EQ(predictor.batches.size(), 3U);
    EXPECT_EQ(predictor.batches[0], Rows(rows.begin(), rows.begin() + 4));
    EXPECT_EQ(predictor.batches[1], Rows(rows.begin() + 4, rows.begin() + 8));
    EXPECT_EQ(predictor.batches[2], Rows(rows.begin() + 8, rows.end()));
    EXPECT_EQ(out.str(), expected);
  });
}

TEST(ServerTest, RowErrorInThirdBatchWritesExactlyTheEarlierRows) {
  // Two full batches of 4 reach the writer; line 9 opens the third batch
  // and is malformed, so nothing of it is predicted.
  const auto rows = beijing_rows(8);
  const std::string expected = regress_oracle(rows);
  for_each_predictor([&](Predictor& inner) {
    RecordingPredictor predictor(inner);
    ServerOptions options;
    options.batch_size = 4;
    const Server server(predictor, options);
    std::istringstream in(as_csv(rows) + "0,broken,3\n4,300,23\n");
    std::ostringstream out;
    RowReader reader(in, 3);
    PredictionWriter writer(out, OutputFormat::Plain);
    try {
      (void)server.run(reader, writer);
      ADD_FAILURE() << "the malformed row was accepted";
    } catch (const hdc::serve::RowError& error) {
      EXPECT_NE(std::string(error.what()).find("row 9"), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(predictor.batches.size(), 2U);
    EXPECT_EQ(out.str(), expected);
  });
}

TEST(ServerTest, RejectsArityMismatchAndZeroBatch) {
  const auto snapshot = MappedSnapshot::open(beijing_snapshot());
  const Pipeline pipeline = Pipeline::restore(snapshot);
  ServerOptions zero;
  zero.batch_size = 0;
  EXPECT_THROW(Server(pipeline, zero), std::invalid_argument);
  // Past the bound the deadline arithmetic would overflow; a negative
  // interval is refused too.
  const auto max = hdc::serve::MicroBatcher::max_flush_interval();
  for (const auto bad : {max + std::chrono::microseconds(1),
                         std::chrono::microseconds::max(),
                         std::chrono::microseconds(-1)}) {
    ServerOptions flush;
    flush.flush_interval = bad;
    EXPECT_THROW(Server(pipeline, flush), std::invalid_argument);
  }
  ServerOptions longest;
  longest.flush_interval = max;
  EXPECT_NO_THROW(Server(pipeline, longest));

  const Server server(pipeline, {});
  std::istringstream in("1,2\n");
  std::ostringstream out;
  RowReader reader(in, 2);  // pipeline takes 3 features
  PredictionWriter writer(out, OutputFormat::Plain);
  EXPECT_THROW((void)server.run(reader, writer), std::invalid_argument);
}

TEST(ServerTest, OutputFormatNamesParse) {
  EXPECT_EQ(hdc::serve::parse_output_format("plain"), OutputFormat::Plain);
  EXPECT_EQ(hdc::serve::parse_output_format("csv"), OutputFormat::Csv);
  EXPECT_EQ(hdc::serve::parse_output_format("jsonl"), OutputFormat::Jsonl);
  EXPECT_THROW((void)hdc::serve::parse_output_format("yaml"),
               std::invalid_argument);
}

}  // namespace
