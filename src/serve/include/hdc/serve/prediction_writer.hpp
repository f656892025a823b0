#ifndef HDC_SERVE_PREDICTION_WRITER_HPP
#define HDC_SERVE_PREDICTION_WRITER_HPP

/// \file prediction_writer.hpp
/// \brief Prediction emission for the serving front end.
///
/// Three wire formats, one writer:
///
///  * `Plain` — one prediction per line, nothing else.  This is the golden
///    diff format of the serve-e2e CI suite: deterministic down to the last
///    byte (std::to_chars emits the shortest locale-independent decimal
///    that round-trips every double bit-exactly).
///  * `Csv`   — `row,prediction[,latency_us]` with a header line.
///  * `Jsonl` — `{"row": i, "prediction": p[, "latency_us": l]}`.
///
/// Per-row latency (micro-batch admission to prediction write-out) is
/// opt-in because it is inherently nondeterministic: golden-file pipelines
/// use Plain, operators watching tail latency use Csv/Jsonl with latency.
///
/// ## Prediction heads
///
/// With a `HeadMode`, every row additionally carries the prediction head
/// (hdc/core/confidence.hpp): a normalized similarity-margin confidence for
/// classifiers (`Confidence`), or a p10/p50/p90 distributional band for
/// regressors (`Band`).  Head fields are deterministic — derived from
/// Hamming distances, not timing — so goldens cover them:
///
///  * Plain  — `label confidence` / `value p10 p50 p90`, space-separated.
///  * Csv    — extra `confidence` / `p10,p50,p90` columns before
///             `latency_us`.
///  * Jsonl  — extra `"confidence"` / `"p10"/"p50"/"p90"` fields.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "hdc/core/confidence.hpp"

namespace hdc::serve {

/// Raised when the prediction stream can no longer be written — typically
/// the downstream consumer closed its end (EPIPE with SIGPIPE ignored).
/// Serving loops treat it as "this client is gone", not as a parse error:
/// the stdin front end exits nonzero with a summary, the socket front end
/// closes the one connection.
class WriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Output wire format.
enum class OutputFormat : std::uint8_t {
  Plain,
  Csv,
  Jsonl,
};

/// Parses \p name ("plain" / "csv" / "jsonl") into an OutputFormat.
/// \throws std::invalid_argument on anything else.
[[nodiscard]] OutputFormat parse_output_format(const std::string& name);

/// Which prediction head every row carries (fixed per stream: headers and
/// column counts must not change mid-stream).
enum class HeadMode : std::uint8_t {
  None,        ///< Prediction only.
  Confidence,  ///< + margin confidence (classifiers; write_class overload).
  Band,        ///< + p10/p50/p90 band (regressors; write_band).
};

/// Streaming prediction emitter; one instance per response stream.
class PredictionWriter {
 public:
  /// \param out           Destination stream; must outlive the writer.
  /// \param with_latency  Emit the per-row latency column/field (ignored by
  ///                      Plain, which stays byte-deterministic).
  /// \param head          Per-row prediction head; the matching write
  ///                      method must then be used for every row.
  PredictionWriter(std::ostream& out, OutputFormat format,
                   bool with_latency = false, HeadMode head = HeadMode::None);

  /// Emits one regression prediction (classifier labels go through
  /// write_class so Plain/Csv print them as integers).  \throws
  /// std::logic_error when a head mode is configured (use the head-carrying
  /// overloads; mixing would shear the column contract mid-stream).
  void write(std::size_t row, double prediction, double latency_us);
  void write_class(std::size_t row, std::size_t label, double latency_us);

  /// HeadMode::Confidence rows: label + margin confidence in [0, 1].
  /// \throws std::logic_error unless head() == Confidence.
  void write_class(std::size_t row, std::size_t label, double confidence,
                   double latency_us);

  /// HeadMode::Band rows: the point prediction + its p10/p50/p90 band.
  /// \throws std::logic_error unless head() == Band.
  void write_band(std::size_t row, double prediction, const Band& band,
                  double latency_us);

  /// Flushes the underlying stream (end of a micro-batch, so a downstream
  /// consumer never waits on a full buffer for predictions already made).
  /// \throws WriteError when the stream has failed — predictions that can
  /// no longer reach the consumer must stop the loop, not scroll into a
  /// dead buffer.
  void flush();

  [[nodiscard]] OutputFormat format() const noexcept { return format_; }
  [[nodiscard]] HeadMode head() const noexcept { return head_; }
  /// Whether rows carry the latency column/field (Plain never does).
  [[nodiscard]] bool writes_latency() const noexcept {
    return with_latency_ && format_ != OutputFormat::Plain;
  }
  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  /// One named head field ("confidence", "p10", ...) with its formatted
  /// value; the wire format decides how name and value are joined.
  struct HeadField {
    const char* name;
    std::string value;
  };

  void write_row(std::size_t row, const std::string& value,
                 const HeadField* fields, std::size_t num_fields,
                 double latency_us);
  void require_head(HeadMode required, const char* method) const;

  std::ostream* out_;
  OutputFormat format_;
  bool with_latency_;
  HeadMode head_;
  bool header_written_ = false;
  std::size_t rows_ = 0;
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_PREDICTION_WRITER_HPP
