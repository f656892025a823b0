// Seeded input generator: Beijing rows, language-ID text lines and the
// open-loop socket schedule.  The serve binary only ever sees the bytes
// built here; the same seed always yields the same bytes.

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <unordered_set>

#include "bench.hpp"
#include "hdc/base/rng.hpp"

namespace perfbench {

namespace {

// Independent generator streams per input kind.
constexpr std::uint64_t stream_beijing = 1;
constexpr std::uint64_t stream_text = 2;
constexpr std::uint64_t stream_reads = 4;
constexpr std::uint64_t stream_feedback = 5;

// Fixed-point ticks keep every field an exact decimal string, so the
// oracle parses precisely the doubles the server parses.
constexpr std::uint64_t ticks_per_unit = 10000;

std::string fixed(std::uint64_t ticks) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%llu.%04llu",
                static_cast<unsigned long long>(ticks / ticks_per_unit),
                static_cast<unsigned long long>(ticks % ticks_per_unit));
  return buffer;
}

// Ticks in [0, units): uniform, or within one unit of either end.
std::uint64_t draw_ticks(hdc::Rng& rng, std::uint64_t units, bool edge) {
  const std::uint64_t span = units * ticks_per_unit;
  if (!edge) {
    return rng.below(span);
  }
  const std::uint64_t offset = rng.below(ticks_per_unit);
  return rng.flip() ? offset : span - 1 - offset;
}

// The text fixture's three pseudo-language vocabularies (the words of its
// training phrases).
constexpr std::array<std::array<std::string_view, 12>, 3> vocabularies{{
    {"the", "quick", "brown", "fox", "hello", "there", "again", "we",
     "shall", "meet", "today", "thank"},
    {"el", "gato", "corre", "ahora", "buenos", "dias", "amigo", "gracias",
     "por", "la", "cena", "hasta"},
    {"der", "hund", "lauft", "schnell", "guten", "morgen", "freund", "danke",
     "fur", "das", "essen", "spater"},
}};

std::vector<std::int64_t> poisson_arrivals(hdc::Rng& rng, double rate,
                                           double seconds) {
  std::vector<std::int64_t> due;
  if (rate <= 0.0) {
    return due;
  }
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) {
      return due;
    }
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
}

}  // namespace

double seasonal_target(double year, double day, double hour) {
  constexpr double two_pi = 6.283185307179586476925287;
  return 12.5 - 14.5 * std::cos(two_pi * (day - 15.0) / 366.0 + two_pi) +
         4.0 * std::cos(two_pi * (hour - 15.0) / 24.0) + 0.04 * year;
}

Corpus make_beijing_corpus(std::uint64_t seed, std::size_t rows) {
  hdc::Rng rng(hdc::derive_seed(seed, stream_beijing));
  Corpus corpus;
  corpus.pool.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const bool edge = rng.below(10) == 0;
    const std::uint64_t year = rng.below(4 * ticks_per_unit + 1);
    const std::uint64_t day = draw_ticks(rng, 366, edge);
    const std::uint64_t hour = draw_ticks(rng, 24, edge);
    Sample sample;
    sample.line = fixed(year) + ',' + fixed(day) + ',' + fixed(hour);
    for (const std::uint64_t ticks : {year, day, hour}) {
      sample.features.push_back(static_cast<double>(ticks) /
                                static_cast<double>(ticks_per_unit));
    }
    // Parse the wire text back so features are exactly what a reader sees.
    std::size_t begin = 0;
    for (double& value : sample.features) {
      const std::size_t end = sample.line.find(',', begin);
      const std::size_t stop = end == std::string::npos ? sample.line.size()
                                                        : end;
      std::from_chars(sample.line.data() + begin, sample.line.data() + stop,
                      value);
      begin = stop + 1;
    }
    sample.target = seasonal_target(sample.features[0], sample.features[1],
                                    sample.features[2]);
    corpus.pool.push_back(std::move(sample));
  }
  return corpus;
}

Corpus make_text_corpus(std::uint64_t seed, std::size_t pool_size) {
  hdc::Rng rng(hdc::derive_seed(seed, stream_text));
  Corpus corpus;
  corpus.text = true;
  std::unordered_set<std::string> seen;
  while (corpus.pool.size() < pool_size) {
    const std::size_t language = rng.below(vocabularies.size());
    const std::size_t words = 3 + rng.below(5);
    std::string line;
    for (std::size_t w = 0; w < words; ++w) {
      std::size_t from = language;
      if (rng.below(10) == 0) {
        from = (language + 1 + rng.below(vocabularies.size() - 1)) %
               vocabularies.size();
      }
      const auto& vocabulary = vocabularies[from];
      if (w > 0) {
        line += ' ';
      }
      line += vocabulary[rng.below(vocabulary.size())];
    }
    if (!seen.insert(line).second) {
      continue;
    }
    Sample sample;
    sample.line = std::move(line);
    sample.target = static_cast<double>(language);
    corpus.pool.push_back(std::move(sample));
  }
  return corpus;
}

std::vector<Event> make_schedule(std::uint64_t seed, const StepSpec& step,
                                 double adapt_share, std::size_t pool_size) {
  hdc::Rng reads_rng(hdc::derive_seed(seed, stream_reads));
  hdc::Rng feedback_rng(hdc::derive_seed(seed, stream_feedback));
  std::vector<Event> events;
  for (const std::int64_t due :
       poisson_arrivals(reads_rng, step.rate, step.seconds)) {
    events.push_back({due, EventKind::Read,
                      static_cast<std::uint32_t>(reads_rng.below(pool_size))});
  }
  for (const std::int64_t due :
       poisson_arrivals(feedback_rng, step.feedback_rate, step.seconds)) {
    const EventKind kind = feedback_rng.uniform() < adapt_share
                               ? EventKind::Adapt
                               : EventKind::Feedback;
    events.push_back(
        {due, kind,
         static_cast<std::uint32_t>(feedback_rng.below(pool_size))});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.due_ns < b.due_ns;
                   });
  return events;
}

}  // namespace perfbench
