// Small utilities of bench_atm: digests, order statistics, the in-memory
// span log, and JSON formatting of the result lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bench_atm {

/// Host monotonic time in ns (std::chrono::steady_clock).
[[nodiscard]] std::int64_t now_ns();

/// FNV-1a folded over 64-bit words (one xor-multiply per word), so that
/// hashing a 6000-aircraft flight state costs microseconds.
class Digest {
 public:
  void add(std::uint64_t word) {
    h_ ^= word;
    h_ *= 1099511628211ULL;
  }
  void add(double value);
  void add(const std::vector<double>& values);

  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
[[nodiscard]] std::string metrics_json(const std::vector<Metric>& metrics);

[[nodiscard]] std::string json_string(std::string_view s);

/// Bench-side spans kept in memory and written as JSONL at exit: one
/// object per span with its name, start/end ns, id, parent id (0 = root)
/// and the run id shared by every span of the process.
class SpanLog {
 public:
  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Record a closed span; returns its id. `extra` is appended verbatim
  /// as further JSON members (`"self_ns":12`), empty for none.
  std::uint64_t add(std::string_view name, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::string extra = {});

  /// Reserve an id for a span whose children are recorded before it.
  [[nodiscard]] std::uint64_t reserve() { return ++last_id_; }
  void add_reserved(std::uint64_t id, std::string_view name,
                    std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns, std::string extra = {});

  /// Write every span to `path`; false (with a message) on failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::string run_id_;
  std::uint64_t last_id_ = 0;
  std::vector<std::string> lines_;
};

}  // namespace bench_atm
