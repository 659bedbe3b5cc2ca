#include "bench/e2e/report.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

namespace bench_atm {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(const std::vector<double>& values) {
  add(static_cast<std::uint64_t>(values.size()));
  for (const double v : values) add(v);
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(metrics[i].name);
    out += ": {\"value\": ";
    out += json_number(metrics[i].value);
    out += ", \"unit\": ";
    out += json_string(metrics[i].unit);
    out += '}';
  }
  out += '}';
  return out;
}

std::uint64_t SpanLog::add(std::string_view name, std::uint64_t parent,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::string extra) {
  const std::uint64_t id = reserve();
  add_reserved(id, name, parent, start_ns, end_ns, std::move(extra));
  return id;
}

void SpanLog::add_reserved(std::uint64_t id, std::string_view name,
                           std::uint64_t parent, std::int64_t start_ns,
                           std::int64_t end_ns, std::string extra) {
  std::string line = "{\"run\":" + json_string(run_id_) +
                     ",\"id\":" + std::to_string(id) +
                     ",\"parent\":" + std::to_string(parent) +
                     ",\"name\":" + json_string(name) +
                     ",\"start_ns\":" + std::to_string(start_ns) +
                     ",\"end_ns\":" + std::to_string(end_ns);
  if (!extra.empty()) {
    line += ',';
    line += extra;
  }
  line += '}';
  lines_.push_back(std::move(line));
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines_) out << line << '\n';
  out.flush();
  if (!out) {
    std::cerr << "bench_atm: cannot write spans to " << path << '\n';
    return false;
  }
  return true;
}

}  // namespace bench_atm
