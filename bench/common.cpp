#include "bench/common.hpp"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string_view>
#include <utility>

#include "src/airfield/setup.hpp"
#include "src/core/table.hpp"
#include "src/obs/jsonl_sink.hpp"

namespace atm::bench {

tasks::Scenario scenario_from_args(int argc, char** argv,
                                   const tasks::Scenario& fallback) {
  std::string key;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scenario" && i + 1 < argc) {
      key = argv[i + 1];
    } else if (arg.rfind("--scenario=", 0) == 0) {
      key = arg.substr(std::string("--scenario=").size());
    }
  }
  if (key.empty()) return fallback;
  tasks::Scenario chosen;
  if (!tasks::scenario_by_name(key, chosen)) {
    std::cerr << "unknown scenario '" << key << "'; available:";
    for (const std::string& name : tasks::scenario_names()) {
      std::cerr << ' ' << name;
    }
    std::cerr << '\n';
    std::exit(2);
  }
  return chosen;
}

std::string json_path_from_args(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      path = argv[i + 1];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(std::string("--json=").size());
    }
  }
  return path;
}

namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over "<tag>|<field>|<field>|...", the fields in for_each order.
template <typename Outcome>
std::string digest_fields(std::string_view tag, const Outcome& outcome) {
  std::string text(tag);
  for_each(outcome, [&](std::string_view, auto value) {
    text += '|';
    text += std::to_string(value);
  });
  return hex64(fnv1a(text));
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  append_json_escaped(out, s);
  out += '"';
  return out;
}

std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string outcome_digest(const tasks::Task1Stats& stats) {
  return digest_fields("task1", stats.outcome());
}

std::string outcome_digest(const tasks::Task23Stats& stats) {
  return digest_fields("task23", stats.outcome());
}

std::string outcome_digest(const tasks::MultiRadarStats& stats) {
  return digest_fields("multi_task1", stats.outcome());
}

void JsonReport::param_raw(const std::string& key, std::string encoded) {
  if (!enabled()) return;
  params_.emplace_back(key, std::move(encoded));
}

void JsonReport::field_raw(const std::string& key, std::string encoded) {
  if (!enabled() || results_.empty()) return;
  std::string& row = results_.back();
  if (!row.empty()) row += ',';
  row += json_string(key);
  row += ':';
  row += encoded;
}

void JsonReport::add_param(const std::string& key, const std::string& value) {
  param_raw(key, json_string(value));
}

void JsonReport::add_param(const std::string& key, long long value) {
  param_raw(key, std::to_string(value));
}

void JsonReport::add_param(const std::string& key, double value) {
  param_raw(key, json_double(value));
}

void JsonReport::begin_result() {
  if (enabled()) results_.emplace_back();
}

void JsonReport::add_field(const std::string& key, const std::string& value) {
  field_raw(key, json_string(value));
}

void JsonReport::add_field(const std::string& key, long long value) {
  field_raw(key, std::to_string(value));
}

void JsonReport::add_field(const std::string& key, double value) {
  field_raw(key, json_double(value));
}

bool JsonReport::write() const {
  if (!enabled()) return true;
  std::string doc = "{\"bench\":";
  doc += json_string(bench_);
  if (!scenario_.empty()) {
    doc += ",\"scenario\":";
    doc += json_string(scenario_);
  }
  doc += ",\"params\":{";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i != 0) doc += ',';
    doc += json_string(params_[i].first);
    doc += ':';
    doc += params_[i].second;
  }
  doc += "},\"results\":[";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    if (i != 0) doc += ',';
    doc += '{';
    doc += results_[i];
    doc += '}';
  }
  doc += "]}\n";
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "warning: cannot open --json file " << path_ << "\n";
    return false;
  }
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  if (!ok) std::cerr << "warning: short write to --json file " << path_ << "\n";
  else std::cout << "(json report written to " << path_ << ")\n";
  return ok;
}

obs::TraceSink* bench_trace_sink() {
  static const std::unique_ptr<obs::JsonlTraceSink> sink = [] {
    std::unique_ptr<obs::JsonlTraceSink> s;
    if (const char* path = std::getenv("ATM_BENCH_TRACE")) {
      if (*path != '\0') {
        s = std::make_unique<obs::JsonlTraceSink>(std::string(path));
        if (!s->ok()) {
          std::cerr << "warning: cannot open ATM_BENCH_TRACE file " << path
                    << "; tracing disabled\n";
          s.reset();
        }
      }
    }
    return s;
  }();
  return sink.get();
}

bool smoke_mode() {
  const char* v = std::getenv("ATM_BENCH_SMOKE");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::vector<std::size_t> maybe_smoke(std::vector<std::size_t> sweep) {
  if (smoke_mode() && sweep.size() > 3) sweep.resize(3);
  return sweep;
}

std::vector<std::size_t> default_sweep() {
  // Starts at 500: below that, fixed launch overheads put the platforms
  // within noise of each other (the 192-PE ClearSpeed can even undercut
  // the CC 1.0 card), a regime the paper's figures do not cover.
  return maybe_smoke({500, 1000, 2000, 4000, 8000});
}

Series measure_series(tasks::Backend& backend, Task task,
                      const std::vector<std::size_t>& sweep,
                      int task1_periods, std::uint64_t seed) {
  Series series;
  series.platform = backend.name();
  // Route every figure sweep through the shared sink (no-op when the
  // ATM_BENCH_TRACE environment variable is unset).
  obs::TraceSink* trace = bench_trace_sink();
  backend.set_trace_sink(trace);
  for (const std::size_t n : sweep) {
    backend.load(airfield::make_airfield(n, seed + n));
    core::Rng radar_rng(seed ^ n);
    double ms = 0.0;
    if (task == Task::kTask1) {
      for (int p = 0; p < task1_periods; ++p) {
        backend.set_trace_context(-1, p);
        airfield::RadarFrame frame =
            backend.generate_radar(radar_rng, {}, nullptr);
        ms += backend.run_task1(frame, {}).modeled_ms;
      }
      ms /= task1_periods;
    } else {
      // Advance one period first so Tasks 2+3 see post-tracking state,
      // like the 16th period of a real major cycle.
      airfield::RadarFrame frame =
          backend.generate_radar(radar_rng, {}, nullptr);
      (void)backend.run_task1(frame, {});
      ms = backend.run_task23({}).modeled_ms;
    }
    series.n.push_back(static_cast<double>(n));
    series.ms.push_back(ms);
  }
  backend.set_trace_sink(nullptr);
  backend.set_trace_context(-1, -1);
  if (trace != nullptr) trace->flush();
  return series;
}

namespace {

/// Kebab-case slug of a figure title, for CSV file names.
std::string slugify(const std::string& title) {
  std::string out;
  for (const char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '-') {
      out += '-';
    }
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

}  // namespace

void print_figure_table(const std::string& title,
                        const std::vector<Series>& series) {
  std::cout << "\n== " << title << " ==\n";
  if (series.empty()) return;
  std::vector<std::string> headers{"aircraft"};
  for (const Series& s : series) headers.push_back(s.platform + " [ms]");
  core::TextTable table(std::move(headers));
  for (std::size_t row = 0; row < series.front().n.size(); ++row) {
    table.begin_row();
    table.add_cell(static_cast<long long>(series.front().n[row]));
    for (const Series& s : series) table.add_cell(s.ms[row], 4);
  }
  std::cout << table;

  // Optional machine-readable copy for plotting: set ATM_BENCH_CSV_DIR.
  if (const char* dir = std::getenv("ATM_BENCH_CSV_DIR")) {
    const std::string path =
        std::string(dir) + "/" + slugify(title) + ".csv";
    if (table.write_csv(path)) {
      std::cout << "(csv written to " << path << ")\n";
    }
  }
}

void print_curve_fits(const std::vector<Series>& series) {
  core::TextTable table({"platform", "shape", "lin R^2", "quad R^2",
                         "quad/lin coeff"});
  for (const Series& s : series) {
    const core::CurveShapeReport report =
        core::analyze_curve_shape(s.n, s.ms);
    table.begin_row();
    table.add_cell(s.platform);
    table.add_cell(report.classification());
    table.add_cell(report.linear.gof.r2, 6);
    table.add_cell(report.quadratic.gof.r2, 6);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3e",
                  report.quad_to_linear_coeff_ratio);
    table.add_cell(std::string(buf));
  }
  std::cout << "\n-- curve shapes (MATLAB-style fits) --\n" << table;
}

void print_fit_detail(const Series& series) {
  const core::PolyFit lin = core::fit_linear(series.n, series.ms);
  const core::PolyFit quad = core::fit_quadratic(series.n, series.ms);
  std::cout << "\n-- goodness of fit: " << series.platform << " --\n";
  core::TextTable table({"model", "equation", "SSE", "R-square",
                         "adj R-square", "RMSE"});
  for (const auto* fit : {&lin, &quad}) {
    table.begin_row();
    table.add_cell(fit->degree() == 1 ? std::string("linear (poly1)")
                                      : std::string("quadratic (poly2)"));
    table.add_cell(fit->to_string());
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4e", fit->gof.sse);
    table.add_cell(std::string(buf));
    table.add_cell(fit->gof.r2, 6);
    table.add_cell(fit->gof.adj_r2, 6);
    std::snprintf(buf, sizeof buf, "%.4e", fit->gof.rmse);
    table.add_cell(std::string(buf));
  }
  std::cout << table;
  const core::CurveShapeReport report =
      core::analyze_curve_shape(series.n, series.ms);
  std::cout << "classification: " << report.classification() << "\n";
}

}  // namespace atm::bench
