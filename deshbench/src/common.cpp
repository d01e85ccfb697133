#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "bench.hpp"
#include "logs/syslog.hpp"
#include "logs/system_profile.hpp"

namespace deshbench {

// --- Tracer -------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (!tracer_) return;
  id_ = tracer_->next_id_++;
  parent_ = tracer_->open_;
  tracer_->open_ = id_;
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  const Clock::time_point end = Clock::now();
  tracer_->spans_.push_back({name_, id_, parent_,
                             seconds_between(tracer_->origin_, start_),
                             seconds_between(tracer_->origin_, end)});
  tracer_->open_ = parent_;
}

double Tracer::total_seconds(std::string_view name, std::size_t since) const {
  double total = 0;
  for (std::size_t i = since; i < spans_.size(); ++i)
    if (name == spans_[i].name) total += spans_[i].end - spans_[i].start;
  return total;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,"
                  "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  s.name, s.id, s.parent, s.start, s.end);
    out << line;
  }
  return static_cast<bool>(out);
}

// --- Report -------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  end_to_end_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  per_layer_[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_checks_;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

void Report::info(const std::string& line) const {
  std::cout << "# " << line << "\n";
}

namespace {
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string Report::json(bool per_layer) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : per_layer ? per_layer_ : end_to_end_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << number(v.value) << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void Report::echo_other(bool per_layer) const {
  for (const auto& [name, v] : per_layer ? end_to_end_ : per_layer_)
    std::cerr << "  " << name << " " << number(v.value) << " " << v.unit
              << "\n";
}

// --- inputs -------------------------------------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the pair: nearby run seeds give unrelated
  // generator seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Model make_training_data(const Options& options, Tracer& tracer) {
  logs::SystemProfile profile = options.small
                                    ? logs::profile_tiny(0)
                                    : logs::profile_m1();
  profile.seed = derive_seed(options.seed, 1);
  Model model;
  {
    auto span = tracer.span("logs.generate");
    model.log = logs::SyntheticCraySource(profile).generate();
  }
  model.train =
      core::split_corpus(model.log.records, model.log.truth.split_time).first;
  return model;
}

core::DeshConfig training_config(const Options& options) {
  core::DeshConfig config;
  config.seed = derive_seed(options.seed, 2);
  // Every stage's worker count follows this one field; the OpenMP team in
  // tensor::ops is pinned to one thread in main(). One worker: on a shared
  // virtual machine a four-worker fit waits at every gradient reduction for
  // whichever vCPU the hypervisor has taken away, and sizing runs saw fit
  // times of 3.4-29 s at four workers against 7.5-14.5 s at one.
  config.threads = 1;
  config.phase2.epochs = 100;
  return config;
}

void fit_model(Model& model, const core::DeshConfig& config, Tracer& tracer) {
  auto created = core::DeshPipeline::create(config);
  if (!created.ok()) {
    std::cerr << "pipeline config rejected: " << created.error().message
              << "\n";
    std::exit(2);
  }
  model.pipeline =
      std::make_shared<core::DeshPipeline>(std::move(created).value());
  auto span = tracer.span("core.fit");
  model.fit = model.pipeline->fit(model.train);
}

logs::SystemProfile replay_profile(const Options& options) {
  // M1's natural mix at 20x the nodes (2,800, within the paper's
  // 1,800-6,400-node machines), failures, lookalikes and maintenance
  // windows scaled alike so densities per node stay M1's.
  const std::size_t scale = options.small ? 1 : 20;
  logs::SystemProfile p =
      options.small ? logs::profile_tiny(0) : logs::profile_m1();
  p.node_count *= scale;
  p.failure_count *= scale;
  p.lookalike_count *= scale;
  p.maintenance_windows *= scale;
  p.seed = derive_seed(options.seed, 3);
  return p;
}

logs::SystemProfile storm_profile(const Options& options) {
  // A failure storm: ten failures per node per day over 24 h and a tenth
  // of M1's benign rate, so nearly every record is part of a chain.
  logs::SystemProfile p = logs::profile_m1();
  p.name = "storm";
  p.node_count = options.small ? 60 : 2000;
  p.duration_hours = options.small ? 6.0 : 24.0;
  p.failure_count = options.small ? 150 : 20000;
  p.lookalike_count = p.failure_count / 10;
  p.maintenance_windows = 0;
  p.benign_events_per_node_hour = 0.3;
  p.seed = derive_seed(options.seed, 4);
  return p;
}

Traffic make_traffic(const logs::SystemProfile& profile, Tracer& tracer) {
  Traffic traffic;
  {
    auto span = tracer.span("logs.generate");
    traffic.log = logs::SyntheticCraySource(profile).generate();
  }
  traffic.canonical = logs::canonicalize_syslog(traffic.log.records);
  return traffic;
}

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) h = (h ^ p[i]) * kFnvPrime;
}
}  // namespace

std::uint64_t checksum(std::span<const logs::LogRecord> records) {
  std::uint64_t h = kFnvOffset;
  for (const logs::LogRecord& r : records) {
    const auto bits = std::bit_cast<std::uint64_t>(r.timestamp);
    fnv(h, &bits, sizeof(bits));
    const std::string node = r.node.to_string();
    fnv(h, node.data(), node.size());
    fnv(h, r.message.data(), r.message.size());
  }
  return h;
}

std::uint64_t checksum(std::string_view bytes) {
  std::uint64_t h = kFnvOffset;
  fnv(h, bytes.data(), bytes.size());
  return h;
}

// --- ground truth and reference streams ---------------------------------

Reference reference_stream(const core::DeshPipeline& pipeline,
                           std::span<const logs::LogRecord> records) {
  core::MonitorConfig config;
  config.threads = 1;
  core::StreamingMonitor monitor(pipeline, config);
  Reference out;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (auto alert = monitor.observe(records[i])) {
      out.alerts.push_back(std::move(*alert));
      out.record_index.push_back(i);
    }
  return out;
}

std::vector<core::MonitorAlert> reference_prefix(const Reference& reference,
                                                 std::size_t count) {
  std::vector<core::MonitorAlert> out;
  for (std::size_t i = 0; i < reference.alerts.size(); ++i)
    if (reference.record_index[i] < count) out.push_back(reference.alerts[i]);
  return out;
}

namespace {
bool close(double a, double b, double tolerance) {
  if (tolerance == 0) return a == b;
  return std::fabs(a - b) <= tolerance * std::max(1.0, std::fabs(b));
}

std::string describe(const core::MonitorAlert& a) {
  std::ostringstream out;
  out << a.node.to_string() << " t=" << a.time
      << " lead=" << a.predicted_lead_seconds << " score=" << a.score;
  return out.str();
}
}  // namespace

std::string compare_alerts(std::vector<core::MonitorAlert> served,
                           std::vector<core::MonitorAlert> expected,
                           bool ordered, double lead_tolerance) {
  if (!ordered) {
    const auto by_time_node = [](const core::MonitorAlert& a,
                                 const core::MonitorAlert& b) {
      return std::tie(a.time, a.node) < std::tie(b.time, b.node);
    };
    std::sort(served.begin(), served.end(), by_time_node);
    std::sort(expected.begin(), expected.end(), by_time_node);
  }
  const std::size_t n = std::min(served.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    const core::MonitorAlert& s = served[i];
    const core::MonitorAlert& e = expected[i];
    if (s.node != e.node || s.time != e.time ||
        !close(s.predicted_lead_seconds, e.predicted_lead_seconds,
               lead_tolerance) ||
        !close(s.score, e.score, lead_tolerance))
      return "alert " + std::to_string(i) + ": served " + describe(s) +
             ", expected " + describe(e);
  }
  if (served.size() != expected.size())
    return "served " + std::to_string(served.size()) + " alerts, expected " +
           std::to_string(expected.size());
  return "";
}

namespace {
// Syslog stamps carry whole seconds, so a canonical record can read up to
// one second earlier than the generator's event.
constexpr double kClockTruncation = 1.0;

bool inside(const core::MonitorAlert& alert, const logs::FailureEvent& f) {
  return alert.node == f.node &&
         alert.time >= f.start_time - kClockTruncation &&
         alert.time <= f.terminal_time;
}
}  // namespace

TruthScore score_against_truth(std::span<const core::MonitorAlert> alerts,
                               std::span<const logs::FailureEvent> failures) {
  std::unordered_map<logs::NodeId, std::vector<const logs::FailureEvent*>>
      by_node;
  for (const logs::FailureEvent& f : failures) by_node[f.node].push_back(&f);
  std::unordered_map<const logs::FailureEvent*, double> earliest;
  TruthScore score;
  score.failures = failures.size();
  score.alerts = alerts.size();
  for (const core::MonitorAlert& a : alerts) {
    const auto it = by_node.find(a.node);
    if (it == by_node.end()) continue;
    bool on_failure = false;
    for (const logs::FailureEvent* f : it->second)
      if (inside(a, *f)) {
        on_failure = true;
        auto [slot, fresh] = earliest.try_emplace(f, a.time);
        if (!fresh) slot->second = std::min(slot->second, a.time);
      }
    if (on_failure) ++score.alerts_on_failures;
  }
  score.predicted = earliest.size();
  score.min_lead = std::numeric_limits<double>::infinity();
  double total = 0;
  for (const auto& [f, time] : earliest) {
    const double lead = f->terminal_time - time;
    total += lead;
    score.min_lead = std::min(score.min_lead, lead);
  }
  score.mean_lead = score.predicted ? total / score.predicted : 0;
  if (score.predicted == 0) score.min_lead = 0;
  return score;
}

std::vector<logs::FailureEvent> failures_within(
    const logs::GroundTruth& truth, double begin, double end) {
  std::vector<logs::FailureEvent> out;
  for (const logs::FailureEvent& f : truth.failures)
    if (f.start_time >= begin && f.terminal_time <= end) out.push_back(f);
  return out;
}

void corrupt_alerts(std::vector<core::MonitorAlert>& alerts, Corrupt corrupt,
                    std::span<const logs::FailureEvent> failures) {
  if (alerts.empty()) return;
  if (corrupt == Corrupt::kDrop) {
    alerts.erase(alerts.begin() +
                 static_cast<std::ptrdiff_t>(alerts.size() / 2));
  } else if (corrupt == Corrupt::kDelay) {
    for (core::MonitorAlert& a : alerts) a.time += 900;
  } else if (corrupt == Corrupt::kShift) {
    for (core::MonitorAlert& a : alerts)
      for (const logs::FailureEvent& f : failures)
        if (inside(a, f)) {
          a.time = f.terminal_time;
          return;
        }
  }
}

void report_truth(Report& report, const TruthScore& score, bool small) {
  // Sizing runs over ten seeds read recall 0.86-0.90 and precision
  // 0.96-0.99 at full size; the few dozen failures of small mode swing
  // more (recall 0.76-0.95, precision 0.79-0.97).
  const double recall_floor = small ? 0.7 : 0.75;
  const double precision_floor = small ? 0.75 : 0.9;
  const double recall =
      score.failures ? static_cast<double>(score.predicted) / score.failures
                     : 0;
  const double precision =
      score.alerts ? static_cast<double>(score.alerts_on_failures) /
                         score.alerts
                   : 0;
  report.info("truth: " + std::to_string(score.predicted) + "/" +
              std::to_string(score.failures) + " failures predicted, " +
              std::to_string(score.alerts_on_failures) + "/" +
              std::to_string(score.alerts) + " alerts on a failure");
  report.check(recall >= recall_floor,
               "failures_predicted floor: " + std::to_string(recall) +
                   " of ground-truth failures < " +
                   std::to_string(recall_floor));
  report.check(precision >= precision_floor,
               "alert precision floor: " + std::to_string(precision) +
                   " of alerts on a failure < " +
                   std::to_string(precision_floor));
  report.check(score.predicted == 0 || score.min_lead > 0,
               "lead: a matched failure has lead " +
                   std::to_string(score.min_lead) + " s <= 0");
  report.metric("failures_predicted", static_cast<double>(score.predicted),
                "count");
  report.metric("lead_time_s", score.mean_lead, "s");
}

// --- small helpers ------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace deshbench
