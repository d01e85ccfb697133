// Shared plumbing of the end-to-end benchmark: options, the out-of-process
// span tracer, the result report, and the input and ground-truth helpers
// every workload uses. See deshbench/README.md for what each workload
// measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "logs/generator.hpp"
#include "logs/record.hpp"

namespace deshbench {

namespace core = desh::core;
namespace logs = desh::logs;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Deliberate damage applied to one run, so the benchmark's own test can
/// show that each output check catches it.
enum class Corrupt {
  kNone,
  kDrop,      // one served alert removed
  kShift,     // one served alert moved to its failure's terminal time
  kDelay,     // every served alert raised 15 minutes late
  kTruncate,  // the served input cut to its first half (train: one epoch)
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs (tiny training profile, a few thousand records): the
  /// same code paths in about a second, for the benchmark's own test.
  bool small = false;
  Corrupt corrupt = Corrupt::kNone;
  /// Scratch directory for WAL roots and trace files, inside the checkout.
  std::string out_dir = ".bench_out";
};

/// Spans recorded from outside the library around its public calls. Kept in
/// memory and written once when the run ends. Single-threaded: only the
/// benchmark's driving thread opens spans.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    Clock::time_point start_;
  };

  /// Opens a span closed when the returned scope ends; free when disabled.
  Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  bool enabled() const { return enabled_; }
  /// Total duration of the `name` spans recorded since mark() `since`.
  double total_seconds(std::string_view name, std::size_t since = 0) const;
  std::size_t mark() const { return spans_.size(); }
  /// One JSON object per line: name, id, parent, start/end seconds.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;
    double start;
    double end;
  };

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::uint32_t open_ = 0;  // innermost open span id, 0 = none
  std::uint32_t next_id_ = 1;
};

/// Metrics, check outcomes and operation counts of one run; prints the
/// final JSON line.
class Report {
 public:
  /// End-to-end metric (printed with --trace 0).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (printed with --trace 1).
  void layer(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a failed one is named on stderr and makes
  /// the run incorrect.
  void check(bool ok, const std::string& what);
  void info(const std::string& line) const;

  bool correct() const { return failed_checks_ == 0; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  std::string json(bool per_layer) const;
  /// The set not printed in json(), as "name value unit" lines on stderr.
  void echo_other(bool per_layer) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> end_to_end_;
  std::map<std::string, Value> per_layer_;
  std::size_t failed_checks_ = 0;
};

// --- inputs -------------------------------------------------------------

/// Independent sub-seed for stream `stream` of run seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The model every workload serves: fitted on the training split of an
/// M1-profile trace (tiny profile in small mode) with the Table 5 settings.
struct Model {
  std::shared_ptr<core::DeshPipeline> pipeline;
  core::FitReport fit;
  logs::SyntheticLog log;  // the whole trace the training split came from
  logs::LogCorpus train;
};
/// The training trace only (generate + split), no fit.
Model make_training_data(const Options& options, Tracer& tracer);
/// Table 5 configuration on one worker thread; phase-2 epochs trimmed to
/// 100 (recall stays near the paper's).
core::DeshConfig training_config(const Options& options);
/// Fits a fresh pipeline on `model.train`, filling model.pipeline/fit.
void fit_model(Model& model, const core::DeshConfig& config, Tracer& tracer);

/// Served traffic: the generated trace plus its canonical (syslog round
/// trip) records, which is what a parser in front of the monitor yields.
struct Traffic {
  logs::SyntheticLog log;
  logs::LogCorpus canonical;
};
logs::SystemProfile replay_profile(const Options& options);
logs::SystemProfile storm_profile(const Options& options);
Traffic make_traffic(const logs::SystemProfile& profile, Tracer& tracer);

/// FNV-1a over every record's timestamp bits, node and message.
std::uint64_t checksum(std::span<const logs::LogRecord> records);
std::uint64_t checksum(std::string_view bytes);

// --- ground truth and reference streams ---------------------------------

/// Sequential StreamingMonitor::observe on the reference engine — the
/// independent oracle every served alert stream is compared with.
struct Reference {
  std::vector<core::MonitorAlert> alerts;
  std::vector<std::size_t> record_index;  // record that raised alerts[i]
};
Reference reference_stream(const core::DeshPipeline& pipeline,
                           std::span<const logs::LogRecord> records);

/// Alerts raised by records [0, count) of the reference.
std::vector<core::MonitorAlert> reference_prefix(const Reference& reference,
                                                 std::size_t count);

/// "" when `served` equals `expected`; otherwise the first difference.
/// `ordered`: compare in order (one server) or as sorted sets (a fleet
/// polls shard by shard). `lead_tolerance`: relative tolerance on scores
/// and predicted leads (0 = exact; compiled engines round differently).
std::string compare_alerts(std::vector<core::MonitorAlert> served,
                           std::vector<core::MonitorAlert> expected,
                           bool ordered, double lead_tolerance);

/// Served alerts scored against the generator's ground-truth failures. A
/// failure is predicted when an alert on its node lands inside its chain
/// (from its first phrase, less the syslog clock's one-second truncation,
/// up to its terminal phrase); its lead is terminal time minus the
/// earliest such alert.
struct TruthScore {
  std::size_t failures = 0;
  std::size_t predicted = 0;
  std::size_t alerts = 0;
  std::size_t alerts_on_failures = 0;
  double mean_lead = 0;
  double min_lead = 0;
};
TruthScore score_against_truth(std::span<const core::MonitorAlert> alerts,
                               std::span<const logs::FailureEvent> failures);

/// Failures whose whole chain lies in [begin, end].
std::vector<logs::FailureEvent> failures_within(
    const logs::GroundTruth& truth, double begin, double end);

/// Applies --corrupt drop/shift/delay to a served alert stream.
void corrupt_alerts(std::vector<core::MonitorAlert>& alerts, Corrupt corrupt,
                    std::span<const logs::FailureEvent> failures);

/// Checks recall, precision and leads against floors (lower in small
/// mode) and reports failures_predicted / lead_time_s.
void report_truth(Report& report, const TruthScore& score, bool small);

// --- small helpers ------------------------------------------------------

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double peak_rss_mb();

// --- workloads (workloads.cpp) ----------------------------------------

void run_replay(const Options& options, Report& report, Tracer& tracer,
                Clock::time_point process_start);
void run_storm(const Options& options, Report& report, Tracer& tracer,
               Clock::time_point process_start);
void run_raw(const Options& options, Report& report, Tracer& tracer,
             Clock::time_point process_start);
void run_train(const Options& options, Report& report, Tracer& tracer,
               Clock::time_point process_start);

}  // namespace deshbench
