// The four workloads. Each run: set-up (inputs, fit, servers), a warm-up
// pass, a full-speed phase, a paced (open-loop) phase, then the output
// checks against an independent reference and the generator's ground truth.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <thread>

#include <unistd.h>

#include "bench.hpp"
#include "fleet/controller.hpp"
#include "chains/delta_time.hpp"
#include "ingest/line_splitter.hpp"
#include "ingest/pump.hpp"
#include "ingest/syslog_view.hpp"
#include "ingest/template_tracker.hpp"
#include "logs/syslog.hpp"
#include "serve/server.hpp"

namespace deshbench {

namespace fleet = desh::fleet;
namespace ingest = desh::ingest;
namespace serve = desh::serve;

namespace {

/// Records per submit_batch / micro-batch on the manual-pump servers.
constexpr std::size_t kChunk = 256;
/// Raw bytes per IngestPump::feed_bytes call in the full-speed phase.
constexpr std::size_t kRawChunkBytes = 64 * 1024;
/// The paced raw loop polls the fleet at most this often.
constexpr double kRawPollSeconds = 20e-6;
/// Share of --seconds given to the full-speed phase of a serving workload;
/// the paced phase gets the rest. records_per_s is the median over the
/// full-speed passes, and the host's speed drifts over seconds, so the
/// full-speed phase gets most of the run.
constexpr double kFullShare = 0.75;

[[noreturn]] void fatal(const std::string& what, const core::Error& error) {
  std::cerr << what << ": " << error.message << "\n";
  std::exit(2);
}

void layer_sweep(const Options& options, const Model& model,
                 std::span<const logs::LogRecord> records, bool compiled,
                 double fit_s, Report& report, Tracer& tracer);

// --- manual-pump server passes -------------------------------------------

std::unique_ptr<serve::InferenceServer> make_server(const Model& model,
                                                    bool compiled) {
  serve::ServeConfig config;
  // Manual pump: the benchmark thread is the only compute thread serving.
  config.start_collector = false;
  config.max_batch = kChunk;
  config.monitor.threads = 1;
  if (compiled) config.monitor.compile.backend = core::BackendKind::kCompiled;
  auto server = serve::InferenceServer::create(model.pipeline, config);
  if (!server.ok()) fatal("server rejected", server.error());
  return std::move(server).value();
}

struct Pass {
  double seconds = 0;
  std::vector<core::MonitorAlert> alerts;
  serve::ServeStats stats;
};

/// Every record through the server as fast as it takes them; the clock
/// stops when the last alert is polled.
Pass serve_full(serve::InferenceServer& server,
                std::span<const logs::LogRecord> records, Tracer& tracer) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  for (std::size_t at = 0; at < records.size(); at += kChunk) {
    const auto chunk =
        records.subspan(at, std::min(kChunk, records.size() - at));
    {
      auto span = tracer.span("serve.submit");
      server.submit_batch(chunk);
    }
    {
      auto span = tracer.span("serve.pump");
      while (server.pump() != 0) {
      }
    }
    auto span = tracer.span("serve.poll");
    for (core::MonitorAlert& a : server.poll_alerts())
      pass.alerts.push_back(std::move(a));
  }
  pass.seconds = seconds_between(start, Clock::now());
  pass.stats = server.stats();
  return pass;
}

struct Polled {
  core::MonitorAlert alert;
  Clock::time_point at;
};

struct PacedPass {
  Clock::time_point start;  // record i is due at start + i / rate
  std::size_t records = 0;
  std::vector<Polled> polled;
  std::vector<double> lateness_s;  // per send: now - due of its first record
  serve::ServeStats stats;
};

Clock::time_point due(const PacedPass& pass, std::size_t i, double rate) {
  return pass.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(i / rate));
}

/// Open loop: record i is sent when it falls due, whatever the server is
/// doing; everything due by then goes in one send. No spans here: a span
/// per send would fill the trace with hundreds of thousands of entries.
PacedPass serve_paced(serve::InferenceServer& server,
                      std::span<const logs::LogRecord> records, double rate) {
  PacedPass pass;
  pass.records = records.size();
  pass.start = Clock::now() + std::chrono::milliseconds(1);
  std::size_t i = 0;
  while (i < records.size()) {
    const Clock::time_point now = Clock::now();
    if (now < due(pass, i, rate)) continue;
    std::size_t j = i + 1;
    while (j < records.size() && j - i < kChunk && due(pass, j, rate) <= now)
      ++j;
    pass.lateness_s.push_back(seconds_between(due(pass, i, rate), now));
    server.submit_batch(records.subspan(i, j - i));
    while (server.pump() != 0) {
    }
    std::vector<core::MonitorAlert> alerts = server.poll_alerts();
    const Clock::time_point polled = Clock::now();
    for (core::MonitorAlert& a : alerts) pass.polled.push_back({std::move(a), polled});
    i = j;
  }
  pass.stats = server.stats();
  return pass;
}

std::vector<core::MonitorAlert> alerts_of(const PacedPass& pass) {
  std::vector<core::MonitorAlert> out;
  for (const Polled& p : pass.polled) out.push_back(p.alert);
  return out;
}

/// Alert latency: poll time minus the due time of the record that raised
/// the alert, identified through the reference stream.
void collect_latencies(const PacedPass& pass, const Reference& reference,
                       double rate, std::vector<double>& out_ms) {
  std::map<std::pair<double, logs::NodeId>, std::size_t> raised_by;
  for (std::size_t k = 0; k < reference.alerts.size(); ++k)
    if (reference.record_index[k] < pass.records)
      raised_by[{reference.alerts[k].time, reference.alerts[k].node}] =
          reference.record_index[k];
  for (const Polled& p : pass.polled) {
    const auto it = raised_by.find({p.alert.time, p.alert.node});
    if (it == raised_by.end()) continue;  // a stream mismatch; checked apart
    out_ms.push_back(seconds_between(due(pass, it->second, rate), p.at) * 1e3);
  }
}

/// Records actually served out of `expected`: --corrupt truncate cuts every
/// served input to its first half.
std::size_t fed_count(std::size_t expected, const Options& options) {
  return options.corrupt == Corrupt::kTruncate ? expected / 2 : expected;
}

/// "" when a pass took, admitted and processed exactly `expected` records.
std::string count_failure(const serve::ServeStats& stats,
                          std::size_t expected) {
  if (stats.processed == expected && stats.admitted == expected &&
      stats.shed == 0)
    return "";
  return "processed " + std::to_string(stats.processed) + ", admitted " +
         std::to_string(stats.admitted) + ", shed " +
         std::to_string(stats.shed) + ", fed " + std::to_string(expected);
}

/// Output checks repeated over many passes; each is reported once, naming
/// its first failing pass.
class PassChecks {
 public:
  void add(const std::string& check, std::size_t pass,
           const std::string& failure) {
    auto [slot, fresh] = first_failure_.try_emplace(check);
    if (slot->second.empty() && !failure.empty())
      slot->second = "pass " + std::to_string(pass) + ": " + failure;
  }
  void report(Report& report) const {
    for (const auto& [check, failure] : first_failure_)
      report.check(failure.empty(), check + ": " + failure);
  }

 private:
  std::map<std::string, std::string> first_failure_;
};

void report_latency(Report& report, const std::vector<double>& latency_ms,
                    const std::vector<double>& lateness_s) {
  report.info("paced: " + std::to_string(latency_ms.size()) +
              " alert latencies, p50 " +
              std::to_string(quantile(latency_ms, 0.5)) + " ms, p99 " +
              std::to_string(quantile(latency_ms, 0.99)) + " ms");
  // Layer figures, not bounded ones: the median moved 0.057-0.102 ms
  // between runs with the host's CPU speed, and one scheduler stall moves
  // the tail tenfold.
  report.layer("paced.latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  report.layer("paced.latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  report.layer("paced.lateness_p99_ms", quantile(lateness_s, 0.99) * 1e3,
               "ms");
  report.layer("paced.alerts", static_cast<double>(latency_ms.size()),
               "count");
}

struct ServingPlan {
  bool compiled = false;
  double rate = 0;           // paced phase, records/s
  double full_seconds = 0;   // full-speed phase budget
  double paced_seconds = 0;  // paced phase length
  double tolerance = 0;      // relative score/lead tolerance vs reference
};

/// Warm-up, full-speed and paced phases through manual-pump servers, then
/// every check. `records` is the whole canonical input; the reference and
/// the expected counts come from it whatever --corrupt does to what is
/// served.
void serve_manual(const Options& options, const Model& model,
                  std::span<const logs::LogRecord> records,
                  std::span<const logs::FailureEvent> failures,
                  const ServingPlan& plan, Report& report, Tracer& tracer) {
  const auto served = records.first(fed_count(records.size(), options));
  const Reference reference = reference_stream(*model.pipeline, records);
  {
    auto server = make_server(model, plan.compiled);
    serve_full(*server, served, tracer);
    report.attempted += served.size();
  }
  // Each pass is checked as it ends and only the first one's alerts are
  // kept, so peak_rss_mb does not grow with the number of passes.
  PassChecks checks;
  std::vector<double> rates;
  std::vector<core::MonitorAlert> first_alerts;
  const Clock::time_point full_start = Clock::now();
  do {
    auto server = make_server(model, plan.compiled);
    Pass pass = serve_full(*server, served, tracer);
    report.attempted += served.size();
    const std::size_t k = rates.size();
    if (k == 0) corrupt_alerts(pass.alerts, options.corrupt, failures);
    checks.add("full-speed alert stream", k,
               compare_alerts(pass.alerts, reference.alerts, true,
                              plan.tolerance));
    checks.add("full-speed records", k,
               count_failure(pass.stats, records.size()));
    rates.push_back(served.size() / pass.seconds);
    if (k == 0) first_alerts = std::move(pass.alerts);
  } while (seconds_between(full_start, Clock::now()) < plan.full_seconds);

  // The paced phase sends rate x paced_seconds records: the input's prefix,
  // restarted on a fresh server when one pass of the input is not enough.
  std::size_t paced_left =
      static_cast<std::size_t>(std::llround(plan.rate * plan.paced_seconds));
  std::vector<PacedPass> paced;
  std::vector<std::size_t> paced_expected;
  while (paced_left > 0) {
    const std::size_t n = std::min(paced_left, records.size());
    auto server = make_server(model, plan.compiled);
    paced.push_back(
        serve_paced(*server, records.first(fed_count(n, options)), plan.rate));
    paced_expected.push_back(n);
    report.attempted += paced.back().records;
    paced_left -= n;
  }

  std::vector<double> latency_ms;
  std::vector<double> lateness_s;
  for (std::size_t k = 0; k < paced.size(); ++k) {
    std::vector<core::MonitorAlert> alerts = alerts_of(paced[k]);
    if (k == 0) corrupt_alerts(alerts, options.corrupt, failures);
    checks.add("paced alert stream", k,
               compare_alerts(alerts,
                              reference_prefix(reference, paced_expected[k]),
                              true, plan.tolerance));
    checks.add("paced records", k,
               count_failure(paced[k].stats, paced_expected[k]));
    collect_latencies(paced[k], reference, plan.rate, latency_ms);
    lateness_s.insert(lateness_s.end(), paced[k].lateness_s.begin(),
                      paced[k].lateness_s.end());
  }
  checks.report(report);
  std::string per_pass;
  for (double r : rates) per_pass += " " + std::to_string(static_cast<long>(r));
  report.info("full speed: " + std::to_string(rates.size()) +
              " passes of " + std::to_string(served.size()) + " records," +
              per_pass + " records/s");
  report.metric("records_per_s", median(rates), "records/s");
  report_latency(report, latency_ms, lateness_s);
  report_truth(report, score_against_truth(first_alerts, failures),
               options.small);
}

void describe_inputs(Report& report, const Model& model,
                     std::span<const logs::LogRecord> records) {
  report.info("training trace: " + std::to_string(model.log.records.size()) +
              " records (" + std::to_string(model.train.size()) +
              " train), checksum " +
              std::to_string(checksum(model.log.records)));
  report.info("served records: " + std::to_string(records.size()) +
              ", checksum " + std::to_string(checksum(records)));
}

void report_fit(Report& report, const Model& model, double fit_s) {
  report.info("fit: " + std::to_string(fit_s) + " s, " +
              std::to_string(model.fit.failure_chains) + " chains, losses " +
              std::to_string(model.fit.phase1_loss) + " / " +
              std::to_string(model.fit.phase2_loss));
  report.metric("fit_s", fit_s, "s");
}

/// The fit's final phase-1 and phase-2 losses must be finite and below the
/// first epoch's, which come from a one-epoch fit of the same data and seed
/// (run after the timed phases).
void check_losses(const Options& options, const Model& model, Report& report,
                  Tracer& tracer) {
  Model first = model;
  core::DeshConfig one_epoch = training_config(options);
  one_epoch.phase1.epochs = one_epoch.phase2.epochs = 1;
  fit_model(first, one_epoch, tracer);
  const core::FitReport& fit = model.fit;
  report.check(std::isfinite(fit.phase1_loss) &&
                   std::isfinite(fit.phase2_loss) &&
                   fit.phase1_loss < first.fit.phase1_loss &&
                   fit.phase2_loss < first.fit.phase2_loss,
               "loss: final phase-1/phase-2 losses " +
                   std::to_string(fit.phase1_loss) + " / " +
                   std::to_string(fit.phase2_loss) + " not below first-epoch " +
                   std::to_string(first.fit.phase1_loss) + " / " +
                   std::to_string(first.fit.phase2_loss));
}

double timed_fit(Model& model, const Options& options, Tracer& tracer) {
  const Clock::time_point start = Clock::now();
  fit_model(model, training_config(options), tracer);
  return seconds_between(start, Clock::now());
}

/// replay and storm: the same phases over different traffic and engines.
void run_served(const Options& options, Report& report, Tracer& tracer,
                Clock::time_point process_start,
                const logs::SystemProfile& profile, const ServingPlan& plan) {
  Model model = make_training_data(options, tracer);
  const double fit_s = timed_fit(model, options, tracer);
  const Traffic traffic = make_traffic(profile, tracer);
  report.metric("setup_s", seconds_between(process_start, Clock::now()), "s");
  describe_inputs(report, model, traffic.canonical);
  report_fit(report, model, fit_s);

  const auto failures = failures_within(
      traffic.log.truth, -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity());
  serve_manual(options, model, traffic.canonical, failures, plan, report,
               tracer);
  check_losses(options, model, report, tracer);
  if (tracer.enabled())
    layer_sweep(options, model, traffic.canonical, plan.compiled, fit_s,
                report, tracer);
}

// --- raw: bytes through IngestPump into a durable two-shard fleet --------

struct FleetRun {
  std::string wal_root;
  std::unique_ptr<fleet::FleetController> fleet;
  std::unique_ptr<ingest::IngestPump> pump;
};

std::string fresh_wal_root(const Options& options) {
  static std::size_t next = 0;
  const std::string root = options.out_dir + "/wal-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(next++);
  std::filesystem::remove_all(root);
  return root;
}

fleet::FleetOptions fleet_options(const std::string& wal_root) {
  fleet::FleetOptions options;
  options.fleet.shards = 2;
  options.fleet.wal_root = wal_root;
  // One collector thread per shard and one monitor worker each: with the
  // feeding thread, three compute threads.
  options.shard.start_collector = true;
  options.shard.monitor.threads = 1;
  options.shard.max_batch = kChunk;
  return options;
}

FleetRun make_fleet(const Model& model, const std::string& wal_root) {
  FleetRun run;
  run.wal_root = wal_root;
  auto created =
      fleet::FleetController::create(model.pipeline, fleet_options(wal_root));
  if (!created.ok()) fatal("fleet rejected", created.error());
  run.fleet = std::move(created).value();
  core::IngestConfig config;
  config.chunk_bytes = kRawChunkBytes;
  // Collector threads own pumping; a full queue is retried after a back-off.
  config.pump_on_queue_full = false;
  auto pump = ingest::IngestPump::create(*run.fleet, config);
  if (!pump.ok()) fatal("ingest pump rejected", pump.error());
  run.pump = std::move(pump).value();
  return run;
}

void feed(ingest::IngestPump& pump, std::string_view bytes, Tracer& tracer) {
  auto span = tracer.span("ingest.feed");
  const auto fed = pump.feed_bytes(bytes);
  if (!fed.ok()) fatal("feed_bytes", fed.error());
}

void finish(ingest::IngestPump& pump, Tracer& tracer) {
  auto span = tracer.span("ingest.feed");
  const auto done = pump.finish();
  if (!done.ok()) fatal("finish", done.error());
}

struct RawPass {
  double seconds = 0;
  std::vector<core::MonitorAlert> alerts;
  fleet::FleetHealth health;
  ingest::IngestStats ingest;
};

RawPass raw_full(FleetRun& run, std::string_view text, Tracer& tracer) {
  RawPass pass;
  const Clock::time_point start = Clock::now();
  for (std::size_t at = 0; at < text.size(); at += kRawChunkBytes)
    feed(*run.pump, text.substr(at, kRawChunkBytes), tracer);
  finish(*run.pump, tracer);
  {
    auto span = tracer.span("fleet.drain");
    run.fleet->drain();
  }
  pass.alerts = run.fleet->poll_alerts();
  pass.seconds = seconds_between(start, Clock::now());
  pass.health = run.fleet->health();
  pass.ingest = run.pump->stats();
  return pass;
}

/// Open loop over the first `lines` lines; alerts arrive from the collector
/// threads and are polled while waiting for the next due line. Untraced,
/// like serve_paced.
PacedPass raw_paced(FleetRun& run, std::string_view text,
                    std::span<const std::size_t> line_start,
                    std::size_t lines, double rate) {
  PacedPass pass;
  pass.records = lines;
  pass.start = Clock::now() + std::chrono::milliseconds(1);
  Clock::time_point last_poll = pass.start;
  const auto poll = [&](Clock::time_point now) {
    for (core::MonitorAlert& a : run.fleet->poll_alerts()) pass.polled.push_back({std::move(a), now});
    last_poll = now;
  };
  std::size_t i = 0;
  while (i < lines) {
    const Clock::time_point now = Clock::now();
    if (seconds_between(last_poll, now) >= kRawPollSeconds) poll(now);
    if (now < due(pass, i, rate)) continue;
    std::size_t j = i + 1;
    while (j < lines && j - i < kChunk && due(pass, j, rate) <= now) ++j;
    pass.lateness_s.push_back(seconds_between(due(pass, i, rate), now));
    const auto fed =
        run.pump->feed_bytes(text.substr(line_start[i], line_start[j] - line_start[i]));
    if (!fed.ok()) fatal("feed_bytes", fed.error());
    i = j;
  }
  const auto done = run.pump->finish();
  if (!done.ok()) fatal("finish", done.error());
  run.fleet->drain();
  poll(Clock::now());
  pass.stats = run.fleet->health().totals;
  return pass;
}

// --- the traced layer sweep -----------------------------------------------

std::uint64_t directory_bytes(const std::string& root) {
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

/// Standalone passes over one workload's records, each public call wrapped
/// in a span, giving every per-layer metric. `compiled`: the engine the
/// workload serves on. `fit_s`: wall time of the fit behind model.fit.
void layer_sweep(const Options& options, const Model& model,
                 std::span<const logs::LogRecord> records, bool compiled,
                 double fit_s, Report& report, Tracer& tracer) {
  const std::size_t mark = tracer.mark();
  const auto since = [&](const char* name) {
    return tracer.total_seconds(name, mark);
  };
  report.layer("logs.generate_s", tracer.total_seconds("logs.generate"), "s");
  const logs::LogCorpus corpus(records.begin(), records.end());
  std::string text;
  {
    auto span = tracer.span("logs.render");
    text = logs::render_syslog_text(corpus);
  }
  report.layer("logs.render_s", since("logs.render"), "s");

  // ingest: tokenize alone, then template tracking over the parsed messages.
  std::vector<std::string> messages;
  {
    ingest::LineSplitter splitter(core::IngestConfig{}.max_line_bytes);
    ingest::SyslogViewParser parser;
    ingest::ParsedLine parsed;
    std::string_view line;
    std::size_t parsed_lines = 0;
    {
      auto span = tracer.span("ingest.tokenize");
      for (std::size_t at = 0; at < text.size(); at += kRawChunkBytes) {
        splitter.begin_chunk(std::string_view(text).substr(at, kRawChunkBytes));
        while (splitter.next(line)) parsed_lines += parser.parse(line, parsed);
      }
      if (splitter.finish(line)) parsed_lines += parser.parse(line, parsed);
    }
    report.check(parsed_lines == records.size(),
                 "sweep tokenize: " + std::to_string(parsed_lines) +
                     " lines parsed of " + std::to_string(records.size()));
    for (const logs::LogRecord& r : records) messages.push_back(r.message);
  }
  {
    ingest::TemplateTracker tracker;
    auto span = tracer.span("ingest.track");
    for (const std::string& m : messages) tracker.observe(m);
  }
  report.layer("ingest.tokenize_s", since("ingest.tokenize"), "s");
  report.layer("ingest.track_s", since("ingest.track"), "s");
  {
    FleetRun run = make_fleet(model, fresh_wal_root(options));
    for (std::size_t at = 0; at < text.size(); at += kRawChunkBytes)
      feed(*run.pump, std::string_view(text).substr(at, kRawChunkBytes),
           tracer);
    finish(*run.pump, tracer);
    run.fleet->drain();
    const ingest::IngestStats stats = run.pump->stats();
    report.layer("ingest.feed_s", since("ingest.feed"), "s");
    report.layer("ingest.templates", static_cast<double>(stats.new_templates),
                 "count");
    report.layer("ingest.admission_retries",
                 static_cast<double>(stats.admission_retries), "count");
    run.pump.reset();
    run.fleet->stop();
    std::filesystem::remove_all(run.wal_root);
  }

  // fleet + wal: canonical records straight into the durable fleet, then
  // a restart over its WAL root.
  {
    const std::string root = fresh_wal_root(options);
    auto created =
        fleet::FleetController::create(model.pipeline, fleet_options(root));
    if (!created.ok()) fatal("fleet rejected", created.error());
    auto fleet = std::move(created).value();
    for (std::size_t at = 0; at < records.size(); at += kChunk) {
      auto span = tracer.span("fleet.submit");
      const std::size_t end = std::min(records.size(), at + kChunk);
      for (std::size_t i = at; i < end; ++i)
        while (fleet->submit(records[i]) == serve::Admission::kQueueFull)
          std::this_thread::yield();
    }
    {
      auto span = tracer.span("fleet.drain");
      fleet->drain();
    }
    const fleet::FleetHealth health = fleet->health();
    fleet->stop();
    fleet.reset();
    double most = 0;
    std::uint64_t appended = 0, flushes = 0, checkpoints = 0;
    for (const fleet::ShardHealth& shard : health.per_shard) {
      most = std::max(most, static_cast<double>(shard.serve.processed));
      appended += shard.wal.appended;
      flushes += shard.wal.flushes;
      checkpoints += shard.wal.checkpoints;
    }
    const double mean = static_cast<double>(health.totals.processed) /
                        static_cast<double>(health.per_shard.size());
    report.layer("fleet.submit_s", since("fleet.submit"), "s");
    report.layer("fleet.drain_s", since("fleet.drain"), "s");
    report.layer("fleet.submit_p50_us", health.submit_p50_seconds * 1e6, "us");
    report.layer("fleet.submit_p99_us", health.submit_p99_seconds * 1e6, "us");
    report.layer("fleet.shard_skew", mean > 0 ? most / mean : 0, "ratio");
    report.layer("wal.appended", static_cast<double>(appended), "count");
    report.layer("wal.flushes", static_cast<double>(flushes), "count");
    report.layer("wal.checkpoints", static_cast<double>(checkpoints), "count");
    report.layer("wal.bytes", static_cast<double>(directory_bytes(root)),
                 "bytes");
    std::uint64_t replayed = 0;
    {
      auto span = tracer.span("wal.restore");
      auto restored =
          fleet::FleetController::create(model.pipeline, fleet_options(root));
      if (!restored.ok()) fatal("fleet restart", restored.error());
      for (const fleet::ShardHealth& shard : restored.value()->health().per_shard)
        replayed += shard.wal.replayed;
      restored.value()->stop();
    }
    report.layer("wal.restore_s", since("wal.restore"), "s");
    report.layer("wal.replayed", static_cast<double>(replayed), "count");
    std::filesystem::remove_all(root);
  }

  // serve: one manual-pump server on the workload's engine.
  {
    auto server = make_server(model, compiled);
    const Pass pass = serve_full(*server, records, tracer);
    report.layer("serve.submit_s", since("serve.submit"), "s");
    report.layer("serve.pump_s", since("serve.pump"), "s");
    report.layer("serve.poll_s", since("serve.poll"), "s");
    report.layer("serve.batches", static_cast<double>(pass.stats.batches),
                 "count");
    report.layer("serve.records_per_batch",
                 pass.stats.batches ? static_cast<double>(pass.stats.processed) /
                                          pass.stats.batches
                                    : 0,
                 "count");
  }

  // core: the monitor alone, then phase 3 over the offline candidates.
  {
    core::MonitorConfig config;
    config.threads = 1;
    if (compiled) config.compile.backend = core::BackendKind::kCompiled;
    core::StreamingMonitor monitor(*model.pipeline, config);
    for (std::size_t at = 0; at < records.size(); at += kChunk) {
      auto span = tracer.span("core.observe");
      monitor.observe_batch(
          records.subspan(at, std::min(kChunk, records.size() - at)));
    }
    report.layer("core.observe_s", since("core.observe"), "s");
  }
  core::TestRun run;
  {
    auto span = tracer.span("core.predict");
    run = model.pipeline->predict(corpus);
  }
  report.layer("core.candidates", static_cast<double>(run.candidates.size()),
               "count");
  core::CompileConfig reference_config;
  core::CompileConfig compiled_config;
  compiled_config.backend = core::BackendKind::kCompiled;
  auto reference = model.pipeline->make_backend(reference_config);
  if (!reference.ok()) fatal("reference backend", reference.error());
  std::shared_ptr<const desh::nn::InferenceBackend> program;
  {
    auto span = tracer.span("compile.build");
    auto built = model.pipeline->make_backend(compiled_config);
    if (!built.ok()) fatal("compiled backend", built.error());
    program = std::move(built).value();
  }
  report.layer("compile.build_s", since("compile.build"), "s");
  const core::Phase3Config& phase3 = model.pipeline->config().phase3;
  {
    const core::Phase3Predictor predictor(
        compiled ? *program : *reference.value(), phase3);
    std::vector<const desh::chains::CandidateSequence*> batch;
    for (std::size_t at = 0; at < run.candidates.size(); at += kChunk) {
      batch.clear();
      for (std::size_t i = at; i < std::min(run.candidates.size(), at + kChunk);
           ++i)
        batch.push_back(&run.candidates[i]);
      auto span = tracer.span("core.decide_batch");
      predictor.decide_batch(batch);
    }
    report.layer("core.decide_batch_s", since("core.decide_batch"), "s");
  }
  {
    // The same candidates as phase-3 sequences, grouped by length the way
    // decide_batch groups them, scored on both engines.
    std::map<std::size_t, std::vector<desh::nn::ChainSequence>> by_length;
    for (const auto& c : run.candidates) {
      auto seq = desh::chains::DeltaTimeCalculator::to_chain_sequence(c);
      by_length[seq.size()].push_back(std::move(seq));
    }
    for (const auto& [length, seqs] : by_length) {
      const std::size_t k_eff = std::min(phase3.decision_position, length - 1);
      const std::size_t min_pos = std::min(phase3.min_position, k_eff);
      for (std::size_t at = 0; at < seqs.size(); at += kChunk) {
        std::vector<const desh::nn::ChainSequence*> group;
        for (std::size_t i = at; i < std::min(seqs.size(), at + kChunk); ++i)
          group.push_back(&seqs[i]);
        {
          auto span = tracer.span("nn.score");
          reference.value()->score_sequences(group, min_pos);
        }
        auto span = tracer.span("compile.score");
        program->score_sequences(group, min_pos);
      }
    }
    report.layer("nn.score_s", since("nn.score"), "s");
    report.layer("compile.score_s", since("compile.score"), "s");
  }

  const core::FitReport& fit = model.fit;
  report.layer("core.skipgram_s", fit.skipgram_seconds, "s");
  report.layer("core.phase1_s", fit.phase1_seconds, "s");
  report.layer("core.phase2_s", fit.phase2_seconds, "s");
  report.check(fit.skipgram_seconds + fit.phase1_seconds +
                       fit.phase2_seconds <=
                   fit_s,
               "fit split: skip-gram + phase 1 + phase 2 exceed fit_s " +
                   std::to_string(fit_s));
}

}  // namespace

void run_replay(const Options& options, Report& report, Tracer& tracer,
                Clock::time_point process_start) {
  ServingPlan plan;
  plan.rate = options.small ? 20000 : 100000;
  plan.full_seconds = options.seconds * kFullShare;
  plan.paced_seconds = options.seconds * (1 - kFullShare);
  run_served(options, report, tracer, process_start, replay_profile(options),
             plan);
}

void run_storm(const Options& options, Report& report, Tracer& tracer,
               Clock::time_point process_start) {
  ServingPlan plan;
  plan.compiled = true;
  plan.rate = options.small ? 5000 : 20000;
  plan.full_seconds = options.seconds * kFullShare;
  plan.paced_seconds = options.seconds * (1 - kFullShare);
  // fp32 compiled vs reference engine: same decisions, scores and leads
  // equal to float rounding.
  plan.tolerance = 1e-4;
  run_served(options, report, tracer, process_start, storm_profile(options),
             plan);
}

void run_raw(const Options& options, Report& report, Tracer& tracer,
             Clock::time_point process_start) {
  Model model = make_training_data(options, tracer);
  const double fit_s = timed_fit(model, options, tracer);
  const Traffic traffic = make_traffic(replay_profile(options), tracer);
  std::string text;
  {
    auto span = tracer.span("logs.render");
    text = logs::render_syslog_text(traffic.log.records);
  }
  std::vector<std::size_t> line_start{0};
  for (std::size_t at = text.find('\n'); at != std::string::npos;
       at = text.find('\n', at + 1))
    line_start.push_back(at + 1);
  report.metric("setup_s", seconds_between(process_start, Clock::now()), "s");
  describe_inputs(report, model, traffic.canonical);
  report.info("raw text: " + std::to_string(text.size()) + " bytes, " +
              std::to_string(line_start.size() - 1) + " lines, checksum " +
              std::to_string(checksum(text)));
  report_fit(report, model, fit_s);
  const std::size_t generated = traffic.log.records.size();

  const std::string_view served =
      std::string_view(text).substr(0, fed_count(text.size(), options));
  const double rate = options.small ? 10000 : 40000;
  const auto full_pass = [&](bool keep_wal) {
    FleetRun run = make_fleet(model, fresh_wal_root(options));
    RawPass pass = raw_full(run, served, tracer);
    report.attempted += pass.ingest.lines;
    run.pump.reset();
    run.fleet->stop();
    if (!keep_wal) std::filesystem::remove_all(run.wal_root);
    return std::make_pair(std::move(pass), run.wal_root);
  };
  const Reference reference = reference_stream(*model.pipeline,
                                               traffic.canonical);
  const auto failures = failures_within(
      traffic.log.truth, -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity());
  full_pass(false);  // warm-up
  // As in serve_manual: each pass is checked as it ends.
  PassChecks checks;
  std::vector<double> rates;
  std::vector<core::MonitorAlert> first_alerts;
  std::string last_root;
  const Clock::time_point full_start = Clock::now();
  do {
    if (!last_root.empty()) std::filesystem::remove_all(last_root);
    auto [pass, root] = full_pass(true);
    last_root = root;
    const std::size_t k = rates.size();
    if (k == 0) corrupt_alerts(pass.alerts, options.corrupt, failures);
    checks.add("full-speed alert stream", k,
               compare_alerts(pass.alerts, reference.alerts, false, 0));
    checks.add("full-speed records", k,
               count_failure(pass.health.totals, generated));
    checks.add("full-speed parsed records", k,
               pass.ingest.records == generated
                   ? ""
                   : std::to_string(pass.ingest.records) + " of " +
                         std::to_string(generated) + " generated");
    rates.push_back(generated / pass.seconds);
    if (k == 0) first_alerts = std::move(pass.alerts);
  } while (seconds_between(full_start, Clock::now()) <
           options.seconds * kFullShare);

  const std::size_t paced_lines = std::min(
      generated, static_cast<std::size_t>(std::llround(
                     rate * options.seconds * (1 - kFullShare))));
  PacedPass paced;
  {
    FleetRun run = make_fleet(model, fresh_wal_root(options));
    paced = raw_paced(run, text, line_start, fed_count(paced_lines, options),
                      rate);
    report.attempted += paced.records;
    run.pump.reset();
    run.fleet->stop();
    std::filesystem::remove_all(run.wal_root);
  }

  // The run ends by re-creating the last full-speed fleet over its WAL
  // root: every shard restores its checkpoint and replays its tail.
  std::uint64_t recovered = 0;
  {
    auto span = tracer.span("wal.restore");
    auto restored = fleet::FleetController::create(model.pipeline,
                                                   fleet_options(last_root));
    if (!restored.ok()) fatal("fleet restart", restored.error());
    for (const auto& shard : restored.value()->health().per_shard)
      recovered += shard.wal.checkpoint_seq + shard.wal.replayed;
    restored.value()->stop();
  }
  std::filesystem::remove_all(last_root);
  report.check(recovered == generated,
               "wal restart: checkpoint seq + replayed tail = " +
                   std::to_string(recovered) + ", fed " +
                   std::to_string(generated));

  std::vector<core::MonitorAlert> paced_alerts = alerts_of(paced);
  corrupt_alerts(paced_alerts, options.corrupt, failures);
  checks.add("paced alert stream", 0,
             compare_alerts(paced_alerts,
                            reference_prefix(reference, paced_lines), false,
                            0));
  checks.add("paced records", 0, count_failure(paced.stats, paced_lines));
  checks.report(report);
  std::vector<double> latency_ms;
  collect_latencies(paced, reference, rate, latency_ms);
  std::string per_pass;
  for (double r : rates) per_pass += " " + std::to_string(static_cast<long>(r));
  report.info("full speed: " + std::to_string(rates.size()) +
              " passes of " + std::to_string(generated) + " lines," +
              per_pass + " lines/s");
  report.metric("records_per_s", median(rates), "records/s");
  report_latency(report, latency_ms, paced.lateness_s);
  report_truth(report, score_against_truth(first_alerts, failures),
               options.small);
  check_losses(options, model, report, tracer);
  if (tracer.enabled())
    layer_sweep(options, model, traffic.canonical, false, fit_s, report,
                tracer);
}

void run_train(const Options& options, Report& report, Tracer& tracer,
               Clock::time_point process_start) {
  Model model = make_training_data(options, tracer);
  // The fitted model serves the test period of the replay traffic: the M1
  // trace's own test split holds about a hundred failures, too few for a
  // steady failures_predicted across seeds.
  const Traffic traffic = make_traffic(replay_profile(options), tracer);
  const double split = traffic.log.truth.split_time;
  const logs::LogCorpus test =
      core::split_corpus(traffic.canonical, split).second;
  report.metric("setup_s", seconds_between(process_start, Clock::now()), "s");
  describe_inputs(report, model, test);

  // --corrupt truncate cuts training to one epoch per phase.
  core::DeshConfig config = training_config(options);
  if (options.corrupt == Corrupt::kTruncate)
    config.phase1.epochs = config.phase2.epochs = 1;
  std::vector<double> fit_s;
  const Clock::time_point fit_start = Clock::now();
  do {
    const Clock::time_point start = Clock::now();
    fit_model(model, config, tracer);
    fit_s.push_back(seconds_between(start, Clock::now()));
    report.attempted += 1;
  } while (seconds_between(fit_start, Clock::now()) < options.seconds / 2);
  report_fit(report, model, median(fit_s));
  check_losses(options, model, report, tracer);

  ServingPlan plan;
  plan.rate = options.small ? 20000 : 100000;
  plan.full_seconds = options.seconds / 4;
  plan.paced_seconds = options.seconds / 4;
  const auto failures = failures_within(
      traffic.log.truth, split, std::numeric_limits<double>::infinity());
  serve_manual(options, model, test, failures, plan, report, tracer);
  if (tracer.enabled())
    layer_sweep(options, model, test, false, fit_s.back(), report, tracer);
}

}  // namespace deshbench
