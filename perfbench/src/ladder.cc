// The traced per-layer pass: fixed work on seeded inputs (session 0 of
// the run seed, like the workloads), one step per library layer, each
// call wrapped in a span. Per-layer metrics are read off the spans and off
// the library's own exact counters; the README says which end-to-end
// metric each one should move, and on which workload.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/detector.h"
#include "grid/synapse_manager.h"
#include "learning/self_evolution.h"
#include "learning/supervised.h"
#include "moga/moga_search.h"
#include "moga/objectives.h"
#include "net/protocol.h"
#include "service/spot_service.h"
#include "served.h"
#include "support.h"

namespace perfbench {

namespace {

/// Points each fixed-work step processes (the cyclic stream's length, so
/// no point repeats within a step).
constexpr std::uint64_t kLadderBatches = kStreamPoints / kBatch;
constexpr double kLadderPoints = static_cast<double>(kStreamPoints);

/// Repeats of the short single-call steps.
constexpr int kMogaRuns = 20;
constexpr int kLearningRuns = 5;
constexpr int kCheckpointRuns = 20;
constexpr int kTopKQueries = 1000;

/// The fixed-work served step: batches per connection (a multiple of 16,
/// so every query and feedback round of the schedule lands).
constexpr std::uint64_t kNetBatches = 64;

/// The churn step: sessions, turns, resident cap.
constexpr std::size_t kChurnSessions = 16;
constexpr std::size_t kChurnResident = 4;
constexpr std::uint64_t kChurnTurns = 10;

double Ms(double seconds) { return seconds * 1e3; }
double Us(double seconds) { return seconds * 1e6; }

/// Learns a detector and streams the step's fixed batches through it
/// inside one span; returns the detector.
std::unique_ptr<spot::SpotDetector> LearnAndStream(
    const spot::SpotConfig& cfg, const SessionInputs& in, Tracer* tracer,
    const std::string& span_name, const std::string& layer) {
  auto det = std::make_unique<spot::SpotDetector>(cfg);
  det->Learn(in.training);
  Tracer::Scope span(tracer, span_name, layer);
  for (std::uint64_t b = 0; b < kLadderBatches; ++b) {
    det->ProcessBatch(BatchAt(in, b));
  }
  return det;
}

/// Median duration of the spans named `name` recorded from span index
/// `first` on, in ms.
double MedianSpanMs(const Tracer& tracer, const std::string& name,
                    std::size_t first) {
  std::vector<double> ms;
  for (std::size_t i = first; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    if (s.name == name) ms.push_back(Ms(s.t1 - s.t0));
  }
  return Quantile(ms, 0.5);
}

// ----------------------------------------------------------------- core --

struct CoreOut {
  std::unique_ptr<spot::SpotDetector> learning;    // served config
  std::unique_ptr<spot::SpotDetector> nolearning;  // learning off
  double nolearn_s = 0.0;
};

CoreOut CoreStep(const SessionInputs& in, Tracer* tracer, Metrics* m) {
  CoreOut out;
  {
    spot::SpotDetector det(ServedConfig());
    Tracer::Scope span(tracer, "core.Learn", "core");
    det.Learn(in.training);
    m->Set("core.learn_ms", Ms(span.Seconds()), "ms");
  }
  out.learning = LearnAndStream(ServedConfig(), in, tracer,
                                "core.stream_learning", "core");
  out.nolearning = LearnAndStream(NoLearningConfig(), in, tracer,
                                  "core.stream_nolearning", "core");
  const double on = tracer->TotalSeconds("core.stream_learning");
  out.nolearn_s = tracer->TotalSeconds("core.stream_nolearning");
  m->Set("core.process_us_per_pt", Us(on) / kLadderPoints, "us");
  m->Set("core.process_nolearn_us_per_pt", Us(out.nolearn_s) / kLadderPoints,
         "us");
  m->Set("core.learning_us_per_pt", Us(on - out.nolearn_s) / kLadderPoints,
         "us");
  const spot::SpotStats& stats = out.learning->stats();
  m->Set("core.os_growth_runs", static_cast<double>(stats.os_growth_runs),
         "count");
  m->Set("core.evolution_rounds", static_cast<double>(stats.evolution_rounds),
         "count");
  {
    Tracer::Scope span(tracer, "core.QueryTopK", "core");
    for (int i = 0; i < kTopKQueries; ++i) out.learning->QueryTopK(kQueryK);
    m->Set("core.topk_query_us", Us(span.Seconds()) / kTopKQueries, "us");
  }
  return out;
}

// ----------------------------------------------------- moga + learning --

void MogaStep(const spot::SpotDetector& det, const SessionInputs& in,
              Tracer* tracer, Metrics* m) {
  // OS growth's search, standalone: the reservoir plus one planted outlier
  // as the target, under OS growth's population/generation budget.
  std::vector<double> target = in.stream.front().point.values;
  for (const spot::LabeledPoint& p : in.stream) {
    if (p.is_outlier) {
      target = p.point.values;
      break;
    }
  }
  std::vector<std::vector<double>> batch = det.reservoir().Items();
  batch.push_back(target);
  const spot::SpotConfig& cfg = det.config();
  const spot::Partition& partition = det.synapses().partition();
  spot::Nsga2Config moga = cfg.supervised.moga;
  moga.num_dims = partition.num_dims();
  moga.max_dimension = std::min(moga.max_dimension, moga.num_dims);
  moga.population_size = std::min(moga.population_size, 24);
  moga.generations = std::min(moga.generations, 10);
  std::size_t evals = 0;
  {
    Tracer::Scope total(tracer, "moga.runs", "moga");
    for (int i = 0; i < kMogaRuns; ++i) {
      Tracer::Scope span(tracer, "moga.FindTopSparse", "moga");
      spot::BatchSparsityObjectives obj(&partition, &batch,
                                        {batch.size() - 1});
      moga.seed = 1000 + static_cast<std::uint64_t>(i);
      spot::MogaSearch search(moga, &obj);
      search.FindTopSparse(cfg.supervised.top_subspaces_per_example);
      evals += obj.evaluation_count();
    }
  }
  const double run_s = tracer->TotalSeconds("moga.FindTopSparse");
  m->Set("moga.evals_per_run", static_cast<double>(evals) / kMogaRuns,
         "count");
  m->Set("moga.us_per_eval",
         evals > 0 ? Us(run_s) / static_cast<double>(evals) : 0.0, "us");
  m->Set("moga.run_ms", Ms(run_s) / kMogaRuns, "ms");
}

void LearningStep(const spot::SpotDetector& det, const SessionInputs& in,
                  Tracer* tracer, Metrics* m) {
  const spot::SpotConfig& cfg = det.config();
  const spot::Partition& partition = det.synapses().partition();
  const std::vector<std::vector<double>>& sample = det.reservoir().Items();

  // A feedback-shaped label set: the current top-k plus one fresh example.
  spot::DomainKnowledge knowledge;
  for (const spot::TopKEntry& e : det.QueryTopK(kFeedbackK)) {
    knowledge.outlier_examples.push_back(e.values);
  }
  knowledge.outlier_examples.push_back(in.stream.front().point.values);
  spot::SupervisedConfig scfg = cfg.supervised;
  scfg.moga.num_dims = partition.num_dims();
  scfg.moga.max_dimension =
      std::min(scfg.moga.max_dimension, scfg.moga.num_dims);
  for (int i = 0; i < kLearningRuns; ++i) {
    Tracer::Scope span(tracer, "learning.LearnOutlierDriven", "learning");
    spot::LearnOutlierDrivenSubspaces(sample, partition, knowledge, scfg,
                                      77 + static_cast<std::uint64_t>(i));
  }
  m->Set("learning.supervised_ms",
         Ms(tracer->TotalSeconds("learning.LearnOutlierDriven")) /
             kLearningRuns,
         "ms");

  spot::SelfEvolutionConfig ecfg = cfg.evolution;
  ecfg.max_dimension = std::min(ecfg.max_dimension, partition.num_dims());
  for (int i = 0; i < kLearningRuns; ++i) {
    spot::Sst sst = det.sst();
    spot::Rng rng(99 + static_cast<std::uint64_t>(i));
    Tracer::Scope span(tracer, "learning.EvolveClustering", "learning");
    spot::EvolveClusteringSubspaces(&sst, partition, sample, ecfg, rng);
  }
  m->Set("learning.evolution_ms",
         Ms(tracer->TotalSeconds("learning.EvolveClustering")) / kLearningRuns,
         "ms");
}

// -------------------------------------------------------- grid + engine --

void GridEngineStep(const SessionInputs& probe, Tracer* tracer, Metrics* m) {
  spot::SpotConfig cfg = NoLearningConfig();
  // Sequential detector: its probe count per point is exact.
  auto seq = std::make_unique<spot::SpotDetector>(cfg);
  seq->Learn(probe.training);
  const std::vector<spot::Subspace> tracked = seq->synapses().TrackedSubspaces();
  const std::uint64_t probes0 = seq->synapses().hash_probes();
  {
    Tracer::Scope span(tracer, "engine.stream_shards1", "engine");
    for (std::uint64_t b = 0; b < kLadderBatches; ++b) {
      seq->ProcessBatch(BatchAt(probe, b));
    }
  }
  m->Set("grid.probes_per_pt",
         static_cast<double>(seq->synapses().hash_probes() - probes0) /
             kLadderPoints,
         "count");

  // Bare synapse replay over the subspaces tracked after Learn.
  spot::SynapseManager synapses(
      seq->synapses().partition(),
      spot::DecayModel(cfg.omega, cfg.epsilon), cfg.prune_threshold,
      cfg.compaction_period);
  for (const spot::Subspace& s : tracked) synapses.Track(s);
  std::uint64_t tick = 0;
  for (const std::vector<double>& row : probe.training) {
    synapses.Add(row, tick++);
  }
  std::vector<spot::Pcs> pcs;
  {
    Tracer::Scope span(tracer, "grid.AddAndQuery", "grid");
    for (std::uint64_t i = 0; i < kStreamPoints; ++i) {
      synapses.AddAndQuery(probe.stream[i].point.values, tick++, &pcs);
    }
  }
  m->Set("grid.ns_per_pt",
         1e9 * tracer->TotalSeconds("grid.AddAndQuery") / kLadderPoints, "ns");
  m->Set("grid.populated_cells",
         static_cast<double>(synapses.TotalPopulatedCells()), "count");

  cfg.num_shards = 4;
  spot::SpotDetector sharded(cfg);
  sharded.Learn(probe.training);
  const double cpu0 = ProcessCpuNow();
  double wall = 0.0;
  {
    Tracer::Scope span(tracer, "engine.stream_shards4", "engine");
    for (std::uint64_t b = 0; b < kLadderBatches; ++b) {
      sharded.ProcessBatch(BatchAt(probe, b));
    }
    wall = span.Seconds();
  }
  const double cpu = ProcessCpuNow() - cpu0;
  m->Set("engine.speedup_k4",
         tracer->TotalSeconds("engine.stream_shards1") / wall, "x");
  m->Set("engine.cpu_per_wall", cpu / wall, "x");
}

// ----------------------------------------------------------- checkpoint --

void CheckpointStep(const spot::SpotDetector& det, Tracer* tracer,
                    Metrics* m) {
  std::string bytes;
  for (int i = 0; i < kCheckpointRuns; ++i) {
    std::ostringstream out;
    Tracer::Scope span(tracer, "checkpoint.Save", "checkpoint");
    spot::SaveCheckpoint(det, out);
    bytes = out.str();
  }
  for (int i = 0; i < kCheckpointRuns; ++i) {
    spot::SpotDetector restored(det.config());
    std::istringstream in(bytes);
    Tracer::Scope span(tracer, "checkpoint.Load", "checkpoint");
    spot::LoadCheckpoint(&restored, in);
  }
  m->Set("checkpoint.save_ms",
         Ms(tracer->TotalSeconds("checkpoint.Save")) / kCheckpointRuns, "ms");
  m->Set("checkpoint.load_ms",
         Ms(tracer->TotalSeconds("checkpoint.Load")) / kCheckpointRuns, "ms");
  m->Set("checkpoint.bytes", static_cast<double>(bytes.size()), "bytes");
}

// -------------------------------------------------------------- service --

void ServiceStep(const Args& args, const SessionInputs& in, double bare_s,
                 Tracer* tracer, Metrics* m) {
  const spot::SpotConfig cfg = NoLearningConfig();
  {
    // One resident session against the bare detector's time on the same
    // stream (CoreStep's learning-off run).
    spot::SpotService service(spot::SpotServiceConfig{});
    service.CreateSession("ladder", cfg, in.training);
    Tracer::Scope span(tracer, "service.stream_resident", "service");
    for (std::uint64_t b = 0; b < kLadderBatches; ++b) {
      service.Ingest("ladder", BatchAt(in, b));
    }
    m->Set("service.overhead_us_per_pt",
           Us(span.Seconds() - bare_s) / kLadderPoints, "us");
  }

  const std::string dir =
      std::string(kOutDir) + "/ladder-churn-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  {
    spot::SpotServiceConfig scfg;
    scfg.max_resident = kChurnResident;
    scfg.checkpoint_dir = dir;
    spot::SpotService service(scfg);
    std::vector<SessionInputs> sessions;
    for (std::size_t s = 0; s < kChurnSessions; ++s) {
      sessions.push_back(
          MakeSession(args.seed, s, kServedDims, kChurnTurns * kBatch));
      service.CreateSession("s" + std::to_string(s), cfg,
                            sessions.back().training);
    }
    const spot::ServiceMetrics before = service.TotalMetrics();
    for (std::uint64_t t = 0; t < kChurnTurns; ++t) {
      for (std::size_t s = 0; s < kChurnSessions; ++s) {
        const std::string id = "s" + std::to_string(s);
        {
          Tracer::Scope span(tracer, "service.churn_Ingest", "service");
          service.Ingest(id, BatchAt(sessions[s], t));
        }
        // As in session_churn: the resident session's checkpoint is stale,
        // and removing it keeps the next eviction off the disk.
        std::filesystem::remove(dir + "/" + id + ".ckpt", ec);
      }
    }
    const spot::ServiceMetrics after = service.TotalMetrics();
    m->Set("service.evictions",
           static_cast<double>(after.evictions - before.evictions), "count");
    m->Set("service.reloads",
           static_cast<double>(after.reloads - before.reloads), "count");
    const spot::obs::MetricsSnapshot snap = service.ObsSnapshot();
    const auto load = snap.histograms.find("checkpoint_load_us");
    m->Set("service.reload_ms",
           load == snap.histograms.end() ? 0.0 : load->second.mean() / 1e3,
           "ms");
  }
  std::filesystem::remove_all(dir, ec);
}

// ------------------------------------------------------------------ net --

/// The served step's schedule on an in-process SpotService (same sessions,
/// batches, queries and feedback rounds, no wire): its on-CPU time is the
/// base the server's is compared with.
double InProcessServedCpu(const spot::SpotConfig& cfg,
                          const std::vector<SessionInputs>& in,
                          std::uint64_t* feedback_rounds) {
  spot::SpotService service(spot::SpotServiceConfig{});
  const std::string ids[kServedConns] = {"bench-0", "bench-1"};
  for (std::size_t c = 0; c < kServedConns; ++c) {
    service.CreateSession(ids[c], cfg, in[c].training);
  }
  const double cpu0 = ThreadCpuNow();
  for (std::uint64_t b = 0; b < kNetBatches; ++b) {
    for (std::size_t c = 0; c < kServedConns; ++c) {
      const std::vector<spot::DataPoint> batch = BatchAt(in[c], b);
      service.Ingest(ids[c], batch);
      std::vector<spot::TopKEntry> top;
      if (QueryDue(b)) service.QueryTopK(ids[c], kQueryK, &top);
      if (FeedbackDue(b)) {
        service.QueryTopK(ids[c], kFeedbackK, &top);
        service.ApplyFeedback(ids[c], IdsOf(top), {batch.front().values});
      }
    }
  }
  const double cpu = ThreadCpuNow() - cpu0;
  *feedback_rounds = 0;
  for (const std::string& id : ids) {
    spot::SessionMetrics sm;
    if (service.GetMetrics(id, &sm)) *feedback_rounds += sm.stats.feedback_rounds;
  }
  return cpu;
}

void NetStep(const Args& args, Tracer* tracer, RunResult* result,
             Metrics* m) {
  const spot::SpotConfig cfg = SteadyLearningConfig();
  std::vector<SessionInputs> in;
  for (std::size_t c = 0; c < kServedConns; ++c) {
    in.push_back(MakeSession(args.seed, c, kServedDims, kStreamPoints));
  }
  const std::size_t first_span = tracer->spans().size();
  ServedSessions served;
  std::string error;
  if (!StartServed(args, cfg, in, tracer, &served, &error)) {
    result->checks.Expect(false, "net step: " + error);
    return;
  }
  const double cpu0 = served.server.CpuSoFar();
  ServedLog log;
  RunResult step_result;  // the step's RPCs are not the workload's operations
  DriveServed(&served, in, cfg,
              [](const ServedLog& l) { return l.batches < kNetBatches; },
              tracer, &step_result, &log);
  std::uint64_t wire_bytes = 0;
  for (const spot::net::SpotClient& client : served.clients) {
    wire_bytes += client.bytes_sent() + client.bytes_received();
  }
  spot::net::SpotClient scrape;
  spot::net::StatsResp stats;
  const bool scraped = scrape.Connect("127.0.0.1", served.server.port()) &&
                       scrape.Stats(&stats);
  scrape.Disconnect();
  double server_cpu_total = 0.0;
  StopServed(&served, &server_cpu_total);
  for (const std::string& failure : step_result.checks.failures()) {
    result->checks.Expect(false, "net step: " + failure);
  }
  if (log.broken) return;

  const double points = static_cast<double>(log.phase.points);
  std::uint64_t feedback_rounds = 0;
  const double service_cpu = InProcessServedCpu(cfg, in, &feedback_rounds);
  m->Set("core.feedback_rounds", static_cast<double>(feedback_rounds),
         "count");
  m->Set("net.flush_rtt_ms", MedianSpanMs(*tracer, "net.Flush", first_span), "ms");
  m->Set("net.feedback_rtt_ms", MedianSpanMs(*tracer, "net.Feedback", first_span), "ms");
  m->Set("net.topk_rtt_ms", MedianSpanMs(*tracer, "net.TopK", first_span), "ms");
  m->Set("net.bytes_per_pt", static_cast<double>(wire_bytes) / points,
         "bytes");
  m->Set("net.overhead_us_per_pt",
         Us(server_cpu_total - cpu0 - service_cpu) / points, "us");

  // The server's own stage histograms, as reference figures.
  const spot::obs::MetricsSnapshot merged =
      scraped ? stats.Merged() : spot::obs::MetricsSnapshot{};
  for (const char* stage : {"decode", "coalesce", "process", "encode",
                            "write"}) {
    const auto it =
        merged.histograms.find(std::string("pipeline_") + stage + "_us");
    m->Set(std::string("net.server_") + stage + "_us",
           it == merged.histograms.end() ? 0.0 : it->second.mean(), "us");
  }
}

}  // namespace

void RunLayerLadder(const Args& args, Tracer* tracer, RunResult* result) {
  Metrics& m = result->metrics;
  const std::size_t first_span = tracer->spans().size();
  {
    Tracer::Scope root(tracer, "ladder", "ladder");
    const SessionInputs served =
        MakeSession(args.seed, 0, kServedDims, kStreamPoints);
    const SessionInputs probe =
        MakeSession(args.seed, 0, kProbeDims, kStreamPoints);

    CoreOut core = CoreStep(served, tracer, &m);
    MogaStep(*core.learning, served, tracer, &m);
    LearningStep(*core.learning, served, tracer, &m);
    GridEngineStep(probe, tracer, &m);
    CheckpointStep(*core.nolearning, tracer, &m);
    ServiceStep(args, served, core.nolearn_s, tracer, &m);
    NetStep(args, tracer, result, &m);
  }

  // Busy time of each layer over the fixed work: its spans' time minus the
  // time their child spans cover.
  const std::map<std::string, double> self =
      tracer->SelfSecondsByLayer(first_span);
  for (const char* layer : {"grid", "moga", "learning", "core", "checkpoint",
                            "engine", "service", "net"}) {
    const auto it = self.find(layer);
    m.Set(std::string("self_ms.") + layer,
          it == self.end() ? 0.0 : Ms(it->second), "ms");
  }
}

}  // namespace perfbench
