// The measured workloads. Each builds its seeded inputs first, sets up
// the system under test (set-up is timed in fresh processes, see
// FastestColdSetUp), drives it for the run length,
// and then checks its outputs against a computation made apart from the
// program or against a property the method must have.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "eval/metrics.h"
#include "net/protocol.h"
#include "service/spot_service.h"
#include "support.h"

namespace perfbench {

namespace {

/// Floor on the ROC AUC of detect_learning's scores against the planted
/// labels (see README.md for how it was chosen).
constexpr double kDetectAucFloor = 0.9;

/// Windows a measured phase is cut into for its rates.
constexpr double kWindows = 60.0;

}  // namespace

// ---------------------------------------------------- detect_learning --

namespace {

/// detect_learning's set-up: the detector, constructed and learned
/// (nullptr when Learn fails).
std::unique_ptr<spot::SpotDetector> SetUpDetector(const SessionInputs& in,
                                                  Tracer* tracer) {
  auto detector = std::make_unique<spot::SpotDetector>(SteadyLearningConfig());
  Tracer::Scope span(tracer, "core.Learn", "core");
  if (!detector->Learn(in.training)) return nullptr;
  return detector;
}

}  // namespace

RunResult RunDetectLearning(const Args& args, Tracer* tracer) {
  RunResult r;
  const spot::SpotConfig cfg = SteadyLearningConfig();
  const SessionInputs in =
      MakeSession(args.seed, 0, kServedDims, kStreamPoints);

  const std::unique_ptr<spot::SpotDetector> owned = SetUpDetector(in, tracer);
  r.checks.Expect(owned != nullptr, "Learn failed");
  if (owned == nullptr) return r;
  spot::SpotDetector& detector = *owned;
  const double setup_s = tracer == nullptr ? FastestColdSetUp(args, &r.checks)
                                           : 0.0;

  Phase phase;
  phase.window_s = args.seconds / kWindows;
  StateMeter state;
  std::vector<double> scores;
  std::vector<bool> labels;
  const double start = WallNow();
  for (std::uint64_t b = 0; KeepGoing(start, args, phase); ++b) {
    const std::vector<spot::DataPoint> batch = BatchAt(in, b);
    std::vector<spot::SpotResult> verdicts;
    const double c0 = ProcessCpuNow();
    const double w0 = WallNow();
    {
      Tracer::Scope span(tracer, "core.ProcessBatch", "core");
      verdicts = detector.ProcessBatch(batch);
    }
    const double wall = WallNow() - w0;
    phase.Sample(wall);
    phase.Work(batch.size(), wall, ProcessCpuNow() - c0);
    ++r.attempted;
    CheckVerdicts(verdicts, batch.size(), cfg, &r.checks);
    for (std::size_t j = 0; j < verdicts.size() && j < batch.size(); ++j) {
      scores.push_back(verdicts[j].score);
      labels.push_back(LabelAt(in, batch[j].id));
    }
    if ((b + 1) % kStateEvery == 0) state.Add(CheckpointBytes(detector));
  }

  // The decayed total weight is the sum over every point seen (training
  // included) of alpha^age: a geometric series in alpha.
  const long double alpha = SolveAlpha(cfg.omega, cfg.epsilon);
  const long double seen = static_cast<long double>(kTraining + phase.points);
  const double expected_weight =
      static_cast<double>((1.0L - std::pow(alpha, seen)) / (1.0L - alpha));
  const double weight = detector.synapses().TotalWeight();
  r.checks.Expect(
      std::fabs(weight - expected_weight) <= 1e-9 * expected_weight,
      "TotalWeight " + std::to_string(weight) + " != geometric sum " +
          std::to_string(expected_weight));

  const double auc = spot::eval::RocAuc(scores, labels);
  r.checks.Expect(auc >= kDetectAucFloor,
                  "ROC AUC " + std::to_string(auc) + " under the floor");
  std::fprintf(stderr, "detect_learning: %llu points, AUC %.4f, %llu "
               "evolution rounds, %zu subspaces tracked\n",
               static_cast<unsigned long long>(phase.points), auc,
               static_cast<unsigned long long>(
                   detector.stats().evolution_rounds),
               detector.TrackedSubspaces());

  SetEndToEnd(phase, setup_s, state.Mean(), phase.CpuMicrosPerPoint(),
              &r.metrics);
  return r;
}

// ----------------------------------------------------- session_churn --

namespace {

constexpr std::size_t kChurnSessions = 16;
constexpr std::size_t kChurnResident = 4;
/// Turns between state-size samples (1000 points per session).
constexpr std::uint64_t kChurnStateEvery = 10;

std::string ChurnId(std::size_t s) { return "churn-" + std::to_string(s); }

/// The checkpoint directory of this process's service.
std::string ChurnDir() {
  return std::string(kOutDir) + "/churn-" + std::to_string(::getpid());
}

/// Where the service keeps session s's checkpoint (`<dir>/<id>.ckpt`).
std::string ChurnCheckpoint(const std::string& dir, std::size_t s) {
  return dir + "/" + ChurnId(s) + ".ckpt";
}

/// session_churn's set-up: a fresh checkpoint directory and the service
/// with every session created (nullptr when a CreateSession fails).
std::unique_ptr<spot::SpotService> SetUpChurn(
    const std::vector<SessionInputs>& in, const std::string& dir,
    Tracer* tracer) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  spot::SpotServiceConfig scfg;
  scfg.max_resident = kChurnResident;
  scfg.checkpoint_dir = dir;
  auto service = std::make_unique<spot::SpotService>(scfg);
  for (std::size_t s = 0; s < kChurnSessions; ++s) {
    Tracer::Scope span(tracer, "service.CreateSession", "service");
    if (!service->CreateSession(ChurnId(s), NoLearningConfig(),
                                in[s].training)) {
      return nullptr;
    }
  }
  return service;
}

}  // namespace

RunResult RunSessionChurn(const Args& args, Tracer* tracer) {
  RunResult r;
  const spot::SpotConfig cfg = NoLearningConfig();
  std::vector<SessionInputs> in;
  for (std::size_t s = 0; s < kChurnSessions; ++s) {
    in.push_back(MakeSession(args.seed, s, kServedDims, kStreamPoints));
  }
  const std::string dir = ChurnDir();
  std::unique_ptr<spot::SpotService> service = SetUpChurn(in, dir, tracer);
  r.checks.Expect(service != nullptr, "CreateSession failed");
  std::error_code ec;
  if (service == nullptr) {
    std::filesystem::remove_all(dir, ec);
    return r;
  }
  const double setup_s = tracer == nullptr ? FastestColdSetUp(args, &r.checks)
                                           : 0.0;

  Phase phase;
  phase.window_s = args.seconds / kWindows;
  std::vector<std::string> churned(kChurnSessions);
  std::uint64_t turns = 0;  // whole round-robin turns over every session
  const double start = WallNow();
  for (; KeepGoing(start, args, phase); ++turns) {
    for (std::size_t s = 0; s < kChurnSessions; ++s) {
      const std::vector<spot::DataPoint> batch = BatchAt(in[s], turns);
      spot::IngestResult res;
      const double c0 = ProcessCpuNow();
      const double w0 = WallNow();
      {
        Tracer::Scope span(tracer, "service.Ingest", "service");
        res = service->Ingest(ChurnId(s), batch);
      }
      const double wall = WallNow() - w0;
      phase.Sample(wall);
      phase.Work(batch.size(), wall, ProcessCpuNow() - c0);
      ++r.attempted;
      if (!res.ok) {
        ++r.failed;
        r.checks.Expect(false, "Ingest " + ChurnId(s) + " failed");
        continue;
      }
      CheckVerdicts(res.verdicts, batch.size(), cfg, &r.checks);
      churned[s] += spot::net::VerdictBytes(res.verdicts);
      // Session s is resident again, so its checkpoint is stale: remove
      // it. Its next eviction then writes a new file instead of renaming
      // over an old one, which on ext4 would start writeback to the disk
      // at once; this way the file lives and dies in the page cache and
      // the shared disk's speed stays out of the figures.
      std::filesystem::remove(ChurnCheckpoint(dir, s), ec);
    }
  }
  const spot::ServiceMetrics totals = service->TotalMetrics();
  service.reset();
  std::filesystem::remove_all(dir, ec);

  // Eviction must be invisible in the verdicts: detectors that are never
  // evicted produce the same bytes. They also give the sessions' state
  // size, sampled every kChurnStateEvery turns.
  std::vector<std::unique_ptr<spot::SpotDetector>> kept_detectors;
  for (std::size_t s = 0; s < kChurnSessions; ++s) {
    kept_detectors.push_back(std::make_unique<spot::SpotDetector>(cfg));
    kept_detectors.back()->Learn(in[s].training);
  }
  std::vector<std::string> kept(kChurnSessions);
  StateMeter state;
  for (std::uint64_t t = 0; t < turns; ++t) {
    std::uint64_t bytes = 0;
    for (std::size_t s = 0; s < kChurnSessions; ++s) {
      kept[s] += spot::net::VerdictBytes(
          kept_detectors[s]->ProcessBatch(BatchAt(in[s], t)));
      if ((t + 1) % kChurnStateEvery == 0) {
        bytes += CheckpointBytes(*kept_detectors[s]);
      }
    }
    if ((t + 1) % kChurnStateEvery == 0) state.Add(bytes);
  }
  for (std::size_t s = 0; s < kChurnSessions; ++s) {
    r.checks.Expect(churned[s] == kept[s],
                    ChurnId(s) + ": verdicts under eviction differ from a "
                                 "run without eviction");
  }
  std::fprintf(stderr, "session_churn: %llu points, %llu evictions, %llu "
               "reloads\n",
               static_cast<unsigned long long>(phase.points),
               static_cast<unsigned long long>(totals.evictions),
               static_cast<unsigned long long>(totals.reloads));

  SetEndToEnd(phase, setup_s, state.Mean(), phase.CpuMicrosPerPoint(),
              &r.metrics);
  return r;
}

// ----------------------------------------------------- cold set-up --

double TimeColdSetUp(const Args& args) {
  if (args.workload == "detect_learning") {
    const SessionInputs in = MakeSession(args.seed, 0, kServedDims, 0);
    const double start = WallNow();
    const std::unique_ptr<spot::SpotDetector> detector =
        SetUpDetector(in, nullptr);
    const double seconds = WallNow() - start;
    return detector != nullptr ? seconds : -1.0;
  }
  if (args.workload == "session_churn") {
    std::vector<SessionInputs> in;
    for (std::size_t s = 0; s < kChurnSessions; ++s) {
      in.push_back(MakeSession(args.seed, s, kServedDims, 0));
    }
    const std::string dir = ChurnDir();
    const double start = WallNow();
    std::unique_ptr<spot::SpotService> service = SetUpChurn(in, dir, nullptr);
    const double seconds = WallNow() - start;
    const bool ok = service != nullptr;
    service.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return ok ? seconds : -1.0;
  }
  return -1.0;
}

}  // namespace perfbench
