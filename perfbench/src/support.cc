#include "support.h"

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench/bench_util.h"
#include "core/checkpoint.h"
#include "eval/presets.h"

namespace perfbench {

// ------------------------------------------------------ config & inputs --

spot::SpotConfig ServedConfig() {
  spot::SpotConfig cfg = spot::eval::FastTestConfig();
  cfg.os_update_every = 8;
  cfg.evolution_period = 300;
  cfg.num_shards = 1;
  return cfg;
}

spot::SpotConfig SteadyLearningConfig() {
  spot::SpotConfig cfg = ServedConfig();
  cfg.os_update_every = 0;
  return cfg;
}

spot::SpotConfig NoLearningConfig() {
  spot::SpotConfig cfg = ServedConfig();
  cfg.os_update_every = 0;
  cfg.evolution_period = 0;
  return cfg;
}

namespace {

/// SplitMix64 finalizer: decorrelates the stream seeds of neighbouring
/// (run seed, session) pairs.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t DeriveSeed(std::uint64_t run_seed, std::size_t session) {
  return Mix(Mix(run_seed) ^ session);
}

}  // namespace

SessionInputs MakeSession(std::uint64_t run_seed, std::size_t session,
                          int dims, std::size_t stream_points) {
  const std::uint64_t concept_seed = kConceptSeedBase + session;
  SessionInputs in;
  in.training = spot::bench::MakeTraining(dims, static_cast<int>(kTraining),
                                          concept_seed,
                                          kTrainingSeedBase + session);
  in.stream = spot::bench::MakeEvalStream(
      dims, static_cast<int>(stream_points), kOutlierProb, concept_seed,
      DeriveSeed(run_seed, session));
  return in;
}

std::vector<spot::DataPoint> BatchAt(const SessionInputs& in,
                                     std::uint64_t b) {
  std::vector<spot::DataPoint> batch(kBatch);
  const std::uint64_t first = b * kBatch;
  for (std::size_t j = 0; j < kBatch; ++j) {
    batch[j].id = first + j;
    batch[j].values = in.stream[(first + j) % in.stream.size()].point.values;
  }
  return batch;
}

bool LabelAt(const SessionInputs& in, std::uint64_t i) {
  return in.stream[i % in.stream.size()].is_outlier;
}

// -------------------------------------------------------------- clocks --

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double ProcessCpuNow() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuNow() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

bool KeepGoing(double start, const Args& args, const Phase& phase) {

  return WallNow() - start < args.seconds ||
         phase.latency_ms.size() < kMinSamples;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

// ------------------------------------------------------- output checks --

void Checks::Expect(bool ok, const std::string& what) {
  // Keep the first few distinct failures; one broken invariant tends to
  // fail on every batch.
  if (!ok && failures_.size() < 16) failures_.push_back(what);
}

void CheckVerdicts(const std::vector<spot::SpotResult>& verdicts,
                   std::size_t expected, const spot::SpotConfig& cfg,
                   Checks* checks) {
  if (verdicts.size() != expected) {
    checks->Expect(false, "batch of " + std::to_string(expected) +
                              " points got " +
                              std::to_string(verdicts.size()) + " verdicts");
    return;
  }
  for (const spot::SpotResult& v : verdicts) {
    if (!(v.score >= 0.0 && v.score <= 1.0)) {
      checks->Expect(false, "score outside [0,1]");
      return;
    }
    if (v.is_outlier != !v.findings.empty()) {
      checks->Expect(false, "is_outlier disagrees with findings");
      return;
    }
    for (const spot::SubspaceFinding& f : v.findings) {
      if (!(f.pcs.rd <= cfg.rd_threshold &&
            f.pcs.irsd <= cfg.irsd_threshold)) {
        checks->Expect(false, "finding with a PCS that is not sparse");
        return;
      }
    }
  }
}

double SolveAlpha(std::uint64_t omega, double epsilon) {
  // g(a) = omega*ln(a) - ln(1-a) - ln(epsilon) is increasing on (0, 1).
  const long double w = static_cast<long double>(omega);
  const long double le = std::log(static_cast<long double>(epsilon));
  long double lo = 0.5L;
  long double hi = 1.0L;
  for (int i = 0; i < 200; ++i) {
    const long double mid = (lo + hi) / 2;
    const long double g = w * std::log(mid) - std::log1p(-mid) - le;
    (g < 0 ? lo : hi) = mid;
  }
  return static_cast<double>((lo + hi) / 2);
}

std::uint64_t CheckpointBytes(const spot::SpotDetector& detector) {
  std::ostringstream out;
  if (!spot::SaveCheckpoint(detector, out)) return 0;
  return out.str().size();
}

// --------------------------------------------------------- cold set-up --

namespace {

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

/// Runs this binary with `argv` pinned to `cpu`; returns its stdout, or an
/// empty string when it did not exit cleanly.
std::string RunPinned(const std::vector<std::string>& argv, int cpu) {
  int fds[2];
  if (::pipe(fds) != 0) return "";
  std::vector<char*> raw;
  for (const std::string& a : argv) raw.push_back(const_cast<char*>(a.c_str()));
  raw.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return "";
  }
  if (pid == 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv("/proc/self/exe", raw.data());
    std::_Exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? out : "";
}

}  // namespace

double FastestColdSetUp(const Args& args, Checks* checks) {
  const std::vector<int> cpus = AllowedCpus();
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%g", args.seconds);
  const std::vector<std::string> argv = {
      "spot_perfbench", "--workload", args.workload,
      "--seed",         std::to_string(args.seed),
      "--seconds",      seconds,
      "--setup-only",   "1"};
  double fastest = 0.0;
  std::string seen;
  for (int k = 0; k < kSetupProbes; ++k) {
    const int cpu = cpus[static_cast<std::size_t>(k) % cpus.size()];
    const double probe = std::atof(RunPinned(argv, cpu).c_str());
    checks->Expect(probe > 0.0, "cold set-up probe on CPU " +
                                    std::to_string(cpu) + " failed");
    if (probe > 0.0 && (fastest == 0.0 || probe < fastest)) fastest = probe;
    char item[48];
    std::snprintf(item, sizeof(item), " %d:%.4f", cpu, probe);
    seen += item;
  }
  std::fprintf(stderr, "cold set-up (s), cpu:seconds%s\n", seen.c_str());
  return fastest;
}

// -------------------------------------------------------------- result --

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

double Metrics::Get(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return item.second.first;
  }
  return 0.0;
}

std::string Metrics::Json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    char value[64];
    const double v = items_[i].second.first;
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + items_[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + items_[i].second.second + "\"}";
  }
  return out + "}";
}

double Phase::PointsPerSecond() const {
  if (windows.size() < 8) {
    return busy_s > 0.0 ? static_cast<double>(points) / busy_s : 0.0;
  }
  std::vector<double> rates;
  for (const Window& w : windows) rates.push_back(w.points / w.busy_s);
  return Quantile(rates, 0.9);
}

double Phase::CpuMicrosPerPoint() const {
  if (windows.size() < 8) {
    return points > 0 ? 1e6 * cpu_s / static_cast<double>(points) : 0.0;
  }
  std::vector<double> costs;
  for (const Window& w : windows) costs.push_back(1e6 * w.cpu_s / w.points);
  return Quantile(costs, 0.1);
}

double Phase::LatencyQuantile(double q) const {
  if (windows.size() < 8) return Quantile(latency_ms, q);
  std::vector<double> rates;
  for (const Window& w : windows) rates.push_back(w.points / w.busy_s);
  const double fast = Quantile(rates, 0.9);
  std::vector<double> kept;
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    const std::size_t w = latency_window[i];
    if (w < windows.size() && windows[w].points / windows[w].busy_s >= fast) {
      kept.push_back(latency_ms[i]);
    }
  }
  return Quantile(kept, q);
}

void SetEndToEnd(const Phase& phase, double setup_s, double state_bytes,
                 double cpu_us_per_pt, Metrics* metrics) {
  metrics->Set("setup_s", setup_s, "s");
  metrics->Set("pts_per_s", phase.PointsPerSecond(), "pts/s");
  metrics->Set("cpu_us_per_pt", cpu_us_per_pt, "us");
  metrics->Set("verdict_p50_ms", phase.LatencyQuantile(0.50), "ms");
  metrics->Set("verdict_p99_ms", phase.LatencyQuantile(0.99), "ms");
  metrics->Set("state_bytes", state_bytes, "bytes");
}

// -------------------------------------------------------------- tracer --

Tracer::Scope::Scope(Tracer* tracer, const std::string& name,
                     const std::string& layer)
    : tracer_(tracer), index_(-1) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = tracer_->open_;
  span.t0 = WallNow();
  tracer_->spans_.push_back(std::move(span));
  index_ = static_cast<int>(tracer_->spans_.size()) - 1;
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.t1 = WallNow();
  tracer_->open_ = span.parent;
}

double Tracer::Scope::Seconds() const {
  if (tracer_ == nullptr) return 0.0;
  const Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  return (span.t1 > 0.0 ? span.t1 : WallNow()) - span.t0;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.t1 - s.t0;
  }
  return total;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer(
    std::size_t first) const {
  // Children of one span never overlap (scopes nest on one thread), so the
  // part of a span its children cover is the sum of their durations.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  std::map<std::string, double> self;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    self[spans_[i].layer] += spans_[i].t1 - spans_[i].t0 - child[i];
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1}",
                  i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                  (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ------------------------------------------------- spot_serverd child --

ServerChild::~ServerChild() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool ServerChild::Start(const std::string& binary,
                        const std::vector<std::string>& args,
                        std::string* error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid_ == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(binary.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];

  // Wait (bounded) for "listening on <addr>:<port>".
  std::string seen;
  const double deadline = WallNow() + 30.0;
  while (WallNow() < deadline) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 1000) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    seen.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = seen.find("listening on ");
    if (at == std::string::npos) continue;
    const std::size_t eol = seen.find('\n', at);
    if (eol == std::string::npos) continue;
    const std::string line = seen.substr(at, eol - at);
    const std::size_t colon = line.rfind(':');
    const std::size_t space = line.find(' ', colon);
    port_ = static_cast<std::uint16_t>(
        std::atoi(line.substr(colon + 1, space - colon - 1).c_str()));
    if (port_ != 0) return true;
    break;
  }
  *error = "spot_serverd did not report a listening port (output: '" + seen +
           "')";
  return false;
}

double ServerChild::CpuSoFar() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

bool ServerChild::Stop(double* cpu_s) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  // Drain stdout so the shutdown summary never blocks on a full pipe.
  char buf[4096];
  while (::read(out_fd_, buf, sizeof(buf)) > 0) {
  }
  int status = 0;
  rusage usage{};
  const pid_t got = ::wait4(pid_, &status, 0, &usage);
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  if (cpu_s != nullptr) {
    *cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec) +
             static_cast<double>(usage.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_stime.tv_usec);
  }
  return got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
