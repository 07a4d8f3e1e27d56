#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

// Shared pieces of the SPOT benchmark: run arguments, the served config
// and the seeded inputs, clocks, the per-phase sample recorder, the output
// checks that every workload shares, the span tracer of the traced pass,
// the spot_serverd child process, and the one-line JSON result.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/spot_config.h"
#include "stream/data_point.h"

namespace perfbench {

// ----------------------------------------------------------- arguments --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serverd;  // path of the spot_serverd binary
  /// Time one cold set-up of the workload and print it; nothing else runs.
  bool setup_only = false;
};

/// Where runs write (trace files, checkpoint directories), relative to the
/// directory the benchmark runs in.
constexpr const char kOutDir[] = ".bench_out";

// ------------------------------------------------------ config & inputs --

constexpr int kServedDims = 8;
constexpr int kProbeDims = 16;
constexpr std::size_t kTraining = 400;
constexpr std::size_t kBatch = 100;
constexpr double kOutlierProb = 0.02;

/// Points per session generated up front and replayed cyclically. Ten
/// (omega = 2000) windows: a replayed point's earlier copy has decayed
/// to under epsilon^10 of its weight by the time it comes round again.
constexpr std::size_t kStreamPoints = 20000;

/// spot_loadgen's SessionConfig: FastTestConfig with OS growth every 8th
/// outlier and CS self-evolution every 300 points.
spot::SpotConfig ServedConfig();

/// The served config with OS growth off: CS self-evolution (every 300
/// points) and feedback rounds are its online learning. OS growth runs on
/// every 8th detected outlier, so its cost follows the detection rate,
/// which settles into input-dependent regimes (README.md, "Dropped").
spot::SpotConfig SteadyLearningConfig();

/// The served config with both online-learning phases switched off.
spot::SpotConfig NoLearningConfig();

/// Session s learns spot_loadgen's session s: concept 500 + s (cluster
/// layout and planted-outlier subspaces) and training sample 9100 + s, so
/// every run measures the same learned model. The run seed picks the
/// stream sample each session scores.
constexpr std::uint64_t kConceptSeedBase = 500;
constexpr std::uint64_t kTrainingSeedBase = 9100;

/// One session's seeded inputs.
struct SessionInputs {
  std::vector<std::vector<double>> training;
  std::vector<spot::LabeledPoint> stream;  // replayed cyclically
};

SessionInputs MakeSession(std::uint64_t run_seed, std::size_t session,
                          int dims, std::size_t stream_points);

/// Batch `b` of the cyclic stream: points [b*kBatch, (b+1)*kBatch) of an
/// endless replay, with ids equal to their global position.
std::vector<spot::DataPoint> BatchAt(const SessionInputs& in,
                                     std::uint64_t b);

/// Planted-outlier label of global position `i`.
bool LabelAt(const SessionInputs& in, std::uint64_t i);

// -------------------------------------------------------------- clocks --

double WallNow();        // steady clock, seconds
double ProcessCpuNow();  // CLOCK_PROCESS_CPUTIME_ID, seconds
double ThreadCpuNow();   // CLOCK_THREAD_CPUTIME_ID, seconds

// ----------------------------------------------------- phase recording --

/// What a measured phase collects: the points scored, the wall time the
/// calls into the system under test took (the harness's own bookkeeping
/// between calls is left out), the on-CPU time they cost, and one latency
/// sample per batch. The work is also cut into consecutive windows of
/// `window_s` busy seconds. Load from outside the benchmark (other
/// tenants of a shared machine) only ever makes a window slower, so rates
/// are taken from the faster windows: the 90th percentile of window
/// throughputs, the 10th percentile of window CPU costs, and latency
/// quantiles over the samples of the windows at least that fast. A burst
/// of outside load then moves the slow windows, not the figure. The cost:
/// a stall of the program's own that comes less often than once a window
/// is not in the latency figures.
struct Phase {
  struct Window {
    double points = 0.0;
    double busy_s = 0.0;
    double cpu_s = 0.0;
  };

  std::uint64_t points = 0;
  double busy_s = 0.0;
  double cpu_s = 0.0;
  /// Per-batch latency samples and the window each fell in.
  std::vector<double> latency_ms;
  std::vector<std::size_t> latency_window;
  double window_s = 0.5;
  std::vector<Window> windows;  // closed windows
  Window open;

  void Work(std::size_t n, double wall_s, double cpu) {
    points += n;
    busy_s += wall_s;
    cpu_s += cpu;
    open.points += static_cast<double>(n);
    open.busy_s += wall_s;
    open.cpu_s += cpu;
    if (open.busy_s >= window_s) {
      windows.push_back(open);
      open = Window{};
    }
  }
  void Sample(double wall_s) {
    latency_ms.push_back(wall_s * 1e3);
    latency_window.push_back(windows.size());
  }

  /// 90th percentile over closed windows of points per busy second, and
  /// 10th percentile of on-CPU microseconds per point (whole-phase figures
  /// when fewer than eight windows closed).
  double PointsPerSecond() const;
  double CpuMicrosPerPoint() const;
  /// Nearest-rank latency quantile (ms) over the samples that fell in
  /// closed windows at least as fast as the 90th-percentile window.
  double LatencyQuantile(double q) const;
};

/// A measured phase runs until `seconds` of wall time have passed and at
/// least this many latency samples exist, so p99 over the fastest tenth
/// of the windows keeps ten samples beyond it.
constexpr std::size_t kMinSamples = 10000;

/// The measured-phase loop guard: true until the run length has passed
/// since `start` and `phase` holds kMinSamples samples.
bool KeepGoing(double start, const Args& args, const Phase& phase);

/// Nearest-rank quantile of `samples` (sorted copy).
double Quantile(std::vector<double> samples, double q);

// ------------------------------------------------------- output checks --

/// Collects failed checks; a run is correct when none failed.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Properties every verdict batch must have: one verdict per point, each
/// score in [0, 1], is_outlier exactly when there are findings, and every
/// finding's PCS sparse under the config's thresholds.
void CheckVerdicts(const std::vector<spot::SpotResult>& verdicts,
                   std::size_t expected, const spot::SpotConfig& cfg,
                   Checks* checks);

/// alpha of the (omega, epsilon) model solved independently of the
/// library: alpha^omega / (1 - alpha) = epsilon by bisection.
double SolveAlpha(std::uint64_t omega, double epsilon);

/// Bytes of a full-state checkpoint of `detector`.
std::uint64_t CheckpointBytes(const spot::SpotDetector& detector);

/// Batches (per session) between state-size samples. The checkpoint size
/// saws up and down over each 4096-arrival compaction cycle, so a single
/// end-of-run figure depends on where the run happened to stop; the mean of
/// samples taken every 100 batches (10000 points, which walks through the
/// cycle's phases) does not.
constexpr std::uint64_t kStateEvery = 100;

/// Mean of the state-size samples of a run.
struct StateMeter {
  double sum = 0.0;
  std::uint64_t samples = 0;
  void Add(std::uint64_t bytes) {
    sum += static_cast<double>(bytes);
    ++samples;
  }
  double Mean() const { return samples > 0 ? sum / static_cast<double>(samples) : 0.0; }
};

// --------------------------------------------------------- cold set-up --

/// Fresh processes that each time one cold set-up of the workload.
constexpr int kSetupProbes = 8;

/// setup_s of a run: the fastest of kSetupProbes cold set-ups, each the
/// first set-up of a fresh process of this binary (--setup-only) pinned
/// in turn to one of the CPUs this process may run on. The vCPUs of a shared machine run at
/// different speeds, and a slow stretch moves from one to another, so one
/// set-up reads the speed of whichever CPU it landed on; the fastest of a
/// sweep over every CPU reads the set-up's own cost. A probe that fails
/// is a failed check.
double FastestColdSetUp(const Args& args, Checks* checks);

// -------------------------------------------------------------- result --

/// Ordered name -> (value, unit) map of the reported metrics.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string Json() const;
  /// Value of `name` (0 when not set).
  double Get(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

struct RunResult {
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// The six end-to-end metrics of a measured phase; `cpu_us_per_pt` is the
/// caller's (the phase's 10th-percentile window CPU cost).
void SetEndToEnd(const Phase& phase, double setup_s, double state_bytes,
                 double cpu_us_per_pt, Metrics* metrics);

// -------------------------------------------------------------- tracer --

/// In-memory span recorder of the traced pass. Spans nest by scope; each
/// names the layer (a module of the library) it was recorded around.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name, const std::string& layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far (or final, once closed) in seconds.
    double Seconds() const;

   private:
    Tracer* tracer_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of the durations of every span named `name`.
  double TotalSeconds(const std::string& name) const;
  /// Per layer, over the spans recorded from index `first` on: span time
  /// minus the time its child spans cover.
  std::map<std::string, double> SelfSecondsByLayer(std::size_t first) const;
  /// Chrome-trace JSON ("X" events) of every span.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// ------------------------------------------------- spot_serverd child --

/// A spot_serverd child process: started with its stdout on a pipe,
/// ready once it prints its "listening on" line, stopped with SIGTERM and
/// reaped with wait4, whose rusage gives its on-CPU time.
class ServerChild {
 public:
  ServerChild() = default;
  ~ServerChild();
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* error);
  std::uint16_t port() const { return port_; }
  /// user+sys seconds the running child has used so far (/proc stat, in
  /// clock ticks).
  double CpuSoFar() const;
  /// SIGTERM, drain stdout, wait4. Returns false when the child did not
  /// exit cleanly. `cpu_s` receives rusage user+sys seconds.
  bool Stop(double* cpu_s);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------- workloads --

// Each runs one workload for args.seconds. With a tracer, every call into
// the system under test is also recorded as a span.
RunResult RunDetectLearning(const Args& args, Tracer* tracer);
RunResult RunSessionChurn(const Args& args, Tracer* tracer);

/// Seconds of one cold set-up of args.workload in this process, from
/// constructing the system under test until it is ready for its first
/// point; negative when the set-up fails.
double TimeColdSetUp(const Args& args);

/// The traced per-layer pass (fixed work, seeded like the workloads).
void RunLayerLadder(const Args& args, Tracer* tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
