// Outside-in instrumentation for the wall-clock benchmark. Every probe
// here wraps a public seam of the BioOpera libraries — the store's Fs,
// the engine's comms::Channel, the ActivityRegistry — so the benchmark
// can time and count each layer without changing a line under src/.
#ifndef WALLBENCH_PROBES_H_
#define WALLBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comms/channel.h"
#include "core/activity.h"
#include "store/fs.h"

namespace wallbench {

/// Monotonic wall clock in nanoseconds.
uint64_t NowNs();
inline double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The layer a span's self time is charged to. The layers are the src/
/// modules the benchmark calls into; kCore also absorbs the time no
/// narrower span covers (navigation, dispatch, the simulator loop).
enum class Layer : uint8_t {
  kCore,
  kStore,
  kComms,
  kCluster,
  kKernel,
  kService,
  kObs,
};
inline constexpr int kNumLayers = 7;
const char* LayerName(Layer layer);

/// One recorded call: [start_ns, end_ns) on `thread`, nested in `parent`
/// (-1 for a root) on the same thread. Roots on the main thread are the
/// round phases (setup, run, report); roots on pool threads are the
/// activity kernels the engine pre-executes there.
struct SpanRecord {
  uint32_t name = 0;
  uint32_t thread = 0;
  uint32_t round = 0;
  int64_t parent = -1;
  int64_t root = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// In-memory span recorder. Spans are appended under a mutex (pool
/// threads record too) and written out as JSONL once the benchmark ends.
class Tracer {
 public:
  explicit Tracer(size_t max_spans) : max_spans_(max_spans) {}

  /// Interns a span name with the layer its self time belongs to.
  uint32_t NameId(const std::string& name, Layer layer);
  const std::string& Name(uint32_t id) const { return names_[id]; }
  Layer LayerOf(uint32_t id) const { return layers_[id]; }

  int64_t Begin(uint32_t name);
  void End(int64_t span);

  /// Spans of later rounds are tagged with this number.
  void SetRound(uint32_t round) { round_ = round; }
  /// Marks the calling thread as the benchmark's client thread.
  void SetMainThread();
  uint32_t main_thread() const { return main_thread_; }
  static uint32_t ThisThread();

  /// Snapshot of every span recorded so far (call with no spans open).
  std::vector<SpanRecord> Spans() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  size_t max_spans_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<Layer> layers_;
  std::map<std::string, uint32_t> ids_;
  std::vector<SpanRecord> spans_;
  uint64_t dropped_ = 0;
  std::atomic<uint32_t> round_{0};
  uint32_t main_thread_ = 0;
};

/// The tracer probes report to; null while tracing is off, which reduces
/// every probe to a branch.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

/// RAII span on the active tracer (no-op when tracing is off).
class Span {
 public:
  explicit Span(uint32_t name) {
    if (Tracer* t = ActiveTracer(); t != nullptr) {
      tracer_ = t;
      id_ = t->Begin(name);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  int64_t id_ = -1;
};

/// Interns `name` on the active tracer (0 when tracing is off).
uint32_t SpanName(const std::string& name, Layer layer);

/// Per-round breakdown of the recorded spans.
struct SpanBreakdown {
  /// Self time per layer, summed over the main thread's spans under the
  /// roots named `phase`.
  uint64_t main_self_ns[kNumLayers] = {};
  /// Total time per span name in the phase, over every thread (self and
  /// children).
  std::map<std::string, uint64_t> total_ns;
  /// True when the main-thread self times under each root add up to the
  /// root's wall time exactly and every span nests inside its parent.
  bool tiles = true;
};
SpanBreakdown BreakDown(const std::vector<SpanRecord>& spans,
                        const Tracer& tracer, uint32_t round,
                        const std::string& phase);

/// Counting, timing Fs decorator handed to RecordStore::Open. Files are
/// classed by basename like FaultFs: wal (wal.log), seg (seg_*.dat,
/// snapshot.dat), manifest (MANIFEST) and other.
class CountingFs : public biopera::Fs {
 public:
  enum FileClass { kWal = 0, kSeg = 1, kManifest = 2, kOther = 3 };
  static constexpr int kNumClasses = 4;
  static FileClass Classify(const std::string& path);

  explicit CountingFs(biopera::Fs* base);

  biopera::Result<std::unique_ptr<biopera::WritableFile>> OpenForAppend(
      const std::string& path) override;
  biopera::Result<std::unique_ptr<biopera::WritableFile>> OpenForWrite(
      const std::string& path) override;
  biopera::Result<std::string> ReadFileToString(
      const std::string& path) override;
  biopera::Status Rename(const std::string& from,
                         const std::string& to) override;
  biopera::Status Remove(const std::string& path) override;
  biopera::Status CreateDirs(const std::string& dir) override;
  biopera::Status SyncDir(const std::string& dir) override;
  biopera::Result<uint64_t> FileSize(const std::string& path) override;
  bool Exists(const std::string& path) override;

  std::atomic<uint64_t> bytes_written[kNumClasses] = {};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> syncs{0};  // file syncs plus directory syncs

 private:
  friend class CountingFile;
  biopera::Fs* base_;
  uint32_t span_open_, span_create_, span_read_, span_rename_, span_remove_,
      span_mkdir_, span_syncdir_, span_size_, span_exists_, span_append_,
      span_flush_, span_sync_, span_close_;
};

/// Counting Channel installed through EngineOptions::channel. A send is
/// a comms span; the receiver's handling inside it is a child span
/// charged to the receiving layer (the engine for reports, the cluster's
/// PEC model for commands), so comms self time is the channel alone.
class CountingChannel : public biopera::comms::Channel {
 public:
  CountingChannel();
  biopera::Status SendCommand(const biopera::comms::Message& msg) override;
  bool SendReport(const biopera::comms::Message& msg) override;

  std::atomic<uint64_t> commands{0};
  std::atomic<uint64_t> reports{0};

 private:
  uint32_t span_command_, span_report_, span_handle_command_,
      span_handle_report_;
};

/// Thread-safe per-binding execution counters and busy time, fed by the
/// timing wrappers WrapActivities installs (pool threads call them).
struct ActivityStats {
  struct Binding {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> busy_ns{0};
  };
  std::map<std::string, std::unique_ptr<Binding>> by_binding;

  uint64_t BusyNs(const std::string& binding) const;
  uint64_t TotalCalls() const;
  uint64_t TotalBusyNs() const;
};

/// Replaces each named binding with a wrapper that counts and times it
/// (ActivityRegistry::Find + Override) and records a kernel span.
void WrapActivities(biopera::core::ActivityRegistry* registry,
                    const std::vector<std::string>& bindings,
                    ActivityStats* stats);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

}  // namespace wallbench

#endif  // WALLBENCH_PROBES_H_
