#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

namespace wallbench {

using biopera::Result;
using biopera::Status;
using biopera::WritableFile;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCore: return "core";
    case Layer::kStore: return "store";
    case Layer::kComms: return "comms";
    case Layer::kCluster: return "cluster";
    case Layer::kKernel: return "kernel";
    case Layer::kService: return "service";
    case Layer::kObs: return "obs";
  }
  return "?";
}

// --- Tracer -----------------------------------------------------------------

namespace {
std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<uint32_t> g_next_thread{1};
// Open span stack of this thread: the innermost open span and its root.
thread_local int64_t t_current = -1;
thread_local int64_t t_root = -1;
}  // namespace

Tracer* ActiveTracer() { return g_tracer.load(std::memory_order_acquire); }
void SetActiveTracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

uint32_t SpanName(const std::string& name, Layer layer) {
  Tracer* t = ActiveTracer();
  return t == nullptr ? 0 : t->NameId(name, layer);
}

uint32_t Tracer::ThisThread() {
  thread_local uint32_t id = g_next_thread.fetch_add(1);
  return id;
}

void Tracer::SetMainThread() { main_thread_ = ThisThread(); }

uint32_t Tracer::NameId(const std::string& name, Layer layer) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  layers_.push_back(layer);
  ids_.emplace(name, id);
  return id;
}

int64_t Tracer::Begin(uint32_t name) {
  SpanRecord rec;
  rec.name = name;
  rec.thread = ThisThread();
  rec.round = round_.load(std::memory_order_relaxed);
  rec.parent = t_current;
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return -1;
    }
    id = static_cast<int64_t>(spans_.size());
    rec.root = t_current < 0 ? id : t_root;
    rec.start_ns = NowNs();
    spans_.push_back(rec);
  }
  if (t_current < 0) t_root = id;
  t_current = id;
  return id;
}

void Tracer::End(int64_t span) {
  if (span < 0) return;
  const uint64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& rec = spans_[static_cast<size_t>(span)];
  rec.end_ns = end;
  t_current = rec.parent;
  if (t_current < 0) t_root = -1;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%lld,\"run\":%u,\"name\":\"%s\","
                 "\"layer\":\"%s\",\"thread\":%u,\"start_ns\":%llu,"
                 "\"end_ns\":%llu}\n",
                 i, static_cast<long long>(s.parent), s.round,
                 names_[s.name].c_str(), LayerName(layers_[s.name]),
                 s.thread, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  if (dropped_ > 0) {
    std::fprintf(f, "{\"dropped\":%llu}\n",
                 static_cast<unsigned long long>(dropped_));
  }
  return std::fclose(f) == 0;
}

SpanBreakdown BreakDown(const std::vector<SpanRecord>& spans,
                        const Tracer& tracer, uint32_t round,
                        const std::string& phase) {
  SpanBreakdown out;
  // Child time per parent, then self = duration - children.
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.round != round) continue;
    if (s.end_ns < s.start_ns) out.tiles = false;  // never closed
    if (s.parent >= 0) {
      const SpanRecord& p = spans[static_cast<size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) out.tiles = false;
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<int64_t, uint64_t> root_self_sum;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.round != round) continue;
    const uint64_t dur = s.end_ns - s.start_ns;
    if (child_ns[i] > dur) {
      out.tiles = false;
      continue;
    }
    // Pool threads only run inside the phase; on the main thread, keep
    // the spans under the phase's roots.
    const bool main = s.thread == tracer.main_thread();
    const SpanRecord& root = spans[static_cast<size_t>(s.root)];
    if (main && tracer.Name(root.name) != phase) continue;
    const std::string& name = tracer.Name(s.name);
    out.total_ns[name] += dur;
    if (!main) continue;
    const uint64_t self = dur - child_ns[i];
    out.main_self_ns[static_cast<int>(tracer.LayerOf(s.name))] += self;
    root_self_sum[s.root] += self;
  }
  for (const auto& [root, sum] : root_self_sum) {
    const SpanRecord& r = spans[static_cast<size_t>(root)];
    if (sum != r.end_ns - r.start_ns) out.tiles = false;
  }
  return out;
}

// --- CountingFs --------------------------------------------------------------

CountingFs::FileClass CountingFs::Classify(const std::string& path) {
  std::string base = path.substr(path.find_last_of('/') + 1);
  if (base.size() > 4 && base.compare(base.size() - 4, 4, ".tmp") == 0) {
    base.resize(base.size() - 4);
  }
  if (base == "wal.log") return kWal;
  if (base == "MANIFEST") return kManifest;
  if (base == "snapshot.dat" || base.rfind("seg_", 0) == 0) return kSeg;
  return kOther;
}

CountingFs::CountingFs(biopera::Fs* base) : base_(base) {
  span_open_ = SpanName("fs.open", Layer::kStore);
  span_create_ = SpanName("fs.create", Layer::kStore);
  span_read_ = SpanName("fs.read", Layer::kStore);
  span_rename_ = SpanName("fs.rename", Layer::kStore);
  span_remove_ = SpanName("fs.remove", Layer::kStore);
  span_mkdir_ = SpanName("fs.create_dirs", Layer::kStore);
  span_syncdir_ = SpanName("fs.sync_dir", Layer::kStore);
  span_size_ = SpanName("fs.file_size", Layer::kStore);
  span_exists_ = SpanName("fs.exists", Layer::kStore);
  span_append_ = SpanName("fs.append", Layer::kStore);
  span_flush_ = SpanName("fs.flush", Layer::kStore);
  span_sync_ = SpanName("fs.sync", Layer::kStore);
  span_close_ = SpanName("fs.close", Layer::kStore);
}

class CountingFile : public WritableFile {
 public:
  CountingFile(CountingFs* fs, std::unique_ptr<WritableFile> base,
               CountingFs::FileClass cls)
      : fs_(fs), base_(std::move(base)), cls_(cls) {}

  Status Append(std::string_view data) override {
    Span span(fs_->span_append_);
    fs_->bytes_written[cls_] += data.size();
    return base_->Append(data);
  }
  Status Flush() override {
    Span span(fs_->span_flush_);
    return base_->Flush();
  }
  Status Sync() override {
    Span span(fs_->span_sync_);
    ++fs_->syncs;
    return base_->Sync();
  }
  Status Close() override {
    Span span(fs_->span_close_);
    return base_->Close();
  }

 private:
  CountingFs* fs_;
  std::unique_ptr<WritableFile> base_;
  CountingFs::FileClass cls_;
};

Result<std::unique_ptr<WritableFile>> CountingFs::OpenForAppend(
    const std::string& path) {
  Span span(span_open_);
  auto file = base_->OpenForAppend(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<CountingFile>(this, std::move(*file), Classify(path)));
}

Result<std::unique_ptr<WritableFile>> CountingFs::OpenForWrite(
    const std::string& path) {
  Span span(span_create_);
  auto file = base_->OpenForWrite(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<CountingFile>(this, std::move(*file), Classify(path)));
}

Result<std::string> CountingFs::ReadFileToString(const std::string& path) {
  Span span(span_read_);
  auto data = base_->ReadFileToString(path);
  if (data.ok()) bytes_read += data->size();
  return data;
}

Status CountingFs::Rename(const std::string& from, const std::string& to) {
  Span span(span_rename_);
  return base_->Rename(from, to);
}

Status CountingFs::Remove(const std::string& path) {
  Span span(span_remove_);
  return base_->Remove(path);
}

Status CountingFs::CreateDirs(const std::string& dir) {
  Span span(span_mkdir_);
  return base_->CreateDirs(dir);
}

Status CountingFs::SyncDir(const std::string& dir) {
  Span span(span_syncdir_);
  ++syncs;
  return base_->SyncDir(dir);
}

Result<uint64_t> CountingFs::FileSize(const std::string& path) {
  Span span(span_size_);
  return base_->FileSize(path);
}

bool CountingFs::Exists(const std::string& path) {
  Span span(span_exists_);
  return base_->Exists(path);
}

// --- CountingChannel ---------------------------------------------------------

CountingChannel::CountingChannel() {
  span_command_ = SpanName("comms.command", Layer::kComms);
  span_report_ = SpanName("comms.report", Layer::kComms);
  span_handle_command_ = SpanName("cluster.handle_command", Layer::kCluster);
  span_handle_report_ = SpanName("core.handle_report", Layer::kCore);
}

// Same delivery as comms::Channel (link check, then the synchronous
// handler call), with the handler bracketed by its own span.
Status CountingChannel::SendCommand(const biopera::comms::Message& msg) {
  Span send(span_command_);
  ++commands;
  if (!CommandLinkUp(msg.node) || command_handler() == nullptr) {
    return DeliverCommand(msg);
  }
  Span handle(span_handle_command_);
  return command_handler()->HandleCommand(msg);
}

bool CountingChannel::SendReport(const biopera::comms::Message& msg) {
  Span send(span_report_);
  ++reports;
  if (!ReportLinkUp(msg.node) || report_handler() == nullptr) {
    return DeliverReport(msg);
  }
  Span handle(span_handle_report_);
  report_handler()->HandleReport(msg);
  return true;
}

// --- Activity wrappers -------------------------------------------------------

uint64_t ActivityStats::BusyNs(const std::string& binding) const {
  auto it = by_binding.find(binding);
  return it == by_binding.end() ? 0 : it->second->busy_ns.load();
}

uint64_t ActivityStats::TotalCalls() const {
  uint64_t total = 0;
  for (const auto& [name, b] : by_binding) total += b->calls.load();
  return total;
}

uint64_t ActivityStats::TotalBusyNs() const {
  uint64_t total = 0;
  for (const auto& [name, b] : by_binding) total += b->busy_ns.load();
  return total;
}

void WrapActivities(biopera::core::ActivityRegistry* registry,
                    const std::vector<std::string>& bindings,
                    ActivityStats* stats) {
  for (const std::string& binding : bindings) {
    auto fn = registry->Find(binding);
    if (!fn.ok()) continue;
    auto& slot = stats->by_binding[binding];
    if (!slot) slot = std::make_unique<ActivityStats::Binding>();
    ActivityStats::Binding* counters = slot.get();
    const uint32_t name = SpanName("kernel." + binding, Layer::kKernel);
    registry->Override(
        binding,
        [inner = *fn, counters, name](const biopera::core::ActivityInput& in)
            -> Result<biopera::core::ActivityOutput> {
          Span span(name);
          const uint64_t t0 = NowNs();
          auto out = inner(in);
          counters->busy_ns += NowNs() - t0;
          ++counters->calls;
          return out;
        });
  }
}

// --- Misc --------------------------------------------------------------------

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

}  // namespace wallbench
