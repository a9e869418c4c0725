// fanout_crash: one instance fans out kBranches late-bound subprocesses
// (screen, then align behind `screen.out.hit == true`) over a 16-CPU
// simulated cluster; halfway through virtual time the server crashes —
// engine and store handle dropped, store reopened, a new engine started —
// and the run completes. The activity bodies are trivial, so the
// navigator, dispatcher, group commit, checkpoints and WAL replay do the
// work.
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ocr/builder.h"
#include "workloads.h"

namespace wallbench {
namespace {

using biopera::Duration;
using biopera::Simulator;
using biopera::TimePoint;
using biopera::core::ActivityInput;
using biopera::core::ActivityOutput;
using biopera::ocr::Value;

constexpr int kBranches = 10000;
constexpr int kNodes = 4;
constexpr int kCpusPerNode = 4;

/// One branch's seeded input. `rank` is a permutation of [0, kBranches),
/// so exactly half the branches pass the screen.
struct Item {
  int64_t rank = 0;
  int64_t screen_s = 0;
  int64_t align_s = 0;
};

bool Hit(int64_t rank) { return rank < kBranches / 2; }

std::vector<Item> MakeItems(uint64_t seed) {
  biopera::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  std::vector<Item> items(kBranches);
  std::vector<int64_t> ranks(kBranches);
  for (int i = 0; i < kBranches; ++i) ranks[i] = i;
  for (int i = kBranches - 1; i > 0; --i) {
    std::swap(ranks[i], ranks[rng.NextUint64(static_cast<uint64_t>(i) + 1)]);
  }
  for (int i = 0; i < kBranches; ++i) {
    items[i].rank = ranks[i];
    items[i].screen_s = rng.UniformInt(60, 600);
    items[i].align_s = rng.UniformInt(600, 3600);
  }
  return items;
}

/// The benchmark's own record of every activity execution, per item,
/// split at the crash.
struct ExecLog {
  bool after_crash = false;
  std::vector<uint32_t> screen_before, screen_after;
  std::vector<uint32_t> align_before, align_after;
  explicit ExecLog(size_t n)
      : screen_before(n), screen_after(n), align_before(n), align_after(n) {}
};

biopera::Result<int64_t> ItemId(const ActivityInput& in) {
  const Value& item = in.Get("item");
  if (!item.is_map()) {
    return biopera::Status::InvalidArgument("item missing");
  }
  auto id = item.AsMap().find("id");
  if (id == item.AsMap().end() || !id->second.is_int() ||
      id->second.AsInt() < 0 || id->second.AsInt() >= kBranches) {
    return biopera::Status::InvalidArgument("item id missing");
  }
  return id->second.AsInt();
}

int64_t Field(const ActivityInput& in, const char* name) {
  return in.Get("item").AsMap().at(name).AsInt();
}

void RegisterActivities(biopera::core::ActivityRegistry* registry,
                        ExecLog* log) {
  (void)registry->Register(
      "bench.screen",
      [log](const ActivityInput& in) -> biopera::Result<ActivityOutput> {
        BIOPERA_ASSIGN_OR_RETURN(int64_t id, ItemId(in));
        ++(log->after_crash ? log->screen_after : log->screen_before)[id];
        ActivityOutput out;
        out.fields["hit"] = Value(Hit(Field(in, "rank")));
        out.cost = Duration::Seconds(static_cast<double>(
            Field(in, "screen_s")));
        return out;
      });
  (void)registry->Register(
      "bench.align",
      [log](const ActivityInput& in) -> biopera::Result<ActivityOutput> {
        BIOPERA_ASSIGN_OR_RETURN(int64_t id, ItemId(in));
        ++(log->after_crash ? log->align_after : log->align_before)[id];
        ActivityOutput out;
        out.fields["aligned"] = Value(id);
        out.cost =
            Duration::Seconds(static_cast<double>(Field(in, "align_s")));
        return out;
      });
}

biopera::ocr::ProcessDef BranchProcess() {
  using biopera::ocr::ProcessBuilder;
  using biopera::ocr::TaskBuilder;
  auto def = ProcessBuilder("fan_branch")
                 .Data("item")
                 .Task(TaskBuilder::Activity("screen", "bench.screen")
                           .Input("wb.item", "in.item"))
                 .Task(TaskBuilder::Activity("align", "bench.align")
                           .Input("wb.item", "in.item"))
                 .Connect("screen", "align", "screen.out.hit == true")
                 .Build();
  if (!def.ok()) std::abort();
  return std::move(*def);
}

biopera::ocr::ProcessDef FanoutProcess() {
  using biopera::ocr::ProcessBuilder;
  using biopera::ocr::TaskBuilder;
  auto def = ProcessBuilder("fanout_crash")
                 .Data("items")
                 .Task(TaskBuilder::Parallel(
                     "fan", "wb.items",
                     TaskBuilder::Subprocess("branch", "fan_branch")
                         .Input("item", "in.item")))
                 .Build();
  if (!def.ok()) std::abort();
  return std::move(*def);
}

/// Parses the parallel element index out of a task path: "fan[17]" is
/// branch 17 and "fan[17]/screen" its screen (-1 when the path has none).
int64_t BranchIndex(const std::string& path) {
  const size_t open = path.find('[');
  if (open == std::string::npos) return -1;
  return std::strtoll(path.c_str() + open + 1, nullptr, 10);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

RoundResult RunFanoutCrash(const RoundConfig& config) {
  RoundResult result;
  const bool traced = config.mode == RoundMode::kTraced;
  const uint32_t span_setup = SpanName("setup", Layer::kCore);
  const uint32_t span_run = SpanName("run", Layer::kCore);
  const uint32_t span_start = SpanName("core.start_process", Layer::kCore);

  // --- set-up: world, inputs, engine up, templates registered -------------
  uint64_t t0 = NowNs();
  std::unique_ptr<Span> phase = std::make_unique<Span>(span_setup);
  const std::vector<Item> items = MakeItems(config.seed);
  ExecLog log(kBranches);
  Simulator sim;
  std::unique_ptr<biopera::obs::Observability> obs;
  if (config.mode != RoundMode::kDetached) {
    obs = std::make_unique<biopera::obs::Observability>();
  }
  std::unique_ptr<CountingFs> fs;
  std::unique_ptr<CountingChannel> channel;
  ActivityStats activity_stats;
  if (traced) {
    fs = std::make_unique<CountingFs>(biopera::Fs::Default());
    channel = std::make_unique<CountingChannel>();
  }
  const std::string dir = config.work_dir + "/store";
  biopera::cluster::ClusterSim cluster(&sim);
  for (int i = 0; i < kNodes; ++i) {
    (void)cluster.AddNode({.name = "node" + std::to_string(i),
                           .num_cpus = kCpusPerNode,
                           .speed = 1.0});
  }
  biopera::core::ActivityRegistry registry;
  RegisterActivities(&registry, &log);
  if (traced) {
    WrapActivities(&registry, {"bench.screen", "bench.align"},
                   &activity_stats);
  }
  biopera::core::EngineOptions options;
  options.observability = obs.get();
  options.channel = channel.get();
  Server server;
  StartTimes start;
  biopera::Status st = StartServer(dir, fs.get(), &sim, &cluster, &registry,
                                   options, &server, &start);
  if (st.ok()) st = server.engine->RegisterTemplate(BranchProcess());
  if (st.ok()) st = server.engine->RegisterTemplate(FanoutProcess());
  if (!st.ok()) {
    result.error = "engine set-up: " + st.ToString();
    return result;
  }
  Value::List list;
  list.reserve(kBranches);
  double total_work_s = 0;
  for (int i = 0; i < kBranches; ++i) {
    Value::Map item;
    item["id"] = Value(static_cast<int64_t>(i));
    item["rank"] = Value(items[i].rank);
    item["screen_s"] = Value(items[i].screen_s);
    item["align_s"] = Value(items[i].align_s);
    list.emplace_back(std::move(item));
    total_work_s += static_cast<double>(items[i].screen_s);
    if (Hit(items[i].rank)) {
      total_work_s += static_cast<double>(items[i].align_s);
    }
  }
  Value::Map args;
  args["items"] = Value(std::move(list));
  // Halfway through the expected virtual time on the 16 simulated CPUs.
  const TimePoint crash_at = TimePoint::Zero() +
      Duration::Seconds(total_work_s / (kNodes * kCpusPerNode) / 2.0);
  phase.reset();
  result.setup_s = Seconds(NowNs() - t0);

  // --- run, first half -------------------------------------------------------
  uint64_t events = 0;
  const uint64_t events_before = sim.NumExecuted();
  const uint64_t wal_before =
      fs ? fs->bytes_written[CountingFs::kWal].load() : 0;
  const uint64_t seg_before =
      fs ? fs->bytes_written[CountingFs::kSeg].load() : 0;
  const uint64_t syncs_before = fs ? fs->syncs.load() : 0;
  const uint64_t commits_before =
      CounterValue(obs.get(), "store_commits_total");
  uint64_t run_ns = 0;
  t0 = NowNs();
  phase = std::make_unique<Span>(span_run);
  std::string id;
  {
    Span span(span_start);
    auto started = server.engine->StartProcess("fanout_crash", args);
    if (!started.ok()) {
      result.error = "start: " + started.status().ToString();
      return result;
    }
    id = *started;
  }
  AdvanceTo(&sim, crash_at, traced, &events);
  phase.reset();
  run_ns += NowNs() - t0;

  // Committed state just before the crash (not timed).
  auto before = server.engine->ListTasks(id);
  if (!before.ok()) {
    result.error = "ListTasks before crash: " + before.status().ToString();
    return result;
  }
  std::set<std::string> done_before;
  for (const auto& row : *before) {
    if (row.state == biopera::core::TaskState::kDone) {
      done_before.insert(row.path);
    }
  }

  // --- crash, recovery, second half ------------------------------------------
  t0 = NowNs();
  phase = std::make_unique<Span>(span_run);
  server.engine->Crash();
  log.after_crash = true;
  st = StartServer(dir, fs.get(), &sim, &cluster, &registry, options, &server,
                   &start);
  if (!st.ok()) {
    result.error = "restart: " + st.ToString();
    return result;
  }
  result.recovery_s = start.total_s;
  RunToEnd(&sim, traced, &events);
  phase.reset();
  run_ns += NowNs() - t0;
  result.run_s = Seconds(run_ns);
  result.makespan_h = sim.Now().SinceEpoch().ToSeconds() / 3600.0;

  // --- operator queries ------------------------------------------------------
  QueryTimes queries;
  if (obs) {
    st = RunQueries(*server.engine, *obs, id, &queries);
    if (!st.ok()) result.error = "operator queries: " + st.ToString();
  }
  result.report_s = queries.total_s;

  // --- independent checks ----------------------------------------------------
  auto state = server.engine->GetInstanceState(id);
  auto rows = server.engine->ListTasks(id);
  if (!state.ok() || *state != biopera::core::InstanceState::kDone) {
    result.error = "instance did not end Done";
  }
  if (!rows.ok()) {
    result.error = "ListTasks after run failed";
    return result;
  }
  int screens_done = 0, aligns_done = 0, aligns_skipped = 0;
  int branches_done = 0, branches = 0;
  std::vector<uint8_t> branch_done(kBranches, 0);
  for (const auto& row : *rows) {
    using biopera::core::TaskState;
    const int64_t index = BranchIndex(row.path);
    if (EndsWith(row.path, "/screen")) {
      if (row.state == TaskState::kDone) ++screens_done;
    } else if (EndsWith(row.path, "/align")) {
      if (row.state == TaskState::kDone) {
        ++aligns_done;
        if (index < 0 || !Hit(items[index].rank)) {
          result.error = "align ran on a branch that failed its screen";
        }
      }
      if (row.state == TaskState::kSkipped) ++aligns_skipped;
    } else if (index >= 0 && row.path.find('/') == std::string::npos) {
      ++branches;
      if (row.state == TaskState::kDone && index >= 0 && index < kBranches) {
        ++branches_done;
        branch_done[index] = 1;
      }
    }
  }
  if (screens_done != kBranches || aligns_done != kBranches / 2 ||
      aligns_skipped != kBranches / 2) {
    result.error = "expected " + std::to_string(kBranches) + " screens, " +
                   std::to_string(kBranches / 2) + " aligns done and skipped;"
                   " got " + std::to_string(screens_done) + "/" +
                   std::to_string(aligns_done) + "/" +
                   std::to_string(aligns_skipped);
  }
  if (branches != kBranches || branches_done != kBranches) {
    result.error = "not every branch ended Done";
  }
  // Nothing committed before the crash may run again after it.
  for (const std::string& path : done_before) {
    const int64_t index = BranchIndex(path);
    if (index < 0 || index >= kBranches) continue;
    if ((EndsWith(path, "/screen") && log.screen_after[index] != 0) ||
        (EndsWith(path, "/align") && log.align_after[index] != 0)) {
      result.error = "committed activity re-executed after the crash: " + path;
      break;
    }
  }
  for (int i = 0; i < kBranches; ++i) {
    const bool aligned = log.align_before[i] + log.align_after[i] > 0;
    if (log.screen_before[i] + log.screen_after[i] == 0 ||
        Hit(items[i].rank) != aligned) {
      result.error = "execution log disagrees with the screen predicate";
      break;
    }
  }

  result.tasks = static_cast<uint64_t>(screens_done + aligns_done);
  result.attempted = kBranches;
  result.failed = static_cast<uint64_t>(kBranches - branches_done);
  const uint64_t dispatched =
      CounterValue(obs.get(), "engine_tasks_dispatched_total");
  const uint64_t commits =
      CounterValue(obs.get(), "store_commits_total") - commits_before;
  result.signature["makespan_us"] =
      static_cast<uint64_t>(sim.Now().micros());
  result.signature["sim_events"] = sim.NumExecuted() - events_before;
  result.signature["failed"] = result.failed;
  if (obs) {
    result.signature["dispatches"] = dispatched;
    result.signature["commits"] = commits;
    result.signature["wal_bytes"] =
        CounterValue(obs.get(), "store_wal_bytes_total");
  }

  if (traced) {
    const double tasks = static_cast<double>(result.tasks);
    auto& L = result.layer;
    L["core.scanned_per_dispatch"] =
        dispatched == 0 ? 0
                        : static_cast<double>(CounterValue(
                              obs.get(), "engine_pump_entries_scanned_total")) /
                              static_cast<double>(dispatched);
    L["core.dispatches_per_task"] = static_cast<double>(dispatched) / tasks;
    L["core.recovered_tasks"] = static_cast<double>(
        CounterValue(obs.get(), "engine_recovered_tasks_total"));
    L["store.open_s"] = start.open_s;
    L["store.bytes_read_on_open"] = static_cast<double>(start.bytes_read);
    L["store.wal_bytes_per_task"] =
        static_cast<double>(fs->bytes_written[CountingFs::kWal] - wal_before) /
        tasks;
    L["store.segment_bytes_per_task"] =
        static_cast<double>(fs->bytes_written[CountingFs::kSeg] - seg_before) /
        tasks;
    L["store.syncs_per_task"] =
        static_cast<double>(fs->syncs - syncs_before) / tasks;
    L["store.commits_per_task"] = static_cast<double>(commits) / tasks;
    L["sim.events_per_task"] = static_cast<double>(events) / tasks;
    L["comms.messages_per_task"] =
        static_cast<double>(channel->commands + channel->reports) / tasks;
    L["exec.executions"] = static_cast<double>(activity_stats.TotalCalls());
    L["exec.committed"] = tasks;
    L["exec.useful_ratio"] =
        tasks / static_cast<double>(activity_stats.TotalCalls());
    L["exec.busy_s"] = Seconds(activity_stats.TotalBusyNs());
    L["exec.parallelism"] =
        Seconds(activity_stats.TotalBusyNs()) / result.run_s;
    L["obs.spans_export_s"] = queries.spans_s;
    L["obs.lineage_export_s"] = queries.lineage_s;
    L["obs.report_build_s"] = queries.report_s;
    L["obs.spans"] = static_cast<double>(queries.spans);
    if (events != sim.NumExecuted() - events_before) {
      result.error = "stepped event count disagrees with the simulator";
    }
    AddSpanFigures(config, "run", &result);
  }
  return result;
}

}  // namespace wallbench
