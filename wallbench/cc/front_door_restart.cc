// front_door_restart: a 2-shard ShardedService with 4 tenants and a
// per-tenant live quota. A burst of kFirstWave submissions builds a
// backlog that the front door drains at barriers; at a fixed virtual
// time, with the backlog still non-empty, the service is destroyed and
// reopened on the same directory, a second wave is submitted, and the
// fleet runs until quiescent. Admission, backlog drain, lockstep
// barriers and the liveness poll do the work; the kernels do nothing.
//
// The first wave does not depend on the seed, so the tickets lost with
// the in-memory backlog at the restart — and the global ids the reopened
// service issues again — are the same on every run. They are counted as
// failed operations (see README.md).
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ocr/builder.h"
#include "service/service.h"
#include "workloads.h"

namespace wallbench {
namespace {

using biopera::Duration;
using biopera::TimePoint;
using biopera::core::ActivityInput;
using biopera::core::ActivityOutput;
using biopera::ocr::Value;
using biopera::service::ShardedService;

constexpr int kShards = 2;
constexpr int kTenants = 4;
constexpr int kFirstWave = 6000;
constexpr int kSecondWave = 2000;
constexpr size_t kLivePerTenant = 48;
/// Virtual time of the restart, with about a third of the first wave
/// still backlogged.
constexpr double kRestartHours = 300;

biopera::ocr::ProcessDef JobProcess() {
  using biopera::ocr::ProcessBuilder;
  using biopera::ocr::TaskBuilder;
  auto def = ProcessBuilder("fd_job")
                 .Data("payload")
                 .Data("prep_s")
                 .Data("run_s")
                 .Task(TaskBuilder::Activity("prepare", "fd.prepare")
                           .Input("wb.prep_s", "in.cost_s"))
                 .Task(TaskBuilder::Activity("run", "fd.run")
                           .Input("wb.payload", "in.payload")
                           .Input("wb.run_s", "in.cost_s")
                           .Output("out.result", "wb.result"))
                 .Connect("prepare", "run")
                 .Build();
  if (!def.ok()) std::abort();
  return std::move(*def);
}

void RegisterActivities(biopera::core::ActivityRegistry* registry) {
  (void)registry->Register(
      "fd.prepare",
      [](const ActivityInput& in) -> biopera::Result<ActivityOutput> {
        ActivityOutput out;
        out.cost = Duration::Seconds(in.Get("cost_s").AsDouble());
        return out;
      });
  (void)registry->Register(
      "fd.run",
      [](const ActivityInput& in) -> biopera::Result<ActivityOutput> {
        ActivityOutput out;
        out.fields["result"] = Value(in.Get("payload").AsInt() * 2);
        out.cost = Duration::Seconds(in.Get("cost_s").AsDouble());
        return out;
      });
}

/// The service's own seed is fixed configuration: the benchmark seed only
/// shapes the submitted inputs.
biopera::service::ServiceOptions Options() {
  biopera::service::ServiceOptions options;
  options.shards = kShards;
  options.barrier_quantum = Duration::Minutes(30);
  options.max_live_per_tenant = kLivePerTenant;
  options.max_backlog = kFirstWave + kSecondWave;
  options.barrier_profile_records = size_t{1} << 20;
  options.configure_cluster = [](int index,
                                 biopera::cluster::ClusterSim* cluster) {
    for (int n = 0; n < 2; ++n) {
      (void)cluster->AddNode({.name = biopera::StrFormat("s%d-n%d", index, n),
                              .num_cpus = 4,
                              .speed = 1.0});
    }
  };
  return options;
}

/// One front-door submission as the benchmark's ledger remembers it.
struct TicketRec {
  std::string global_id;
  int64_t payload = 0;
};

biopera::service::Submission MakeSubmission(int tenant, int64_t payload,
                                            double prep_s, double run_s) {
  biopera::service::Submission sub;
  sub.tenant = biopera::StrFormat("t%d", tenant);
  sub.template_name = "fd_job";
  sub.args["payload"] = Value(payload);
  sub.args["prep_s"] = Value(prep_s);
  sub.args["run_s"] = Value(run_s);
  return sub;
}

/// The shards' step wall time summed over the barriers, from the
/// service's barrier-stall profiler.
uint64_t ShardStepNs(const ShardedService& service) {
  uint64_t ns = 0;
  const auto* profiler = service.barrier_profiler();
  if (profiler == nullptr) return ns;
  for (const auto& record : profiler->records()) {
    for (const auto& shard : record.shards) ns += shard.step_ns;
  }
  return ns;
}

/// Deterministic work counts of one service generation.
struct FleetCounts {
  uint64_t dispatches = 0;
  uint64_t commits = 0;
  uint64_t wal_bytes = 0;
  uint64_t events = 0;
  uint64_t scanned = 0;
};

void AddCounts(ShardedService* service, FleetCounts* counts) {
  for (int s = 0; s < service->hosted_shards(); ++s) {
    auto* shard = service->shard(s);
    counts->dispatches +=
        CounterValue(&shard->obs, "engine_tasks_dispatched_total");
    counts->commits += CounterValue(&shard->obs, "store_commits_total");
    counts->wal_bytes += CounterValue(&shard->obs, "store_wal_bytes_total");
    counts->scanned +=
        CounterValue(&shard->obs, "engine_pump_entries_scanned_total");
    counts->events += shard->sim.NumExecuted();
  }
}

}  // namespace

RoundResult RunFrontDoorRestart(const RoundConfig& config) {
  RoundResult result;
  const bool traced = config.mode == RoundMode::kTraced;
  const uint32_t span_setup = SpanName("setup", Layer::kCore);
  const uint32_t span_run = SpanName("run", Layer::kCore);
  const uint32_t span_report = SpanName("report", Layer::kCore);
  const uint32_t span_submit = SpanName("service.submit", Layer::kService);
  const uint32_t span_barrier =
      SpanName("service.step_barrier", Layer::kService);
  const uint32_t span_startup = SpanName("service.startup", Layer::kService);
  const uint32_t span_close = SpanName("service.close", Layer::kService);
  const uint32_t span_spans = SpanName("obs.spans_export", Layer::kObs);
  const uint32_t span_report_build =
      SpanName("obs.report_build", Layer::kObs);

  // --- set-up ----------------------------------------------------------------
  uint64_t t0 = NowNs();
  auto phase = std::make_unique<Span>(span_setup);
  // The client thread steps both shards itself: with a pool, every
  // barrier would hand a millisecond of work to another thread and wait
  // for it, so the figures would measure the host's scheduler.
  biopera::core::ActivityRegistry registry;
  RegisterActivities(&registry);
  ActivityStats activity_stats;
  if (traced) {
    WrapActivities(&registry, {"fd.prepare", "fd.run"}, &activity_stats);
  }
  const std::string dir = config.work_dir + "/fleet";
  auto service = std::make_unique<ShardedService>(dir, &registry,
                                                  Options());
  biopera::Status st = service->Startup();
  if (st.ok()) st = service->RegisterTemplate(JobProcess());
  if (!st.ok()) {
    result.error = "service set-up: " + st.ToString();
    return result;
  }
  // First wave: fixed inputs, round-robin tenants. Second wave: seeded.
  std::vector<biopera::service::Submission> first, second;
  first.reserve(kFirstWave);
  for (int i = 0; i < kFirstWave; ++i) {
    first.push_back(MakeSubmission(i % kTenants, i, 600 + (i * 37) % 1200,
                                   1800 + (i * 101) % 3600));
  }
  biopera::Rng rng(config.seed * 0x9e3779b97f4a7c15ull + 29);
  second.reserve(kSecondWave);
  for (int i = 0; i < kSecondWave; ++i) {
    const int tenant = static_cast<int>(rng.NextUint64(kTenants));
    const double prep = static_cast<double>(rng.UniformInt(600, 1800));
    const double run = static_cast<double>(rng.UniformInt(1800, 5400));
    second.push_back(MakeSubmission(tenant, 1000000 + i, prep, run));
  }
  phase.reset();
  result.setup_s = Seconds(NowNs() - t0);

  // --- run: burst, drain, restart, second wave, quiescence -------------------
  std::vector<TicketRec> ledger;
  ledger.reserve(kFirstWave + kSecondWave);
  std::vector<double> submit_us, barrier_ms;
  uint64_t barrier_ns = 0, shard_step_ns = 0;
  uint64_t startup_ns = 0;
  FleetCounts counts;
  auto submit_all = [&](const std::vector<biopera::service::Submission>& wave) {
    for (const auto& sub : wave) {
      const uint64_t s0 = NowNs();
      biopera::Result<biopera::service::Ticket> ticket = [&] {
        Span span(span_submit);
        return service->Submit(sub);
      }();
      submit_us.push_back(static_cast<double>(NowNs() - s0) / 1e3);
      TicketRec rec;
      rec.payload = sub.args.at("payload").AsInt();
      if (ticket.ok()) rec.global_id = ticket->global_id;
      ledger.push_back(std::move(rec));
    }
  };
  auto step = [&]() {
    const uint64_t b0 = NowNs();
    bool more;
    {
      Span span(span_barrier);
      more = service->StepBarrier();
    }
    const uint64_t ns = NowNs() - b0;
    barrier_ns += ns;
    barrier_ms.push_back(static_cast<double>(ns) / 1e6);
    return more;
  };

  t0 = NowNs();
  phase = std::make_unique<Span>(span_run);
  submit_all(first);
  const TimePoint restart_at =
      TimePoint::Zero() + Duration::Hours(kRestartHours);
  while (service->VirtualNow() < restart_at && step()) {
  }
  const TimePoint first_end = service->VirtualNow();
  const size_t backlog_at_restart = service->GetStats().backlog_depth;
  shard_step_ns += ShardStepNs(*service);
  AddCounts(service.get(), &counts);
  {
    Span span(span_close);
    service.reset();
  }
  const uint64_t r0 = NowNs();
  service = std::make_unique<ShardedService>(dir, &registry,
                                             Options());
  {
    Span span(span_startup);
    const uint64_t u0 = NowNs();
    st = service->Startup();
    startup_ns = NowNs() - u0;
  }
  if (!st.ok()) {
    result.error = "service restart: " + st.ToString();
    return result;
  }
  result.recovery_s = Seconds(NowNs() - r0);
  submit_all(second);
  while (step()) {
  }
  phase.reset();
  result.run_s = Seconds(NowNs() - t0);
  shard_step_ns += ShardStepNs(*service);
  AddCounts(service.get(), &counts);
  // Each generation's shard simulators start at virtual time zero.
  const TimePoint second_end = service->VirtualNow();
  result.makespan_h = (first_end.SinceEpoch().ToHours() +
                       second_end.SinceEpoch().ToHours());

  // --- operator queries: federated spans and FLEETREPORT ---------------------
  t0 = NowNs();
  phase = std::make_unique<Span>(span_report);
  uint64_t q0 = NowNs();
  size_t exported_spans = 0;
  {
    Span span(span_spans);
    std::string spans = service->ExportFleetSpans();
    exported_spans = static_cast<size_t>(
        std::count(spans.begin(), spans.end(), '\n'));
  }
  const uint64_t spans_ns = NowNs() - q0;
  q0 = NowNs();
  {
    Span span(span_report_build);
    std::string report = service->BuildFleetReport();
    if (report.empty()) result.error = "empty fleet report";
  }
  const uint64_t report_ns = NowNs() - q0;
  phase.reset();
  result.report_s = Seconds(NowNs() - t0);

  // --- ticket ledger ---------------------------------------------------------
  // Each ticket must resolve to one Done instance, under a global id no
  // other ticket holds, carrying that ticket's own result.
  std::map<std::string, int> holders;
  for (const TicketRec& rec : ledger) {
    if (!rec.global_id.empty()) ++holders[rec.global_id];
  }
  uint64_t failed = 0, failed_first_wave = 0;
  for (size_t t = 0; t < ledger.size(); ++t) {
    const TicketRec& rec = ledger[t];
    bool ok = !rec.global_id.empty() && holders[rec.global_id] == 1;
    if (ok) {
      auto state = service->GetState(rec.global_id);
      auto value = service->GetWhiteboardValue(rec.global_id, "result");
      ok = state.ok() && *state == biopera::core::InstanceState::kDone &&
           value.ok() && value->is_int() && value->AsInt() == rec.payload * 2;
    }
    if (!ok) {
      ++failed;
      if (t < first.size()) ++failed_first_wave;
    }
  }
  if (backlog_at_restart == 0) {
    result.error = "the backlog was empty at the restart";
  }
  uint64_t done_instances = 0;
  for (int s = 0; s < service->hosted_shards(); ++s) {
    for (const auto& info : service->shard(s)->engine->ListInstances()) {
      if (info.state != biopera::core::InstanceState::kDone) {
        result.error = "an admitted instance did not end Done";
      } else {
        ++done_instances;
      }
    }
  }
  result.tasks = 2 * done_instances;
  result.attempted = ledger.size();
  result.failed = failed;
  result.signature["makespan_us"] =
      static_cast<uint64_t>(first_end.micros() + second_end.micros());
  result.signature["dispatches"] = counts.dispatches;
  result.signature["commits"] = counts.commits;
  result.signature["wal_bytes"] = counts.wal_bytes;
  result.signature["sim_events"] = counts.events;
  result.signature["failed"] = failed;
  result.signature["backlog_at_restart"] = backlog_at_restart;
  result.signature["failed_first_wave"] = failed_first_wave;

  if (traced) {
    const double tasks = static_cast<double>(result.tasks);
    auto& L = result.layer;
    L["service.submit_p50_us"] = Percentile(submit_us, 50);
    L["service.submit_p99_us"] = Percentile(submit_us, 99);
    L["service.barriers"] = static_cast<double>(barrier_ms.size());
    L["service.barrier_p50_ms"] = Percentile(barrier_ms, 50);
    L["service.barrier_p99_ms"] = Percentile(barrier_ms, 99);
    L["service.shard_step_s"] = Seconds(shard_step_ns);
    // The client thread steps the shards one after the other, so the
    // front door's own share is what the steps leave of each barrier.
    L["service.frontdoor_self_s"] =
        Seconds(barrier_ns - std::min(barrier_ns, shard_step_ns));
    L["core.dispatches_per_task"] =
        static_cast<double>(counts.dispatches) / tasks;
    L["core.scanned_per_dispatch"] =
        static_cast<double>(counts.scanned) /
        static_cast<double>(std::max<uint64_t>(1, counts.dispatches));
    L["store.commits_per_task"] = static_cast<double>(counts.commits) / tasks;
    L["store.wal_bytes_per_task"] =
        static_cast<double>(counts.wal_bytes) / tasks;
    L["sim.events_per_task"] = static_cast<double>(counts.events) / tasks;
    L["exec.executions"] = static_cast<double>(activity_stats.TotalCalls());
    L["exec.committed"] = tasks;
    L["exec.useful_ratio"] =
        tasks / static_cast<double>(activity_stats.TotalCalls());
    L["exec.busy_s"] = Seconds(activity_stats.TotalBusyNs());
    L["obs.spans_export_s"] = Seconds(spans_ns);
    L["obs.report_build_s"] = Seconds(report_ns);
    L["obs.spans"] = static_cast<double>(exported_spans);
    AddSpanFigures(config, "run", &result);
    L["service.startup_s"] = Seconds(startup_ns);
  }
  return result;
}

}  // namespace wallbench
