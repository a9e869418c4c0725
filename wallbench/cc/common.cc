#include <sched.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/report.h"
#include "workloads.h"

namespace wallbench {

void AdvanceTo(biopera::Simulator* sim, biopera::TimePoint t, bool step,
               uint64_t* events) {
  if (step) {
    biopera::TimePoint next;
    while (sim->NextEventTime(&next) && next <= t) {
      sim->Step();
      ++*events;
    }
  }
  sim->RunUntil(t);
}

void RunToEnd(biopera::Simulator* sim, bool step, uint64_t* events) {
  if (!step) {
    sim->Run();
    return;
  }
  while (sim->NumPendingRegular() > 0 && sim->Step()) ++*events;
}

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

uint64_t CounterValue(biopera::obs::Observability* obs, const char* name) {
  return obs == nullptr ? 0 : obs->metrics.GetCounter(name)->value();
}

biopera::Status StartServer(const std::string& dir, CountingFs* fs,
                            biopera::Simulator* sim,
                            biopera::cluster::ClusterSim* cluster,
                            biopera::core::ActivityRegistry* registry,
                            const biopera::core::EngineOptions& options,
                            Server* server, StartTimes* times) {
  const uint32_t span_open = SpanName("store.open", Layer::kStore);
  const uint32_t span_startup = SpanName("core.startup", Layer::kCore);
  server->engine.reset();
  server->store.reset();
  const uint64_t read_before = fs != nullptr ? fs->bytes_read.load() : 0;
  const uint64_t t0 = NowNs();
  auto opened = [&] {
    Span span(span_open);
    return biopera::RecordStore::Open(dir, fs);
  }();
  if (!opened.ok()) return opened.status();
  server->store = std::move(*opened);
  const uint64_t t1 = NowNs();
  server->engine = std::make_unique<biopera::core::Engine>(
      sim, cluster, server->store.get(), registry, options);
  const uint64_t t2 = NowNs();
  const biopera::Status st = [&] {
    Span span(span_startup);
    return server->engine->Startup();
  }();
  const uint64_t t3 = NowNs();
  times->open_s = Seconds(t1 - t0);
  times->startup_s = Seconds(t3 - t2);
  times->total_s = Seconds(t3 - t0);
  times->bytes_read =
      fs != nullptr ? fs->bytes_read.load() - read_before : 0;
  return st;
}

biopera::Status RunQueries(const biopera::core::Engine& engine,
                           const biopera::obs::Observability& obs,
                           const std::string& id, QueryTimes* times) {
  const uint32_t span_report = SpanName("report", Layer::kCore);
  const uint32_t span_spans = SpanName("obs.spans_export", Layer::kObs);
  const uint32_t span_lineage = SpanName("obs.lineage_export", Layer::kObs);
  const uint32_t span_build = SpanName("obs.report_build", Layer::kObs);
  Span phase(span_report);
  const uint64_t t0 = NowNs();
  {
    Span span(span_spans);
    const std::string spans = obs.spans.ExportJsonl();
    times->spans = obs.spans.size();
  }
  const uint64_t t1 = NowNs();
  auto lineage = [&] {
    Span span(span_lineage);
    return engine.ExportLineageJsonl(id);
  }();
  const uint64_t t2 = NowNs();
  std::string report;
  auto summary = engine.Summary(id);
  {
    Span span(span_build);
    if (summary.ok()) {
      biopera::obs::ReportInput input;
      input.instance = id;
      input.state =
          std::string(biopera::core::InstanceStateName(summary->state));
      input.activities_done = summary->tasks_done;
      input.activities_total = summary->tasks_total;
      input.now = obs.spans.Now();
      report = biopera::obs::BuildRunReport(input, obs);
    }
  }
  const uint64_t t3 = NowNs();
  times->spans_s = Seconds(t1 - t0);
  times->lineage_s = Seconds(t2 - t1);
  times->report_s = Seconds(t3 - t2);
  times->total_s = Seconds(t3 - t0);
  if (!lineage.ok()) return lineage.status();
  if (!summary.ok()) return summary.status();
  if (report.empty()) return biopera::Status::Internal("empty run report");
  return biopera::Status::OK();
}

bool SupportsDetached(const std::string& workload) {
  // The sharded service always builds its own observability contexts.
  return workload != "front_door_restart";
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.start_process_s", "s"},
      {"core.startup_s", "s"},
      {"core.self_s", "s"},
      {"core.scanned_per_dispatch", "entries/dispatch"},
      {"core.dispatches_per_task", "1/task"},
      {"core.recovered_tasks", "count"},
      {"store.fs_busy_s", "s"},
      {"store.open_s", "s"},
      {"store.bytes_read_on_open", "bytes"},
      {"store.wal_bytes_per_task", "bytes/task"},
      {"store.segment_bytes_per_task", "bytes/task"},
      {"store.syncs_per_task", "1/task"},
      {"store.commits_per_task", "1/task"},
      {"sim.events_per_task", "1/task"},
      {"comms.messages_per_task", "1/task"},
      {"comms.self_s", "s"},
      {"darwin.fixed_pam_busy_s", "s"},
      {"darwin.refine_busy_s", "s"},
      {"darwin.cells_per_s", "cells/s"},
      {"darwin.rescored_pairs", "count"},
      {"exec.busy_s", "s"},
      {"exec.parallelism", "ratio"},
      {"exec.useful_ratio", "ratio"},
      {"exec.executions", "count"},
      {"exec.committed", "count"},
      {"service.submit_p50_us", "us"},
      {"service.submit_p99_us", "us"},
      {"service.barriers", "count"},
      {"service.barrier_p50_ms", "ms"},
      {"service.barrier_p99_ms", "ms"},
      {"service.shard_step_s", "s"},
      {"service.frontdoor_self_s", "s"},
      {"service.startup_s", "s"},
      {"obs.spans_export_s", "s"},
      {"obs.lineage_export_s", "s"},
      {"obs.report_build_s", "s"},
      {"obs.spans", "count"},
      {"obs.overhead_s", "s"},
      {"bench.trace_overhead_s", "s"},
  };
  return kMetrics;
}

void AddSpanFigures(const RoundConfig& config, const std::string& phase,
                    RoundResult* result) {
  if (config.tracer == nullptr) return;
  const std::vector<SpanRecord> spans = config.tracer->Spans();
  const SpanBreakdown b =
      BreakDown(spans, *config.tracer, config.round, phase);
  // The timed parts plus core.self_s tile the run's wall time exactly.
  if (!b.tiles) {
    result->error = "run spans do not tile the run's wall time";
  }
  auto total = [&](const std::string& name) {
    auto it = b.total_ns.find(name);
    return it == b.total_ns.end() ? 0.0 : Seconds(it->second);
  };
  auto& L = result->layer;
  L["core.self_s"] = Seconds(b.main_self_ns[static_cast<int>(Layer::kCore)]);
  L["comms.self_s"] = 0;
  L["store.fs_busy_s"] = 0;
  for (const auto& [name, ns] : b.total_ns) {
    if (name.rfind("fs.", 0) == 0) L["store.fs_busy_s"] += Seconds(ns);
  }
  // Channel self time: the send spans minus the handler spans they hold.
  L["comms.self_s"] = total("comms.command") + total("comms.report") -
                      total("cluster.handle_command") -
                      total("core.handle_report");
  L["core.start_process_s"] = total("core.start_process");
  L["core.startup_s"] = total("core.startup");
  L["service.startup_s"] = total("service.startup");
}

}  // namespace wallbench
