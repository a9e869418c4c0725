// The benchmark's workloads. Each runs one whole round — set up, run,
// operator queries, independent correctness checks — and returns what it
// measured; main.cc repeats rounds for the requested time and reports
// medians.
#ifndef WALLBENCH_WORKLOADS_H_
#define WALLBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "probes.h"
#include "sim/simulator.h"
#include "store/record_store.h"

namespace wallbench {

/// How a round is instrumented.
enum class RoundMode {
  kPlain,     // observability attached, no benchmark probes (end-to-end)
  kTraced,    // plus every probe and span (per-layer)
  kDetached,  // no observability context at all (obs.overhead_s)
};

struct RoundConfig {
  uint64_t seed = 1;
  RoundMode mode = RoundMode::kPlain;
  /// Directory the round's stores live in; created and removed by main.
  std::string work_dir;
  /// Tracer of traced rounds (null otherwise).
  Tracer* tracer = nullptr;
  uint32_t round = 0;
};

struct RoundResult {
  /// Empty when every correctness check passed.
  std::string error;
  /// Phase wall times.
  double setup_s = 0;
  double run_s = 0;
  double recovery_s = 0;
  double report_s = 0;
  /// Work done in the run phase.
  uint64_t tasks = 0;       // activities completed
  uint64_t attempted = 0;   // the workload's operations
  uint64_t failed = 0;
  double makespan_h = 0;    // virtual time to solution
  /// Deterministic work counts that same-seed rounds must reproduce
  /// exactly: makespan, dispatches, commits, bytes, events, failures.
  std::map<std::string, uint64_t> signature;
  /// Per-layer figures (traced rounds fill them all).
  std::map<std::string, double> layer;
};

RoundResult RunFanoutCrash(const RoundConfig& config);
RoundResult RunFrontDoorRestart(const RoundConfig& config);
RoundResult RunAllVsAllReal(const RoundConfig& config);

/// Whether `workload` can run with observability detached.
bool SupportsDetached(const std::string& workload);

/// Every per-layer metric the traced run reports, with its unit.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// Advances virtual time to `t`. Traced rounds drive Simulator::Step
/// themselves and count the events; the event order is RunUntil's.
void AdvanceTo(biopera::Simulator* sim, biopera::TimePoint t, bool step,
               uint64_t* events);
/// Runs until no regular event is left, like Simulator::Run.
void RunToEnd(biopera::Simulator* sim, bool step, uint64_t* events);

/// CPUs this process may run on (nproc). Workloads use at most this many
/// threads.
size_t AvailableCpus();

/// A single-engine server: the store handle and engine a crash drops.
/// The simulator and cluster outlive it.
struct Server {
  std::unique_ptr<biopera::RecordStore> store;
  std::unique_ptr<biopera::core::Engine> engine;
};

/// Timings of one server start: store open plus Engine::Startup.
struct StartTimes {
  double open_s = 0;
  double startup_s = 0;
  double total_s = 0;
  uint64_t bytes_read = 0;  // through `fs`, when one is given
};

/// Drops `server`'s engine and store, if any, then opens the store in
/// `dir` (through `fs` when not null) and starts a new engine on it.
biopera::Status StartServer(const std::string& dir, CountingFs* fs,
                            biopera::Simulator* sim,
                            biopera::cluster::ClusterSim* cluster,
                            biopera::core::ActivityRegistry* registry,
                            const biopera::core::EngineOptions& options,
                            Server* server, StartTimes* times);

/// Timings of the operator's end-of-run queries on one instance.
struct QueryTimes {
  double spans_s = 0;    // span JSONL export
  double lineage_s = 0;  // lineage JSONL export
  double report_s = 0;   // run report
  double total_s = 0;
  size_t spans = 0;      // spans exported
};

/// Runs the operator's queries on instance `id` — span export, lineage
/// export, run report — under a "report" root span.
biopera::Status RunQueries(const biopera::core::Engine& engine,
                           const biopera::obs::Observability& obs,
                           const std::string& id, QueryTimes* times);

/// A counter of `obs`'s registry (0 when observability is detached).
uint64_t CounterValue(biopera::obs::Observability* obs, const char* name);

/// Fills the traced round's span-derived figures (core.self_s, busy
/// times, tiling) from the tracer, using `phase` as the run root.
void AddSpanFigures(const RoundConfig& config, const std::string& phase,
                    RoundResult* result);

}  // namespace wallbench

#endif  // WALLBENCH_WORKLOADS_H_
