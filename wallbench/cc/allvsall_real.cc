// allvsall_real: the Fig. 3 all-vs-all in real-computation mode over
// kSequences seeded synthetic Swiss-Prot-like sequences and kTeus TEUs,
// with the engine's executor pool at nproc-1 workers. The SIMD screening
// kernel, exact re-scoring, PAM refinement and the pool do the work; the
// navigator does almost none. After the run the server restarts on the
// finished store (recovery_s) and the results are read back from it.
//
// Correctness is checked against a plain Gotoh Smith-Waterman written
// here; the program's PAM matrices serve only as input data.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "darwin/generator.h"
#include "darwin/match.h"
#include "darwin/pam.h"
#include "exec/thread_pool.h"
#include "workloads.h"
#include "workloads/allvsall.h"

namespace wallbench {
namespace {

using biopera::Simulator;
using biopera::darwin::Match;
using biopera::darwin::ScoringMatrix;
using biopera::darwin::Sequence;
using biopera::ocr::Value;

constexpr size_t kSequences = 300;
/// Families of a root and kFamilySize - 1 mutated members; the rest of the
/// dataset are unrelated singletons.
constexpr size_t kFamilies = 45;
constexpr size_t kFamilySize = 4;
constexpr int kMemberPam[kFamilySize - 1] = {40, 100, 160};
constexpr int kTeus = 16;
constexpr int kNodes = 4;
constexpr int kCpusPerNode = 4;
constexpr double kThreshold = 80;
constexpr int kFixedPam = 250;
/// Server restarts (and operator query sets) timed per round.
constexpr int kRestarts = 25;
/// Unreported pairs re-scored per round.
constexpr int kNegativeSample = 200;
constexpr double kGapOpen = 18.0;
constexpr double kGapExtend = 1.5;

/// Reference local alignment score (Gotoh, affine gaps: a gap of length L
/// costs open + extend * (L - 1)) in O(n * m) time.
double ReferenceScore(const Sequence& a, const Sequence& b,
                      const ScoringMatrix& matrix) {
  const size_t n = a.length(), m = b.length();
  std::vector<double> h_prev(m + 1, 0), h_cur(m + 1, 0);
  std::vector<double> e_prev(m + 1, -1e300), e_cur(m + 1, -1e300);
  double best = 0;
  for (size_t i = 1; i <= n; ++i) {
    double f = -1e300;
    h_cur[0] = 0;
    for (size_t j = 1; j <= m; ++j) {
      // E: gap in `b` (consumes a[i]) — comes from the row above.
      e_cur[j] = std::max(h_prev[j] - kGapOpen, e_prev[j] - kGapExtend);
      // F: gap in `a` (consumes b[j]) — comes from the left.
      f = std::max(h_cur[j - 1] - kGapOpen, f - kGapExtend);
      const double diag = h_prev[j - 1] + matrix.score[a[i - 1]][b[j - 1]];
      const double h = std::max({0.0, diag, e_cur[j], f});
      h_cur[j] = h;
      best = std::max(best, h);
    }
    std::swap(h_prev, h_cur);
    std::swap(e_prev, e_cur);
  }
  return best;
}

/// Lengths of the dataset's families and singletons. The multiset comes
/// from a constant stream (Swiss-Prot-like gamma lengths, mean 360), so
/// every seed aligns the same number of cells; the seed decides which
/// sequence gets which length and draws every residue.
std::vector<size_t> FixedLengths(size_t n) {
  biopera::Rng rng(2001);
  std::vector<size_t> lengths;
  while (lengths.size() < n) {
    const double len = rng.Gamma(2.6, 360.0 / 2.6);
    if (len >= 40 && len <= 1500) lengths.push_back(static_cast<size_t>(len));
  }
  return lengths;
}

Sequence RandomSequence(size_t index, size_t length, biopera::Rng* rng) {
  const auto& background = biopera::darwin::BackgroundFrequencies();
  const std::vector<double> weights(background.begin(), background.end());
  std::vector<uint8_t> residues(length);
  for (uint8_t& r : residues) r = static_cast<uint8_t>(rng->Discrete(weights));
  return Sequence("SEQ" + std::to_string(index), std::move(residues));
}

template <typename T>
void Shuffle(std::vector<T>* v, biopera::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextUint64(i)]);
  }
}

/// The seeded dataset: kFamilies families (a random root plus members
/// mutated from it at fixed PAM distances) and unrelated singletons, in
/// seeded order.
biopera::darwin::Dataset MakeDataset(uint64_t seed,
                                     const biopera::darwin::PamFamily& pam) {
  const size_t singletons = kSequences - kFamilies * kFamilySize;
  // Family lengths count kFamilySize times, so the two groups are
  // shuffled separately: the total of aligned cells stays fixed.
  std::vector<size_t> lengths = FixedLengths(kFamilies + singletons);
  std::vector<size_t> family_lengths(lengths.begin(),
                                     lengths.begin() + kFamilies);
  std::vector<size_t> singleton_lengths(lengths.begin() + kFamilies,
                                        lengths.end());
  biopera::Rng rng(seed * 0x9e3779b97f4a7c15ull + 47);
  Shuffle(&family_lengths, &rng);
  Shuffle(&singleton_lengths, &rng);
  std::vector<Sequence> sequences;
  for (size_t f = 0; f < kFamilies; ++f) {
    Sequence root =
        RandomSequence(sequences.size(), family_lengths[f], &rng);
    for (int member_pam : kMemberPam) {
      Sequence member =
          biopera::darwin::MutateSequence(root, member_pam, pam, &rng);
      sequences.emplace_back("SEQ" + std::to_string(sequences.size() + 1),
                             std::vector<uint8_t>(member.residues()));
    }
    sequences.push_back(std::move(root));
  }
  for (size_t k = 0; k < singletons; ++k) {
    sequences.push_back(
        RandomSequence(sequences.size(), singleton_lengths[k], &rng));
  }
  Shuffle(&sequences, &rng);
  biopera::darwin::Dataset dataset;
  for (Sequence& seq : sequences) dataset.Add(std::move(seq));
  return dataset;
}

/// Refinement scores each PAM distance with the quantized SIMD kernel, so
/// a refined score may differ from the exact one by the quantization of
/// each aligned pair's matrix entry (gap costs quantize exactly), plus
/// the 4-decimal rounding of the match file.
bool WithinRefinementError(double reference, double reported, size_t len_a,
                           size_t len_b, int pam_distance) {
  const double entry_error = biopera::darwin::SharedPamFamily()
                                 .QuantizedScoring(pam_distance)
                                 .max_entry_error;
  const double bound =
      static_cast<double>(std::min(len_a, len_b)) * entry_error + 5e-5;
  return std::fabs(reference - reported) <= bound + 1e-9;
}

/// Sums a numeric provenance parameter over completed attempts of
/// `binding` in the instance's lineage.
uint64_t SumParam(const std::vector<biopera::obs::LineageRecord>& records,
                  const std::string& binding, const std::string& key) {
  uint64_t total = 0;
  for (const auto& rec : records) {
    if (rec.binding != binding || rec.outcome != "completed") continue;
    for (const auto& [k, v] : rec.params) {
      if (k == key) total += std::strtoull(v.c_str(), nullptr, 10);
    }
  }
  return total;
}

}  // namespace

RoundResult RunAllVsAllReal(const RoundConfig& config) {
  RoundResult result;
  const bool traced = config.mode == RoundMode::kTraced;
  const uint32_t span_setup = SpanName("setup", Layer::kCore);
  const uint32_t span_run = SpanName("run", Layer::kCore);
  const uint32_t span_start = SpanName("core.start_process", Layer::kCore);
  const biopera::darwin::PamFamily& pam = biopera::darwin::SharedPamFamily();

  // --- set-up: dataset, world, engine up -------------------------------------
  uint64_t t0 = NowNs();
  auto phase = std::make_unique<Span>(span_setup);
  const biopera::darwin::Dataset dataset = MakeDataset(config.seed, pam);
  auto context =
      biopera::workloads::MakeRealContext(&dataset, &pam, kThreshold);
  // Virtual TEU costs follow the cost model without the synthetic-mode
  // runtime noise, so the virtual makespan moves with the seeded input
  // only as far as the partition does.
  context->per_entry_noise_sigma = 0;
  // nproc-1 pool workers plus the client thread; inline on one CPU.
  const size_t workers = AvailableCpus() - 1;
  std::unique_ptr<biopera::exec::ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<biopera::exec::ThreadPool>(workers);
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
  biopera::Status st =
      biopera::workloads::RegisterAllVsAllActivities(&registry, context);
  if (traced) {
    WrapActivities(&registry,
                   {"avsa.user_input", "avsa.queue_gen", "avsa.preprocess",
                    "darwin.fixed_pam", "darwin.refine", "avsa.merge_entry",
                    "avsa.merge_pam"},
                   &activity_stats);
  }
  biopera::core::EngineOptions options;
  options.observability = obs.get();
  options.channel = channel.get();
  options.executor = pool.get();
  Server server;
  StartTimes start;
  if (st.ok()) {
    st = StartServer(dir, fs.get(), &sim, &cluster, &registry, options,
                     &server, &start);
  }
  if (st.ok()) {
    st = server.engine->RegisterTemplate(
        biopera::workloads::BuildAllVsAllProcess());
  }
  if (st.ok()) {
    st = server.engine->RegisterTemplate(
        biopera::workloads::BuildAlignPartitionProcess());
  }
  if (!st.ok()) {
    result.error = "engine set-up: " + st.ToString();
    return result;
  }
  Value::Map args;
  args["db_name"] = Value("wallbench");
  args["num_teus"] = Value(kTeus);
  phase.reset();
  result.setup_s = Seconds(NowNs() - t0);

  // --- run -------------------------------------------------------------------
  uint64_t events = 0;
  const uint64_t events_before = sim.NumExecuted();
  t0 = NowNs();
  phase = std::make_unique<Span>(span_run);
  std::string id;
  {
    Span span(span_start);
    auto started = server.engine->StartProcess("all_vs_all", args);
    if (!started.ok()) {
      result.error = "start: " + started.status().ToString();
      return result;
    }
    id = *started;
  }
  RunToEnd(&sim, traced, &events);
  phase.reset();
  result.run_s = Seconds(NowNs() - t0);
  result.makespan_h = sim.Now().SinceEpoch().ToHours();
  auto summary = server.engine->Summary(id);
  if (!summary.ok() || summary->state != biopera::core::InstanceState::kDone) {
    result.error = "all-vs-all did not end Done";
    return result;
  }
  result.tasks = summary->stats.activities_completed;
  const uint64_t dispatched =
      CounterValue(obs.get(), "engine_tasks_dispatched_total");
  const uint64_t commits = CounterValue(obs.get(), "store_commits_total");
  const uint64_t wal_bytes = CounterValue(obs.get(), "store_wal_bytes_total");

  // --- restarts on the finished store, then the operator's queries -----------
  // Both take about a millisecond on this small store, so each is repeated
  // kRestarts times and reported as the median.
  std::vector<double> restarts, opens, startups, reports, spans_s, lineage_s,
      report_build_s;
  uint64_t bytes_read_on_open = 0;
  for (int k = 0; k < kRestarts; ++k) {
    st = StartServer(dir, fs.get(), &sim, &cluster, &registry, options,
                     &server, &start);
    if (!st.ok()) {
      result.error = "restart: " + st.ToString();
      return result;
    }
    restarts.push_back(start.total_s);
    opens.push_back(start.open_s);
    startups.push_back(start.startup_s);
    bytes_read_on_open = start.bytes_read;
  }
  result.recovery_s = Median(restarts);
  QueryTimes queries;
  for (int k = 0; k < kRestarts && obs; ++k) {
    st = RunQueries(*server.engine, *obs, id, &queries);
    if (!st.ok()) result.error = "operator queries: " + st.ToString();
    reports.push_back(queries.total_s);
    spans_s.push_back(queries.spans_s);
    lineage_s.push_back(queries.lineage_s);
    report_build_s.push_back(queries.report_s);
  }
  result.report_s = Median(reports);

  // --- independent checks, on the results read back after the restart --------
  auto master = server.engine->GetWhiteboardValue(id, "master_file");
  auto count = server.engine->GetWhiteboardValue(id, "total_matches");
  if (!master.ok() || !master->is_string() || !count.ok() || !count->is_int()) {
    result.error = "results missing after the restart";
    return result;
  }
  auto matches = biopera::darwin::MatchesFromText(master->AsString());
  if (!matches.ok()) {
    result.error = "master file does not parse";
    return result;
  }
  if (static_cast<int64_t>(matches->size()) != count->AsInt()) {
    result.error = "match_count differs from the number of match records";
  }
  const ScoringMatrix& fixed = pam.Scoring(kFixedPam);
  std::set<std::pair<uint32_t, uint32_t>> reported;
  for (const Match& m : *matches) {
    if (m.entry_a >= m.entry_b || m.entry_b >= kSequences ||
        !reported.insert({m.entry_a, m.entry_b}).second) {
      result.error = "malformed or duplicate match record";
      break;
    }
    const Sequence& a = dataset[m.entry_a];
    const Sequence& b = dataset[m.entry_b];
    // Accepted on the fixed-PAM score; reported with the refined one.
    if (ReferenceScore(a, b, fixed) < kThreshold - 1e-6) {
      result.error = "reported match scores below the threshold";
      break;
    }
    const int refined = static_cast<int>(m.pam_distance);
    if (refined < 1 || refined > 720 ||
        !WithinRefinementError(ReferenceScore(a, b, pam.Scoring(refined)),
                               m.score, a.length(), b.length(), refined)) {
      result.error = "refined score disagrees with the reference";
      break;
    }
  }
  biopera::Rng sample(config.seed * 0xd1b54a32d192ed03ull + 5);
  for (int k = 0; k < kNegativeSample && result.error.empty(); ++k) {
    uint32_t i = static_cast<uint32_t>(sample.NextUint64(kSequences));
    uint32_t j = static_cast<uint32_t>(sample.NextUint64(kSequences));
    if (i == j) continue;
    if (i > j) std::swap(i, j);
    if (reported.contains({i, j})) continue;
    if (ReferenceScore(dataset[i], dataset[j], fixed) >=
        kThreshold + 1e-6) {
      result.error = "an unreported pair scores above the threshold";
    }
  }
  if (reported.empty()) result.error = "no matches reported";

  result.attempted = kSequences * (kSequences - 1) / 2;  // pairs compared
  result.failed = 0;
  result.signature["makespan_us"] =
      static_cast<uint64_t>(sim.Now().micros());
  result.signature["sim_events"] = sim.NumExecuted() - events_before;
  result.signature["failed"] = 0;
  result.signature["matches"] = matches->size();
  if (obs) {
    result.signature["dispatches"] = dispatched;
    result.signature["commits"] = commits;
    result.signature["wal_bytes"] = wal_bytes;
  }

  if (traced) {
    const double tasks = static_cast<double>(result.tasks);
    auto records = server.engine->GetTaskLineage(id);
    const uint64_t cells =
        records.ok() ? SumParam(*records, "darwin.fixed_pam", "sw_cells") : 0;
    const uint64_t rescored =
        records.ok() ? SumParam(*records, "darwin.fixed_pam", "sw_rescored")
                     : 0;
    const double fixed_busy =
        Seconds(activity_stats.BusyNs("darwin.fixed_pam"));
    auto& L = result.layer;
    L["darwin.fixed_pam_busy_s"] = fixed_busy;
    L["darwin.refine_busy_s"] = Seconds(activity_stats.BusyNs("darwin.refine"));
    L["darwin.cells_per_s"] =
        fixed_busy > 0 ? static_cast<double>(cells) / fixed_busy : 0;
    L["darwin.rescored_pairs"] = static_cast<double>(rescored);
    L["exec.executions"] = static_cast<double>(activity_stats.TotalCalls());
    L["exec.committed"] = tasks;
    L["exec.useful_ratio"] =
        tasks / static_cast<double>(activity_stats.TotalCalls());
    L["exec.busy_s"] = Seconds(activity_stats.TotalBusyNs());
    L["exec.parallelism"] =
        Seconds(activity_stats.TotalBusyNs()) / result.run_s;
    L["core.dispatches_per_task"] = static_cast<double>(dispatched) / tasks;
    L["core.scanned_per_dispatch"] =
        dispatched == 0
            ? 0
            : static_cast<double>(CounterValue(
                  obs.get(), "engine_pump_entries_scanned_total")) /
                  static_cast<double>(dispatched);
    L["core.recovered_tasks"] = static_cast<double>(
        CounterValue(obs.get(), "engine_recovered_tasks_total"));
    L["store.open_s"] = Median(opens);
    L["store.bytes_read_on_open"] = static_cast<double>(bytes_read_on_open);
    L["store.wal_bytes_per_task"] =
        static_cast<double>(fs->bytes_written[CountingFs::kWal]) / tasks;
    L["store.segment_bytes_per_task"] =
        static_cast<double>(fs->bytes_written[CountingFs::kSeg]) / tasks;
    L["store.syncs_per_task"] = static_cast<double>(fs->syncs) / tasks;
    L["store.commits_per_task"] = static_cast<double>(commits) / tasks;
    L["sim.events_per_task"] = static_cast<double>(events) / tasks;
    L["comms.messages_per_task"] =
        static_cast<double>(channel->commands + channel->reports) / tasks;
    L["obs.spans_export_s"] = Median(spans_s);
    L["obs.lineage_export_s"] = Median(lineage_s);
    L["obs.report_build_s"] = Median(report_build_s);
    L["obs.spans"] = static_cast<double>(queries.spans);
    if (events != result.signature["sim_events"]) {
      result.error = "stepped event count disagrees with the simulator";
    }
    AddSpanFigures(config, "run", &result);
    // The restarts follow the run phase.
    L["core.startup_s"] = Median(startups);
  }
  return result;
}

}  // namespace wallbench
