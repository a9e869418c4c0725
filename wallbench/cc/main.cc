// Wall-clock benchmark program: repeats whole rounds of one workload for
// the requested time and prints one JSON result line (see README.md).
//
//   wallbench --workload fanout_crash --seed 1 --seconds 15 --trace 0
//             --work-dir DIR [--trace-out FILE]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "darwin/pam.h"
#include "workloads.h"

namespace wallbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() &&
         !args->work_dir.empty() && args->seconds > 0;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* ModeName(RoundMode mode) {
  switch (mode) {
    case RoundMode::kPlain: return "plain";
    case RoundMode::kTraced: return "traced";
    case RoundMode::kDetached: return "detached";
  }
  return "?";
}

/// Same-seed rounds must agree exactly on the deterministic work counts
/// (a detached round lacks the registry's counts; the rest must match).
std::string CompareSignatures(const std::map<std::string, uint64_t>& a,
                              const std::map<std::string, uint64_t>& b) {
  for (const auto& [key, value] : a) {
    auto it = b.find(key);
    if (it != b.end() && it->second != value) {
      return "same-seed rounds disagree on " + key + ": " +
             std::to_string(value) + " vs " + std::to_string(it->second);
    }
  }
  return "";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wallbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  std::function<RoundResult(const RoundConfig&)> run_round;
  if (args.workload == "fanout_crash") {
    run_round = RunFanoutCrash;
  } else if (args.workload == "front_door_restart") {
    run_round = RunFrontDoorRestart;
  } else if (args.workload == "allvsall_real") {
    run_round = RunAllVsAllReal;
    // The process-wide PAM family caches its matrices lazily; a
    // long-running server pays that once, so fill it before timing.
    for (int pam = 1; pam <= 720; ++pam) {
      (void)biopera::darwin::SharedPamFamily().Scoring(pam);
      (void)biopera::darwin::SharedPamFamily().QuantizedScoring(pam);
    }
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // The traced run cycles plain / traced (/ detached) rounds so the
  // tracing and observability overheads come from the same run.
  std::vector<RoundMode> cycle = {RoundMode::kPlain};
  if (args.trace) {
    cycle.push_back(RoundMode::kTraced);
    if (SupportsDetached(args.workload)) cycle.push_back(RoundMode::kDetached);
  }
  const size_t min_rounds = std::max<size_t>(2, cycle.size());

  Tracer tracer(size_t{1} << 19);
  tracer.SetMainThread();
  std::vector<RoundResult> results;
  std::vector<RoundMode> modes;
  std::map<std::string, uint64_t> reference;
  std::string error;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  // A traced run compares modes within one process, so an untimed
  // warm-up round first takes the cold-start cost out of the comparison.
  const size_t warmup = args.trace ? 1 : 0;
  for (size_t k = 0; k < warmup + min_rounds || NowNs() < deadline; ++k) {
    RoundConfig config;
    config.seed = args.seed;
    config.mode = k < warmup ? RoundMode::kPlain
                             : cycle[(k - warmup) % cycle.size()];
    config.round = static_cast<uint32_t>(k);
    config.work_dir = args.work_dir + "/round-" + std::to_string(k);
    std::filesystem::remove_all(config.work_dir);
    std::filesystem::create_directories(config.work_dir);
    if (config.mode == RoundMode::kTraced) {
      config.tracer = &tracer;
      tracer.SetRound(config.round);
      SetActiveTracer(&tracer);
    }
    RoundResult r = run_round(config);
    SetActiveTracer(nullptr);
    std::filesystem::remove_all(config.work_dir);
    std::fprintf(stderr,
                 "round %zu %-8s setup %.4fs run %.4fs recovery %.4fs "
                 "report %.4fs tasks %llu ops %llu failed %llu makespan "
                 "%.3fh%s%s\n",
                 k, ModeName(config.mode), r.setup_s, r.run_s, r.recovery_s,
                 r.report_s, static_cast<unsigned long long>(r.tasks),
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed), r.makespan_h,
                 r.error.empty() ? "" : "  ERROR: ", r.error.c_str());
    if (error.empty() && !r.error.empty()) error = r.error;
    if (k == 0) {
      reference = r.signature;
      std::string counts;
      for (const auto& [key, value] : reference) {
        counts += " " + key + "=" + std::to_string(value);
      }
      std::fprintf(stderr, "work counts:%s\n", counts.c_str());
    } else if (error.empty()) {
      error = CompareSignatures(reference, r.signature);
    }
    if (k < warmup) continue;
    results.push_back(std::move(r));
    modes.push_back(config.mode);
  }
  std::filesystem::remove_all(args.work_dir);
  if (!error.empty()) std::fprintf(stderr, "check failed: %s\n", error.c_str());

  uint64_t attempted = 0, failed = 0;
  for (const RoundResult& r : results) {
    attempted += r.attempted;
    failed += r.failed;
  }
  auto median_of = [&](RoundMode mode,
                       const std::function<double(const RoundResult&)>& f) {
    std::vector<double> values;
    for (size_t i = 0; i < results.size(); ++i) {
      if (modes[i] == mode) values.push_back(f(results[i]));
    }
    return Median(values);
  };

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!args.trace) {
    auto plain = [&](const std::function<double(const RoundResult&)>& f) {
      return median_of(RoundMode::kPlain, f);
    };
    metrics = {
        {"tasks_per_s",
         {plain([](const RoundResult& r) {
            return static_cast<double>(r.tasks) / r.run_s;
          }),
          "tasks/s"}},
        {"ops_per_s",
         {plain([](const RoundResult& r) {
            return static_cast<double>(r.attempted - r.failed) / r.run_s;
          }),
          "ops/s"}},
        {"recovery_s",
         {plain([](const RoundResult& r) { return r.recovery_s; }), "s"}},
        {"setup_s",
         {plain([](const RoundResult& r) { return r.setup_s; }), "s"}},
        {"report_s",
         {plain([](const RoundResult& r) { return r.report_s; }), "s"}},
        {"virtual_makespan_h",
         {plain([](const RoundResult& r) { return r.makespan_h; }), "h"}},
        {"peak_rss_mb", {PeakRssMb(), "MB"}},
    };
  } else {
    for (const auto& [name, unit] : LayerMetrics()) {
      double value = median_of(RoundMode::kTraced, [&](const RoundResult& r) {
        auto it = r.layer.find(name);
        return it == r.layer.end() ? 0.0 : it->second;
      });
      metrics.push_back({name, {value, unit}});
    }
    auto run_s = [](const RoundResult& r) { return r.run_s; };
    const double plain_run = median_of(RoundMode::kPlain, run_s);
    for (auto& [name, value] : metrics) {
      if (name == "bench.trace_overhead_s") {
        value.first = median_of(RoundMode::kTraced, run_s) - plain_run;
      } else if (name == "obs.overhead_s" &&
                 SupportsDetached(args.workload)) {
        value.first = plain_run - median_of(RoundMode::kDetached, run_s);
      }
    }
    if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }

  std::string out = "{\"correct\": ";
  out += error.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " +
           Number(metrics[i].second.first) + ", \"unit\": \"" +
           metrics[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) { return wallbench::Main(argc, argv); }
