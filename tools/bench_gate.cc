// Bench regression gate CLI: compares a candidate bench_smoke run against
// a committed baseline and exits non-zero on regression, so CI can fail a
// change that slows the scan kernels, the serving path, or drops shadow
// recall.
//
// Usage, one command line:
//   ./tool_bench_gate --baseline_serving=old/BENCH_serving.json
//       --candidate_serving=new/BENCH_serving.json
//       [--baseline_micro=old/BENCH_micro_index.json]
//       [--candidate_micro=new/BENCH_micro_index.json]
//       [--max_p95_regress_pct=60] [--min_qps_ratio=0.65]
//       [--max_recall_drop=0.05] [--max_micro_regress_pct=30]
//
// Exit codes: 0 gate passed, 1 regression found, 2 usage/IO error.

#include <cstdio>
#include <string>

#include "src/eval/bench_gate.h"
#include "src/util/cli.h"

using namespace lightlt;

namespace {

int LoadOrDie(const std::string& path, std::string* out) {
  auto content = eval::ReadFileToString(path);
  if (!content.ok()) {
    std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
    return 2;
  }
  *out = std::move(content).value();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const std::string baseline_serving = cli.GetString("baseline_serving", "");
  const std::string candidate_serving = cli.GetString("candidate_serving", "");
  const std::string baseline_micro = cli.GetString("baseline_micro", "");
  const std::string candidate_micro = cli.GetString("candidate_micro", "");

  eval::GateThresholds thresholds;
  thresholds.max_p95_regress_pct =
      cli.GetDouble("max_p95_regress_pct", thresholds.max_p95_regress_pct);
  thresholds.min_qps_ratio =
      cli.GetDouble("min_qps_ratio", thresholds.min_qps_ratio);
  thresholds.max_recall_drop =
      cli.GetDouble("max_recall_drop", thresholds.max_recall_drop);
  thresholds.max_micro_regress_pct =
      cli.GetDouble("max_micro_regress_pct", thresholds.max_micro_regress_pct);

  if (baseline_serving.empty() != candidate_serving.empty() ||
      baseline_micro.empty() != candidate_micro.empty() ||
      (baseline_serving.empty() && baseline_micro.empty())) {
    std::fprintf(stderr,
                 "usage: tool_bench_gate --baseline_serving=A "
                 "--candidate_serving=B [--baseline_micro=C "
                 "--candidate_micro=D] [threshold flags]\n");
    return 2;
  }

  bool failed = false;
  if (!baseline_serving.empty()) {
    std::string baseline, candidate;
    int rc = LoadOrDie(baseline_serving, &baseline);
    if (rc == 0) rc = LoadOrDie(candidate_serving, &candidate);
    if (rc != 0) return rc;
    const eval::GateReport report =
        eval::CompareServingBench(baseline, candidate, thresholds);
    std::printf("serving gate (%s vs %s):\n%s", candidate_serving.c_str(),
                baseline_serving.c_str(), report.Render().c_str());
    failed = failed || !report.ok();
  }
  if (!baseline_micro.empty()) {
    std::string baseline, candidate;
    int rc = LoadOrDie(baseline_micro, &baseline);
    if (rc == 0) rc = LoadOrDie(candidate_micro, &candidate);
    if (rc != 0) return rc;
    const eval::GateReport report =
        eval::CompareMicroBench(baseline, candidate, thresholds);
    std::printf("micro gate (%s vs %s):\n%s", candidate_micro.c_str(),
                baseline_micro.c_str(), report.Render().c_str());
    failed = failed || !report.ok();
  }
  return failed ? 1 : 0;
}
