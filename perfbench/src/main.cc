// The benchmark binary: runs one workload for a fixed time and prints one JSON
// result line, or (with --trace 1) runs the traced pass of every workload
// and prints the per-layer metrics.
//
//   kairos_perfbench --workload <paper-consolidate|fleet-pipeline|online-control>
//                    --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace perfbench {

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

void WriteJsonString(FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
      continue;
    }
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "  {\"id\": %zu, \"name\": ", i);
    WriteJsonString(f, s.name);
    std::fprintf(f, ", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}%s\n",
                 s.start, s.end, s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"self_s\": {");
  bool first = true;
  for (const auto& [name, self] : SelfTimes()) {
    std::fprintf(f, "%s\n  ", first ? "" : ",");
    WriteJsonString(f, name);
    std::fprintf(f, ": %.9f", self);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: kairos_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "error: refusing to time an assert-enabled build; configure "
               "with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  using Runner = void (*)(const perfbench::RunArgs&, perfbench::Tracer*,
                          perfbench::Outcome*);
  const std::pair<const char*, Runner> workloads[] = {
      {"paper-consolidate", perfbench::RunPaperConsolidate},
      {"fleet-pipeline", perfbench::RunFleetPipeline},
      {"online-control", perfbench::RunOnlineControl},
  };
  Runner runner = nullptr;
  for (const auto& [name, run] : workloads) {
    if (args.workload == name) runner = run;
  }
  if (runner == nullptr) return Usage("unknown --workload");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::Outcome out;
  if (args.trace) {
    // The traced run covers every workload, so each traced run reports the
    // full per-layer metric set.
    perfbench::Tracer tracer;
    for (const auto& [name, run] : workloads) {
      perfbench::Tracer::Scope span(&tracer, name);
      run(args, &tracer, &out);
    }
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  } else {
    runner(args, nullptr, &out);
  }

  for (const auto& [name, metric] : out.metrics) {
    if (!std::isfinite(metric.first)) out.Wrong("metric " + name + " is not finite");
  }
  for (const std::string& e : out.errors) std::fprintf(stderr, "check: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    const double value = std::isfinite(metric.first) ? metric.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, metric.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
