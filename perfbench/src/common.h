// Shared pieces of the benchmark: wall clocks, order statistics, the
// in-memory span recorder of the traced run, and the result record every
// workload fills. Everything here times the program from outside, around
// calls into its public functions.
#ifndef KAIROS_PERFBENCH_COMMON_H_
#define KAIROS_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `v` (0 for an empty vector).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it (nearest
/// rank), as the tail of a latency distribution. With fewer than forty
/// samples no such tail exists and the median is returned.
inline double WellSupportedTail(std::vector<double> v) {
  const size_t n = v.size();
  if (n < 40) return Median(std::move(v));
  std::sort(v.begin(), v.end());
  return v[n - 11];
}

/// Lowest of `v` (0 for an empty vector).
inline double Lowest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Set-up time sampled across the whole run. Each Burst repeats `make()` at
/// least three times and for at least a tenth of a second and keeps the
/// median of the burst; Seconds() is the lowest burst median. Workloads take
/// one burst before the warm-up and one after every timed pass: on a shared
/// host, load comes and goes over seconds, and bursts spread over the run
/// find its quiet stretches where one burst at the start may not.
class SetupTimer {
 public:
  template <typename Make>
  void Burst(Make make) {
    std::vector<double> times;
    const Clock::time_point begin = Clock::now();
    while (times.size() < 3 || SecondsSince(begin) < 0.1) {
      const Clock::time_point start = Clock::now();
      make();
      times.push_back(SecondsSince(start));
    }
    medians_.push_back(Median(std::move(times)));
  }
  double Seconds() const { return Lowest(medians_); }

 private:
  std::vector<double> medians_;
};

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Where the traced run writes its spans.
};

/// What one run reports: operation accounting, correctness and metrics.
/// `failed` counts operations that did not succeed (an infeasible plan, an
/// unsafe migration plan, an audit or ingest-check mismatch); `correct`
/// turns false when an output the program reported as good is wrong.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records one attempted operation; `ok == false` counts it failed.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      Error(what);
    }
  }
  /// A wrong output: the run is not correct.
  void Wrong(const std::string& what) {
    correct = false;
    Error(what);
  }

 private:
  void Error(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// In-memory span recorder for the traced run: name, start, end and parent
/// of every span, kept in memory and written out at the end. Spans are
/// opened and closed on the calling thread only (the benchmark is one caller
/// in a closed loop), so the stack discipline holds.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  ///< Seconds since the tracer was created.
    double end = 0;
    int parent = -1;
  };

  /// RAII span; a null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name) : tracer_(tracer) {
      if (tracer_ != nullptr) id_ = tracer_->Begin(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  int Begin(const std::string& name) {
    Span s;
    s.name = name;
    s.start = SecondsSince(origin_);
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    spans_[id].end = SecondsSince(origin_);
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Summed duration of every span named `name`.
  double Total(const std::string& name) const {
    double total = 0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.end - s.start;
    }
    return total;
  }

  /// Self time per span name: each span's duration minus the part its
  /// children cover (children of one parent never overlap here).
  std::map<std::string, double> SelfTimes() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  /// Writes the spans and the self-time table as JSON to `path`. Returns
  /// false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Adds the wall time of its scope to `*seconds` and, with a tracer, records
/// the scope as a span.
class Timed {
 public:
  Timed(Tracer* tracer, const std::string& name, double* seconds)
      : span_(tracer, name), seconds_(seconds) {}
  ~Timed() { *seconds_ += SecondsSince(start_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer::Scope span_;
  double* seconds_;
  Clock::time_point start_ = Clock::now();
};

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// The workloads. Each runs set-up, a warm-up pass and timed passes for
/// `args.seconds` (or, traced, one untraced and one traced pass plus the
/// layer replays) and fills `out`.
void RunPaperConsolidate(const RunArgs& args, Tracer* tracer, Outcome* out);
void RunFleetPipeline(const RunArgs& args, Tracer* tracer, Outcome* out);
void RunOnlineControl(const RunArgs& args, Tracer* tracer, Outcome* out);

}  // namespace perfbench

#endif  // KAIROS_PERFBENCH_COMMON_H_
