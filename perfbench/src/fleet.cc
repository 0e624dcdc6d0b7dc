// fleet-pipeline: monitor, then consolidate, at datacenter scale. Synthetic
// telemetry for 235,294 tenant databases (one stream each; every 16th
// tenant has 2 replicas, 250,000 slots) goes through online::IngestPlane at
// 4 threads. Every control interval the detect stage the controller runs
// follows: StreamingProfileBuilder::Stats for all streams via
// IngestPlane::ForEachStripe, then DriftDetector::ScanRange per stripe. At
// the end of a pass the rolling profiles become a problem on a two-class
// fleet, solved by solve::ShardedSolver (greedy-multi local solver, 4
// threads).
//
// The telemetry repeats with the pass length, so every pass ends on the
// same rolling windows and must produce the same plan.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "audit.h"
#include "common.h"
#include "core/engine.h"
#include "online/drift.h"
#include "online/ingest.h"
#include "obs/sink.h"
#include "online/streaming_profile.h"
#include "solve/shard.h"
#include "solve/solver.h"

namespace perfbench {

namespace {

using namespace kairos;

constexpr int kTenants = 235294;  // + every 16th replicated = 250,000 slots
constexpr int kWeakServers = 15000;
constexpr int kStrongServers = 10000;
constexpr int kThreads = 4;
constexpr int kWindow = 12;
constexpr int kStepsPerPass = 24;   // also the telemetry period
constexpr int kControlInterval = 3;
constexpr int kCheckEvery = 4099;   // streams whose windows the benchmark keeps
constexpr uint64_t kSolverSeed = 1;
constexpr double kInterval = 300.0;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double Unit(uint64_t x) { return static_cast<double>(Mix(x) >> 11) * 0x1.0p-53; }

/// Per-tenant telemetry parameters; samples are a pure function of them,
/// the seed and the step's phase within the period.
struct Tenant {
  double cpu = 0, ram = 0, rate = 0, swing = 0;
  int phase = 0;
};

struct Inputs {
  uint64_t seed = 1;
  std::vector<Tenant> tenants;
  online::TelemetrySample Sample(int w, int step) const {
    const Tenant& t = tenants[w];
    const int k = (step + t.phase) % kStepsPerPass;
    const double diurnal =
        1.0 + t.swing * std::sin(6.283185307179586 * k / kStepsPerPass);
    const uint64_t key = (seed * 0x100000001B3ULL ^ static_cast<uint64_t>(w)) *
                             kStepsPerPass + k;
    online::TelemetrySample s;
    s.cpu_cores = t.cpu * diurnal * (0.9 + 0.2 * Unit(key * 3));
    s.ram_bytes = t.ram * (0.95 + 0.1 * Unit(key * 3 + 1));
    s.update_rows_per_sec = t.rate * diurnal * (0.8 + 0.4 * Unit(key * 3 + 2));
    s.working_set_bytes = 0.8 * t.ram;
    return s;
  }
  void Step(int step, std::vector<online::TelemetrySample>* out) const {
    out->resize(tenants.size());
    for (int w = 0; w < static_cast<int>(tenants.size()); ++w) {
      (*out)[w] = Sample(w, step);
    }
  }
};

std::unique_ptr<Inputs> MakeInputs(uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->seed = seed;
  in->tenants.resize(kTenants);
  for (int w = 0; w < kTenants; ++w) {
    const uint64_t key = (seed << 32) ^ static_cast<uint64_t>(w) * 5;
    Tenant& t = in->tenants[w];
    t.cpu = 0.05 + 0.75 * Unit(key);
    t.ram = 1e9 + 5e9 * Unit(key + 1);
    t.rate = 20.0 * Unit(key + 2);
    t.swing = 0.4 * Unit(key + 3);
    t.phase = static_cast<int>(Mix(key + 4) % kStepsPerPass);
  }
  return in;
}

/// The monitoring side: rolling profiles, striped plane and drift detector,
/// plus the benchmark's own copy of the last window of a sample of streams.
struct Monitor {
  online::StreamingProfileBuilder profiles;
  online::IngestPlane plane;
  online::DriftDetector drift{online::DriftConfig()};
  std::vector<std::vector<online::TelemetrySample>> kept;  // per checked stream
  explicit Monitor(int threads)
      : profiles(kTenants, kWindow, kInterval),
        plane(&profiles, [threads] {
          online::IngestOptions options;
          options.threads = threads;
          return options;
        }()),
        kept((kTenants + kCheckEvery - 1) / kCheckEvery) {}
};

sim::FleetSpec MakeFleet() {
  sim::FleetSpec fleet;
  fleet.AddClass(sim::MachineSpec::Server1(), kWeakServers, 1.0)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), kStrongServers, 2.5);
  return fleet;
}

struct PassTimes {
  double ingest = 0, stats = 0, scan = 0, snapshot = 0, solve = 0;
  int drifted = 0;
  double Monitor() const { return ingest + stats + scan; }
  double Plan() const { return snapshot + solve; }
};

solve::ShardOptions ShardOptionsAt(int threads) {
  solve::ShardOptions options;
  options.threads = threads;
  options.local_solver = "greedy-multi";
  return options;
}

/// Checks the kept streams' Stats against the benchmark's own arithmetic over
/// the samples it fed: window mean and peak equal, p95 inside the window.
bool CheckStats(const Monitor& m, const std::vector<monitor::ProfileStats>& stats) {
  for (size_t k = 0; k < m.kept.size(); ++k) {
    const auto& window = m.kept[k];
    const int w = static_cast<int>(k) * kCheckEvery;
    double cpu_sum = 0, ram_sum = 0, cpu_max = -1e300, ram_max = -1e300,
           cpu_min = 1e300;
    for (const auto& s : window) {
      cpu_sum += s.cpu_cores;
      ram_sum += s.ram_bytes;
      cpu_max = std::max(cpu_max, s.cpu_cores);
      cpu_min = std::min(cpu_min, s.cpu_cores);
      ram_max = std::max(ram_max, s.ram_bytes);
    }
    const double n = static_cast<double>(window.size());
    const auto close = [](double a, double b) {
      return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
    };
    const monitor::ProfileStats& st = stats[w];
    if (!close(st.mean_cpu_cores, cpu_sum / n) ||
        !close(st.mean_ram_bytes, ram_sum / n) || st.peak_cpu_cores != cpu_max ||
        st.peak_ram_bytes != ram_max || st.p95_cpu_cores < cpu_min ||
        st.p95_cpu_cores > cpu_max) {
      return false;
    }
  }
  return true;
}

/// Window statistics of two monitors fed the same recent samples must be
/// bit-identical, whatever their ingest thread counts.
void CompareStats(const Monitor& a, const Monitor& b, Outcome* out) {
  for (int w = 0; w < kTenants; ++w) {
    const monitor::ProfileStats x = a.profiles.Stats(w);
    const monitor::ProfileStats y = b.profiles.Stats(w);
    if (x.mean_cpu_cores != y.mean_cpu_cores || x.p95_cpu_cores != y.p95_cpu_cores ||
        x.peak_cpu_cores != y.peak_cpu_cores || x.mean_ram_bytes != y.mean_ram_bytes ||
        x.p95_ram_bytes != y.p95_ram_bytes || x.peak_ram_bytes != y.peak_ram_bytes ||
        x.p95_update_rows_per_sec != y.p95_update_rows_per_sec ||
        x.working_set_bytes != y.working_set_bytes) {
      out->Wrong("stream statistics differ between 1 and 4 ingest threads");
      return;
    }
  }
}

/// One pass: kStepsPerPass ingest steps with a detect stage every control
/// interval, then snapshot and sharded solve. Sample generation and checks
/// run between the timed calls.
core::ConsolidationPlan RunPass(const Inputs& in, const sim::FleetSpec& fleet,
                                Monitor* m, int* step, PassTimes* times,
                                Tracer* tracer, Outcome* out,
                                core::ConsolidationProblem* problem_out) {
  std::vector<online::TelemetrySample> samples;
  std::vector<monitor::ProfileStats> stats(kTenants);
  const int stripes = m->plane.stripes().num_stripes();
  for (int i = 0; i < kStepsPerPass; ++i, ++*step) {
    in.Step(*step, &samples);
    for (size_t k = 0; k < m->kept.size(); ++k) {
      auto& window = m->kept[k];
      window.push_back(samples[k * kCheckEvery]);
      if (window.size() > kWindow) window.erase(window.begin());
    }
    {
      Timed timed(tracer, "online.ingest_step", &times->ingest);
      m->plane.IngestStep(samples);
    }
    if ((i + 1) % kControlInterval != 0) continue;

    {
      Timed timed(tracer, "monitor.stats", &times->stats);
      m->plane.ForEachStripe([&](int, int begin, int end) {
        for (int w = begin; w < end; ++w) stats[w] = m->profiles.Stats(w);
      });
    }
    if (m->drift.ScanEnabled(*step, kTenants)) {
      std::vector<online::DriftScan> scans(stripes);
      {
        Timed timed(tracer, "online.drift_scan", &times->scan);
        m->plane.ForEachStripe([&](int s, int begin, int end) {
          scans[s] = m->drift.ScanRange(stats, begin, end);
        });
      }
      for (const auto& scan : scans) times->drifted += scan.drifted_streams;
    }
    const bool ok = CheckStats(*m, stats);
    out->Op(ok, "window statistics differ from the fed samples");
    if (!ok) out->Wrong("Stats disagrees with the benchmark's window arithmetic");
  }

  core::ConsolidationProblem problem;
  problem.fleet = fleet;
  problem.workloads.resize(kTenants);
  {
    Timed timed(tracer, "online.snapshot", &times->snapshot);
    for (int w = 0; w < kTenants; ++w) {
      problem.workloads[w] = m->profiles.Profile(w);
      if (w % 16 == 0) problem.workloads[w].replicas = 2;
    }
  }
  core::ConsolidationPlan plan;
  {
    Timed timed(tracer, "solve.sharded", &times->solve);
    plan = solve::ShardedSolver(kSolverSeed, ShardOptionsAt(kThreads))
               .Solve(problem, solve::SolveBudget(), nullptr);
  }
  // The plan is adopted: drift is measured against the stats it was solved on.
  m->drift.Rebase(*step - 1, stats);
  if (problem_out != nullptr) *problem_out = std::move(problem);
  return plan;
}

/// Checks the sharded plan (see CheckPlan) and that it is identical to the
/// reference plan.
void CheckSharded(const core::ConsolidationProblem& problem,
                  const core::ConsolidationPlan& plan,
                  const core::ConsolidationPlan* reference, Outcome* out) {
  CheckPlan(problem, plan, "sharded", out);
  if (reference != nullptr &&
      (reference->assignment.server_of_slot != plan.assignment.server_of_slot ||
       reference->objective != plan.objective)) {
    out->Wrong("sharded plan differs between passes or thread counts");
  }
}

/// Layer replays of the traced run on the pass's problem: partition, each
/// shard's local solve, the whole sharded solve at 1 thread, FinalizePlan.
/// The local solves are replayed from a copy of SolveShardLocal in
/// src/solve/shard.cc, which is not public: the same skip rule and the
/// parent budget split S ways. The copy is checked against the solver:
/// stitched together, the replayed local plans must equal the sharded plan
/// on every slot but those its pin repair and cross-shard rebalance moved.
void TraceShardLayers(const core::ConsolidationProblem& problem,
                      const core::ConsolidationPlan& plan, double solve_t4,
                      Tracer* tracer, Outcome* out) {
  const solve::ShardOptions options = ShardOptionsAt(kThreads);
  std::vector<solve::FleetShard> shards;
  {
    Tracer::Scope span(tracer, "solve.shard.partition");
    shards = solve::ShardPartitioner(problem, options).Partition(kSolverSeed);
  }
  const int num_shards = static_cast<int>(shards.size());
  const solve::SolveBudget parent;
  std::vector<int> stitched(problem.TotalSlots(), -1);
  double local_max = 0;
  for (const solve::FleetShard& shard : shards) {
    if (shard.problem.TotalSlots() == 0 || shard.servers.empty()) continue;
    solve::SolveBudget budget;
    budget.max_iterations = std::max(200, parent.max_iterations / num_shards);
    budget.direct_evaluations = std::max(50, parent.direct_evaluations / num_shards);
    budget.probe_direct_evaluations =
        std::max(25, parent.probe_direct_evaluations / num_shards);
    budget.local_search_max_sweeps = parent.local_search_max_sweeps;
    budget.dimensioning = parent.dimensioning;
    core::ConsolidationPlan local;
    double seconds = 0;
    {
      Timed timed(tracer, "solve.shard.local_solve", &seconds);
      local = solve::SolverRegistry::Global()
                  .Create(options.local_solver, shard.seed)
                  ->Solve(shard.problem, budget, nullptr);
    }
    local_max = std::max(local_max, seconds);
    const std::vector<int>& server_of = local.assignment.server_of_slot;
    for (size_t ls = 0; ls < shard.slots.size() && ls < server_of.size(); ++ls) {
      stitched[shard.slots[ls]] = shard.servers[server_of[ls]];
    }
  }
  // The sink is attached only to read the solver's rebalance-move counter.
  obs::Sink sink;
  solve::SolveBudget serial_budget;
  serial_budget.sink = &sink;
  core::ConsolidationPlan serial;
  {
    Tracer::Scope span(tracer, "solve.sharded.t1");
    serial = solve::ShardedSolver(kSolverSeed, ShardOptionsAt(1))
                 .Solve(problem, serial_budget, nullptr);
  }
  CheckSharded(problem, serial, &plan, out);
  int64_t moved_by_repair = sink.metrics().counter("sharded.rebalance_moves")->Value();
  int slot = 0;
  for (const auto& w : problem.workloads) {
    if (w.pinned_server >= 0) moved_by_repair += w.replicas;
    slot += w.replicas;
  }
  int64_t differing = 0;
  for (int s = 0; s < slot; ++s) {
    differing += stitched[s] != plan.assignment.server_of_slot[s] ? 1 : 0;
  }
  if (differing > moved_by_repair) {
    out->Wrong("replayed local shard plans differ from the sharded plan on " +
               std::to_string(differing) + " slots, more than the " +
               std::to_string(moved_by_repair) +
               " its repair and rebalance moved; the replay no longer "
               "matches SolveShardLocal");
  }
  {
    Tracer::Scope span(tracer, "core.finalize");
    core::FinalizePlan(problem, plan.assignment.server_of_slot, problem.ServerCap());
  }
  const double partition = tracer->Total("solve.shard.partition");
  const double local = tracer->Total("solve.shard.local_solve");
  const double t1 = tracer->Total("solve.sharded.t1");
  out->Metric("solve.shard.partition_s", partition, "s");
  out->Metric("solve.shard.shards", num_shards, "count");
  out->Metric("solve.shard.local_solve_s", local, "s");
  out->Metric("solve.shard.local_solve_max_s", local_max, "s");
  out->Metric("solve.shard.solve_t1_s", t1, "s");
  out->Metric("solve.shard.solve_t4_s", solve_t4, "s");
  out->Metric("solve.shard.speedup_t4", t1 / solve_t4, "ratio");
  out->Metric("solve.shard.rest_s", t1 - partition - local, "s");
  out->Metric("core.finalize_s", tracer->Total("core.finalize"), "s");
}

}  // namespace

void RunFleetPipeline(const RunArgs& args, Tracer* tracer, Outcome* out) {
  // Set-up: tenant synthesis, fleet, and the ingest plane with its profiles.
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Monitor> monitor;
  sim::FleetSpec fleet;
  SetupTimer setup;
  setup.Burst([&] {
    monitor.reset();
    inputs = MakeInputs(args.seed);
    fleet = MakeFleet();
    monitor = std::make_unique<Monitor>(kThreads);
  });
  const double samples_per_pass = static_cast<double>(kTenants) * kStepsPerPass;
  const double slots = kTenants + (kTenants + 15) / 16;

  // Warm-up pass, excluded from timing; its plan is the reference every
  // later pass must reproduce.
  int step = 0;
  PassTimes warm;
  core::ConsolidationProblem problem;
  const core::ConsolidationPlan reference =
      RunPass(*inputs, fleet, monitor.get(), &step, &warm, nullptr, out, &problem);
  CheckSharded(problem, reference, nullptr, out);
  out->attempted = out->failed = 0;

  if (tracer != nullptr) {
    PassTimes untraced;
    CheckSharded(problem,
              RunPass(*inputs, fleet, monitor.get(), &step, &untraced, nullptr, out,
                      nullptr),
              &reference, out);
    // A second monitor at one ingest thread takes the next pass's samples:
    // its ingest time gives the speedup, and its window statistics must
    // match the 4-thread monitor's bit for bit after the traced pass.
    Monitor serial(1);
    std::vector<online::TelemetrySample> samples;
    double ingest_t1 = 0;
    for (int s = 0; s < kStepsPerPass; ++s) {
      inputs->Step(step + s, &samples);
      Timed timed(nullptr, "", &ingest_t1);
      serial.plane.IngestStep(samples);
    }
    PassTimes traced;
    const core::ConsolidationPlan plan = RunPass(
        *inputs, fleet, monitor.get(), &step, &traced, tracer, out, &problem);
    CheckSharded(problem, plan, &reference, out);
    CompareStats(serial, *monitor, out);
    out->Metric("online.ingest_s", traced.ingest, "s");
    out->Metric("online.ingest_speedup_t4", ingest_t1 / traced.ingest, "ratio");
    out->Metric("monitor.stats_s", traced.stats, "s");
    out->Metric("online.drift_scan_s", traced.scan, "s");
    out->Metric("online.drifted_streams", traced.drifted, "count");
    out->Metric("online.snapshot_s", traced.snapshot, "s");
    out->Metric("fleet.monitor_samples_per_s", samples_per_pass / traced.Monitor(),
                "1/s");
    out->Metric("fleet.slots_per_s", slots / traced.Plan(), "1/s");
    out->Metric("trace.fleet-pipeline.overhead_s",
                traced.Monitor() + traced.Plan() -
                    (untraced.Monitor() + untraced.Plan()), "s");
    TraceShardLayers(problem, plan, traced.solve, tracer, out);
    return;
  }

  // Memory of set-up plus one pass, read before the comparison monitor
  // below adds its own.
  const double peak_rss_mb = PeakRssMb();
  {
    // The same samples through one ingest thread end in the same window
    // statistics; the plan is the same at 1 and 4 shard threads.
    Monitor serial(1);
    std::vector<online::TelemetrySample> samples;
    for (int s = 0; s < step; ++s) {
      inputs->Step(s, &samples);
      serial.plane.IngestStep(samples);
    }
    CompareStats(serial, *monitor, out);
  }
  CheckSharded(problem,
            solve::ShardedSolver(kSolverSeed, ShardOptionsAt(1))
                .Solve(problem, solve::SolveBudget(), nullptr),
            &reference, out);
  out->attempted = out->failed = 0;

  // Each pass is timed on its own; the fastest is the figure (see
  // SetupTimer for why not the median).
  std::vector<double> pass_s, plan_s;
  core::ConsolidationPlan plan;
  const Clock::time_point run_start = Clock::now();
  do {
    PassTimes times;
    plan = RunPass(*inputs, fleet, monitor.get(), &step, &times, nullptr, out,
                   &problem);
    pass_s.push_back(times.Monitor() + times.Plan());
    plan_s.push_back(times.Plan());
    CheckSharded(problem, plan, &reference, out);
    setup.Burst([&] {
      MakeInputs(args.seed);
      MakeFleet();
      Monitor discarded(kThreads);
    });
  } while (SecondsSince(run_start) < args.seconds);

  out->Metric("setup_s", setup.Seconds(), "s");
  out->Metric("peak_rss_mb", peak_rss_mb, "MB");
  out->Metric("pass_s", Lowest(pass_s), "s");
  out->Metric("plan_s", Lowest(plan_s), "s");
  out->Metric("fleet_cost", plan.fleet_cost, "cost");
  out->Metric("objective", plan.objective, "objective");
}

}  // namespace perfbench
