#include "audit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "model/disk_model.h"

namespace perfbench {

namespace {

using kairos::core::ConsolidationProblem;

// Relative slack for floating-point sums taken in a different order than
// the program takes them.
constexpr double kSlack = 1e-9;

bool Within(double load, double limit) {
  return load <= limit + kSlack * std::max(1.0, std::fabs(limit));
}

/// Common sample count of every series the solvers read.
size_t Samples(const ConsolidationProblem& problem) {
  size_t n = SIZE_MAX;
  for (const auto& w : problem.workloads) {
    n = std::min({n, w.cpu_cores.size(), w.ram_bytes.size(),
                  w.update_rows_per_sec.size()});
  }
  return n == SIZE_MAX ? 0 : n;
}

std::string Fail(const char* fmt, int a, int b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

Audit AuditPlan(const ConsolidationProblem& problem,
                const std::vector<int>& assignment, int server_cap) {
  Audit audit;
  const auto fail = [&audit](std::string why) {
    audit.ok = false;
    audit.why = std::move(why);
    return audit;
  };
  const int num_workloads = static_cast<int>(problem.workloads.size());
  std::vector<int> first_slot(num_workloads + 1, 0);
  for (int w = 0; w < num_workloads; ++w) {
    first_slot[w + 1] = first_slot[w] + problem.workloads[w].replicas;
  }
  if (static_cast<int>(assignment.size()) != first_slot[num_workloads]) {
    return fail(Fail("assignment has %d entries for %d slots",
                     static_cast<int>(assignment.size()),
                     first_slot[num_workloads]));
  }

  // Placement rules.
  for (int w = 0; w < num_workloads; ++w) {
    const auto& profile = problem.workloads[w];
    for (int s = first_slot[w]; s < first_slot[w + 1]; ++s) {
      const int j = assignment[s];
      if (j < 0 || j >= server_cap) {
        return fail(Fail("slot %d on server %d outside the cap", s, j));
      }
      if (problem.fleet.classes[problem.fleet.ClassOf(j)].drained) {
        return fail(Fail("slot %d on server %d of a drained class", s, j));
      }
      if (profile.pinned_server >= 0 && j != profile.pinned_server) {
        return fail(Fail("workload %d off its pin %d", w,
                         profile.pinned_server));
      }
      for (int r = first_slot[w]; r < s; ++r) {
        if (assignment[r] == j) {
          return fail(Fail("replicas of workload %d share server %d", w, j));
        }
      }
    }
  }
  for (const auto& [a, b] : problem.anti_affinity) {
    if (a < 0 || a >= num_workloads || b < 0 || b >= num_workloads) continue;
    for (int sa = first_slot[a]; sa < first_slot[a + 1]; ++sa) {
      for (int sb = first_slot[b]; sb < first_slot[b + 1]; ++sb) {
        if (sa != sb && assignment[sa] == assignment[sb]) {
          return fail(Fail("anti-affinity pair (%d, %d) shares a server", a, b));
        }
      }
    }
  }

  // Per-server, per-sample sums. Each dedicated-server CPU profile carries
  // one instance overhead; co-located workloads share one instance, so the
  // server pays the overhead once on top of the workloads' own demand.
  const size_t n = Samples(problem);
  std::vector<int> used_servers;
  std::vector<int> slots_on(server_cap, 0);
  for (int j : assignment) {
    if (slots_on[j]++ == 0) used_servers.push_back(j);
  }
  std::sort(used_servers.begin(), used_servers.end());
  std::vector<int> server_pos(server_cap, -1);
  for (size_t k = 0; k < used_servers.size(); ++k) server_pos[used_servers[k]] = k;

  const size_t used = used_servers.size();
  std::vector<double> cpu(used * n, 0.0), ram(used * n, 0.0),
      rate(used * n, 0.0), ws(used, 0.0);
  const double overhead = problem.per_instance_cpu_overhead_cores;
  for (int w = 0; w < num_workloads; ++w) {
    const auto& profile = problem.workloads[w];
    for (int s = first_slot[w]; s < first_slot[w + 1]; ++s) {
      const size_t k = server_pos[assignment[s]];
      for (size_t t = 0; t < n; ++t) {
        cpu[k * n + t] += std::max(0.0, profile.cpu_cores.at(t) - overhead);
        ram[k * n + t] += profile.ram_bytes.at(t);
        rate[k * n + t] += profile.update_rows_per_sec.at(t);
      }
      ws[k] += profile.working_set_bytes;
    }
  }
  for (int j : used_servers) {
    audit.fleet_cost += problem.fleet.classes[problem.fleet.ClassOf(j)].cost_weight;
  }
  audit.servers_used = static_cast<int>(used);
  const double ram_overhead =
      static_cast<double>(problem.instance_ram_overhead_bytes);
  for (size_t k = 0; k < used; ++k) {
    const int j = used_servers[k];
    const auto& machine_class = problem.fleet.classes[problem.fleet.ClassOf(j)];
    const double cpu_limit =
        machine_class.spec.StandardCores() * problem.cpu_headroom;
    const double ram_limit =
        static_cast<double>(machine_class.spec.ram_bytes) * problem.ram_headroom;
    const kairos::model::DiskModel* disk =
        machine_class.disk_model ? machine_class.disk_model.get()
                                 : problem.disk_model;
    double disk_limit = -1;  // < 0: no disk constraint on this class
    if (disk != nullptr && disk->valid()) {
      const double frontier = disk->MaxSustainableRate(std::max(0.0, ws[k]));
      const double headroom = machine_class.disk_headroom > 0
                                  ? machine_class.disk_headroom
                                  : problem.disk_headroom;
      if (frontier > 0) disk_limit = headroom * frontier;
    }
    for (size_t t = 0; t < n; ++t) {
      if (!Within(cpu[k * n + t] + overhead, cpu_limit)) {
        return fail(Fail("server %d over CPU capacity at sample %d", j,
                         static_cast<int>(t)));
      }
      if (!Within(ram[k * n + t] + ram_overhead, ram_limit)) {
        return fail(Fail("server %d over RAM capacity at sample %d", j,
                         static_cast<int>(t)));
      }
      if (disk_limit >= 0 && !Within(rate[k * n + t], disk_limit)) {
        return fail(Fail("server %d over its disk frontier at sample %d", j,
                         static_cast<int>(t)));
      }
    }
  }
  return audit;
}

double FleetCostLowerBound(const ConsolidationProblem& problem) {
  const size_t n = Samples(problem);
  const double overhead = problem.per_instance_cpu_overhead_cores;
  double peak_cpu = 0, peak_ram = 0;
  for (size_t t = 0; t < n; ++t) {
    double cpu = 0, ram = 0;
    for (const auto& w : problem.workloads) {
      cpu += w.replicas * std::max(0.0, w.cpu_cores.at(t) - overhead);
      ram += w.replicas * w.ram_bytes.at(t);
    }
    peak_cpu = std::max(peak_cpu, cpu);
    peak_ram = std::max(peak_ram, ram);
  }
  // Best headroomed capacity per unit cost on each axis. Overheads are left
  // out of the capacity, which only loosens (lowers) the bound.
  double cpu_per_cost = 0, ram_per_cost = 0;
  for (const auto& c : problem.fleet.classes) {
    if (c.drained || c.cost_weight <= 0) continue;
    cpu_per_cost = std::max(
        cpu_per_cost, c.spec.StandardCores() * problem.cpu_headroom / c.cost_weight);
    ram_per_cost = std::max(
        ram_per_cost,
        static_cast<double>(c.spec.ram_bytes) * problem.ram_headroom / c.cost_weight);
  }
  if (cpu_per_cost <= 0 || ram_per_cost <= 0) return 0;
  return std::max(peak_cpu / cpu_per_cost, peak_ram / ram_per_cost);
}

void CheckPlan(const ConsolidationProblem& problem,
               const kairos::core::ConsolidationPlan& plan,
               const std::string& label, Outcome* out) {
  out->Op(plan.feasible, label + ": plan infeasible");
  if (!plan.feasible) return;
  const Audit audit =
      AuditPlan(problem, plan.assignment.server_of_slot, problem.ServerCap());
  const bool cost_ok = std::fabs(audit.fleet_cost - plan.fleet_cost) <=
                           1e-9 * std::max(1.0, plan.fleet_cost) &&
                       audit.servers_used == plan.servers_used;
  const bool bound_ok = plan.fleet_cost >= FleetCostLowerBound(problem) - 1e-9;
  out->Op(audit.ok && cost_ok && bound_ok, label + ": audit");
  if (!audit.ok) out->Wrong(label + ": feasible plan fails audit: " + audit.why);
  if (!cost_ok) out->Wrong(label + ": fleet cost differs from the audit");
  if (!bound_ok) out->Wrong(label + ": fleet cost below the lower bound");
}

}  // namespace perfbench
