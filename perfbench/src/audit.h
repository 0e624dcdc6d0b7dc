// Independent plan auditor. It re-derives feasibility and fleet cost of a
// placement from the raw WorkloadProfiles and the fleet's MachineSpecs with
// its own arithmetic; it uses no LoadAccountant, Evaluator or BoundEngine,
// so a defect in the program's evaluation cannot hide from it.
#ifndef KAIROS_PERFBENCH_AUDIT_H_
#define KAIROS_PERFBENCH_AUDIT_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "core/problem.h"

namespace perfbench {

struct Audit {
  bool ok = true;
  std::string why;  ///< First violated rule (empty when ok).
  double fleet_cost = 0;
  int servers_used = 0;
};

/// Checks `assignment` (server per slot, slots in workload-replica order)
/// against `problem` with servers [0, server_cap):
///   * every slot on a server in [0, server_cap), none on a drained class;
///   * replicas of one workload on distinct servers;
///   * pins and anti-affinity pairs honoured;
///   * per server and sample, CPU and RAM sums within headroomed capacity;
///   * the update rate within the class disk model's headroomed
///     sustainable rate at the server's combined working set.
/// Also recomputes the fleet cost from the class cost weights (set even when
/// a capacity rule fails).
Audit AuditPlan(const kairos::core::ConsolidationProblem& problem,
                const std::vector<int>& assignment, int server_cap);

/// A fleet-cost lower bound of the benchmark's own: the peak aggregate
/// CPU and RAM demand over the best capacity per unit cost among the
/// fleet's placable classes. Every feasible plan costs at least this much.
double FleetCostLowerBound(const kairos::core::ConsolidationProblem& problem);

/// Counts `plan` as one solve, failed when the program reports it
/// infeasible, and a feasible plan as one audit: the auditor must accept it
/// with the plan's fleet cost and server count, and the cost must reach
/// FleetCostLowerBound. A failed audit is also a wrong output.
void CheckPlan(const kairos::core::ConsolidationProblem& problem,
               const kairos::core::ConsolidationPlan& plan,
               const std::string& label, Outcome* out);

}  // namespace perfbench

#endif  // KAIROS_PERFBENCH_AUDIT_H_
