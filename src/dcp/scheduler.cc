#include "dcp/scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <queue>
#include <thread>

#include "common/trace_context.h"
#include "obs/tracer.h"

namespace polaris::dcp {

using common::Result;
using common::Status;

namespace {

/// Deterministic per-(seed, task, attempt) failure decision, independent of
/// thread interleavings.
bool HashBernoulli(uint64_t seed, uint64_t task_id, uint32_t attempt,
                   double p) {
  if (p <= 0.0) return false;
  uint64_t s = seed ^ (task_id * 0x9e3779b97f4a7c15ULL) ^
               (static_cast<uint64_t>(attempt) * 0xbf58476d1ce4e5b9ULL);
  uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  double u = static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
  return u < p;
}

}  // namespace

Scheduler::Scheduler(const Topology* topology, size_t worker_threads)
    : topology_(topology),
      pool_(worker_threads != 0 ? worker_threads
                                : std::max<size_t>(
                                      2, std::thread::hardware_concurrency())) {
}

Result<JobMetrics> Scheduler::Run(const TaskDag& dag,
                                  const std::string& pool_name,
                                  uint32_t max_parallelism) {
  auto pool_it = topology_->pools.find(pool_name);
  if (pool_it == topology_->pools.end()) {
    return Status::InvalidArgument("unknown pool: " + pool_name);
  }
  const NodePool& node_pool = pool_it->second;
  const size_t n = dag.tasks.size();

  JobMetrics metrics;
  if (n == 0) return metrics;

  // --- Node allocation ------------------------------------------------------
  common::Micros total_cost = 0;
  for (const auto& task : dag.tasks) {
    total_cost += topology_->cost_model.TaskMicros(task.cost);
  }
  uint32_t nodes;
  if (node_pool.mode == AllocationMode::kFixed) {
    nodes = node_pool.node_count;
  } else {
    uint32_t cap = max_parallelism != 0 ? max_parallelism
                                        : static_cast<uint32_t>(n);
    if (node_pool.max_nodes != 0) cap = std::min(cap, node_pool.max_nodes);
    nodes = topology_->allocator.NodesFor(total_cost, cap);
  }
  if (nodes == 0) nodes = 1;
  metrics.nodes_used = nodes;

  // --- Dependency bookkeeping ----------------------------------------------
  std::vector<std::vector<uint64_t>> dependents(n);
  std::vector<int> pending(n, 0);
  for (const auto& task : dag.tasks) {
    for (uint64_t dep : task.depends_on) {
      if (dep >= n) {
        return Status::InvalidArgument("task depends on unknown task");
      }
      dependents[dep].push_back(task.id);
      ++pending[task.id];
    }
  }

  TaskFailurePolicy policy;
  obs::MetricsRegistry* metrics_registry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    policy = failure_policy_;
    metrics_registry = metrics_;
  }

  // --- Real execution on the thread pool ------------------------------------
  struct JobState {
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
    size_t completed = 0;
    bool failed = false;
    Status error;
    std::vector<uint32_t> attempts_used;
  };
  auto state = std::make_shared<JobState>();
  state->attempts_used.assign(n, 1);

  // RunTask executes one task with retries, then schedules dependents.
  std::function<void(uint64_t)> submit_task;
  auto run_task = [this, &dag, state, &dependents, &pending, policy, nodes,
                   &submit_task](uint64_t id) {
    const Task& task = dag.tasks[id];
    Status result = Status::OK();
    uint32_t attempt = 1;
    for (; attempt <= kMaxAttempts; ++attempt) {
      // The submitting statement's deadline rode in on the trace binding;
      // don't restart a task whose statement is already dead. Cancelled /
      // DeadlineExceeded are not Unavailable, so the retry loop below also
      // stops on them.
      result = common::CheckCurrentDeadline("dcp.task." + task.kind);
      if (!result.ok()) break;
      bool injected = HashBernoulli(policy.seed, id, attempt,
                                    policy.failure_probability);
      if (injected && !policy.after_work) {
        result = Status::Unavailable("injected node failure (pre-work)");
        continue;
      }
      TaskContext ctx;
      ctx.node_id = static_cast<uint32_t>(id % nodes);
      ctx.attempt = attempt;
      // One child span per attempt (context arrived via ThreadPool::Submit).
      obs::Span span(("dcp.task." + task.kind).c_str());
      span.AddAttr("task_id", id);
      span.AddAttr("node", ctx.node_id);
      span.AddAttr("attempt", attempt);
      result = task.work ? task.work(ctx) : Status::OK();
      if (injected && result.ok()) {
        // Node died after doing the work: side effects persist, the DCP
        // sees a failure and will re-run the task.
        result = Status::Unavailable("injected node failure (post-work)");
      }
      if (!result.ok()) span.AddAttr("error", result.ToString());
      if (result.ok() || !result.IsUnavailable()) break;
    }
    if (attempt > kMaxAttempts) attempt = kMaxAttempts;

    std::vector<uint64_t> ready;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->attempts_used[id] = attempt;
      --state->outstanding;
      if (!result.ok()) {
        if (!state->failed) {
          state->failed = true;
          state->error = result;
        }
      } else {
        ++state->completed;
        if (!state->failed) {
          for (uint64_t dep_id : dependents[id]) {
            if (--pending[dep_id] == 0) ready.push_back(dep_id);
          }
        }
      }
      state->outstanding += ready.size();
    }
    for (uint64_t r : ready) submit_task(r);
    state->cv.notify_all();
  };
  submit_task = [this, run_task](uint64_t id) {
    pool_.Submit([run_task, id] { run_task(id); });
  };

  {
    std::lock_guard<std::mutex> lock(state->mu);
    for (uint64_t id = 0; id < n; ++id) {
      if (pending[id] == 0) ++state->outstanding;
    }
  }
  for (uint64_t id = 0; id < n; ++id) {
    if (dag.tasks[id].depends_on.empty()) submit_task(id);
  }

  std::vector<uint32_t> attempts;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->outstanding == 0 &&
             (state->failed || state->completed == n);
    });
    if (state->failed) return state->error;
    if (state->completed != n) {
      return Status::Internal("task DAG has a cycle or unreachable tasks");
    }
    attempts = state->attempts_used;
  }

  // --- Deterministic virtual-time list scheduling ---------------------------
  // Earliest-ready-first; ties by task id; each task goes to the node that
  // frees up first. Retried attempts consume node time too.
  std::vector<common::Micros> ready_time(n, 0);
  std::vector<common::Micros> finish_time(n, 0);
  std::vector<int> vpending(n, 0);
  for (const auto& task : dag.tasks) {
    vpending[task.id] = static_cast<int>(task.depends_on.size());
  }
  using QEntry = std::pair<common::Micros, uint64_t>;  // (ready, id)
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> ready_q;
  for (uint64_t id = 0; id < n; ++id) {
    if (vpending[id] == 0) ready_q.push({0, id});
  }
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> node_q;
  for (uint32_t i = 0; i < nodes; ++i) node_q.push({0, i});

  size_t scheduled = 0;
  while (!ready_q.empty()) {
    auto [ready_at, id] = ready_q.top();
    ready_q.pop();
    auto [node_free, node] = node_q.top();
    node_q.pop();
    common::Micros start = std::max(ready_at, node_free);
    const TaskCost& effective_cost =
        dag.tasks[id].measured_cost != nullptr
            ? *dag.tasks[id].measured_cost
            : dag.tasks[id].cost;
    common::Micros cost =
        topology_->cost_model.TaskMicros(effective_cost) * attempts[id];
    common::Micros finish = start + cost;
    finish_time[id] = finish;
    metrics.total_compute_micros += cost;
    metrics.makespan_micros = std::max(metrics.makespan_micros, finish);
    metrics.tasks_run += 1;
    metrics.task_retries += attempts[id] - 1;
    node_q.push({finish, node});
    ++scheduled;
    for (uint64_t dep_id : dependents[id]) {
      ready_time[dep_id] = std::max(ready_time[dep_id], finish);
      if (--vpending[dep_id] == 0) {
        ready_q.push({ready_time[dep_id], dep_id});
      }
    }
  }
  if (scheduled != n) {
    return Status::Internal("virtual schedule incomplete (cycle?)");
  }
  if (metrics_registry != nullptr) {
    metrics_registry->Add("dcp.jobs");
    metrics_registry->Add("dcp.tasks_run", metrics.tasks_run);
    metrics_registry->Add("dcp.task_retries", metrics.task_retries);
    metrics_registry->Observe("dcp.makespan_us", metrics.makespan_micros);
  }
  return metrics;
}

}  // namespace polaris::dcp
