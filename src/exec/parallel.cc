#include "exec/parallel.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "obs/merge.h"
#include "sim/scheduler.h"
#include "util/check.h"

namespace ocsp::exec {

namespace {

std::int64_t ns_since(const std::chrono::steady_clock::time_point& epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

// One shard: a host plus the cross-shard envelopes it has sent and not yet
// handed over.  During a window exactly one thread touches the host (its
// worker); between windows, only the coordinator.
struct ParallelRuntime::Shard final : spec::Host {
  using Host::Host;

  /// outbox[dest][parity]: envelopes for shard `dest`'s processes, parked
  /// until `dest` queues them at the start of the next window.  During a
  /// window this shard appends under the runtime's current parity only,
  /// while every destination empties its row of the other parity, so no
  /// vector is touched by two threads at once and none needs a lock.
  std::vector<std::array<std::vector<net::Envelope>, 2>> outbox;
  /// Earliest delivered_at parked since the last barrier (kTimeNever if
  /// none); the coordinator folds it into the next GVT and resets it.
  sim::Time parked_min = sim::kTimeNever;
};

ParallelRuntime::ParallelRuntime(ParallelOptions options)
    : ProcessTable(options.seed, options.spec),
      options_(std::move(options)),
      workers_(std::max(1, options_.workers)) {
  shards_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    // Every shard network draws from the same per-link seed base, so a
    // link's draws do not depend on which shard hosts its sender.
    shards_.push_back(std::make_unique<Shard>(
        net_stream(), options_.default_link, /*per_link=*/true,
        options_.fault_plan, options_.reliable));
    Shard& s = *shards_.back();
    s.outbox.resize(static_cast<std::size_t>(workers_));
    // Cross-shard: delivered_at >= now + lookahead lands at or after the
    // window fence, so parking it until the next window never delays it
    // past its due time.
    const auto self = static_cast<std::size_t>(i);
    s.network().set_router([this, &s, self](const net::Envelope& env) {
      const std::size_t dest = shard_of(env.dst);
      if (dest == self) return false;
      s.outbox[dest][parity_].push_back(env);
      s.parked_min = std::min(s.parked_min, env.delivered_at);
      return true;
    });
    s.set_compute_hook([this](sim::Time duration) { burn(duration); });
  }
}

ParallelRuntime::~ParallelRuntime() { stop_workers(); }

spec::Host& ParallelRuntime::host_for(ProcessId id) {
  return *shards_[shard_of(id)];
}

void ParallelRuntime::set_link(ProcessId src, ProcessId dst,
                               net::LinkConfig config) {
  OCSP_CHECK_MSG(!started(), "set_link after run() started");
  // Only the sender's network ever draws for the link.
  host_for(src).network().set_link(src, dst, std::move(config));
}

void ParallelRuntime::burn(sim::Time duration) const {
  if (options_.compute_scale <= 0.0 || duration <= 0) return;
  const auto spin = std::chrono::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(duration) * options_.compute_scale));
  // This wall time stands in for the real computation a Compute statement
  // models, and is what the speedup curves parallelize.  It never touches
  // virtual time, so traces and counters are scale-independent.  Sleeping
  // yields the core (overlap is visible even on a host with fewer cores
  // than workers); spinning occupies it (raw CPU scaling).
  if (options_.compute_sleep) {
    std::this_thread::sleep_for(spin);
    return;
  }
  const auto until = std::chrono::steady_clock::now() + spin;
  while (std::chrono::steady_clock::now() < until) {
  }
}

void ParallelRuntime::start_workers() {
  if (workers_ <= 1 || !pool_.empty()) return;
  pool_.reserve(static_cast<std::size_t>(workers_ - 1));
  // Shard 0 runs on the coordinator thread; shards 1..N-1 get workers.
  for (int i = 1; i < workers_; ++i) {
    pool_.emplace_back([this, i]() {
      std::uint64_t seen = 0;
      for (;;) {
        sim::Time target = 0;
        {
          std::unique_lock<std::mutex> lk(bar_.m);
          bar_.cv.wait(lk,
                       [&]() { return bar_.shutdown || bar_.epoch != seen; });
          if (bar_.shutdown) return;
          seen = bar_.epoch;
          target = bar_.target;
        }
        run_shard(static_cast<std::size_t>(i), target);
        {
          std::lock_guard<std::mutex> lk(bar_.m);
          if (--bar_.running == 0) bar_.cv.notify_all();
        }
      }
    });
  }
}

void ParallelRuntime::stop_workers() {
  if (pool_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(bar_.m);
    bar_.shutdown = true;
  }
  bar_.cv.notify_all();
  for (auto& t : pool_) t.join();
  pool_.clear();
}

void ParallelRuntime::run_shard(std::size_t i, sim::Time target) {
  // Queue what every shard parked for this one in the window that just
  // ended, before running any event: the last window wrote the parity the
  // coordinator has since flipped away from, and nothing writes it now.
  Shard& shard = *shards_[i];
  for (auto& s : shards_) {
    std::vector<net::Envelope>& box = s->outbox[i][parity_ ^ 1];
    for (net::Envelope& env : box) shard.network().deliver(std::move(env));
    box.clear();
  }
  shard.scheduler().run_until(target);
}

void ParallelRuntime::run_window(sim::Time target) {
  if (workers_ > 1) {
    {
      std::lock_guard<std::mutex> lk(bar_.m);
      bar_.target = target;
      bar_.running = workers_ - 1;
      ++bar_.epoch;
    }
    bar_.cv.notify_all();
  }
  run_shard(0, target);
  if (workers_ > 1) {
    std::unique_lock<std::mutex> lk(bar_.m);
    bar_.cv.wait(lk, [&]() { return bar_.running == 0; });
  }
}

sim::Time ParallelRuntime::run(sim::Time deadline) {
  OCSP_CHECK_MSG(!started(), "ParallelRuntime::run is single-shot");
  lookahead_ = sim::kTimeNever;
  for (auto& s : shards_) {
    lookahead_ = std::min(lookahead_, s->network().min_link_delay());
  }
  OCSP_CHECK_MSG(lookahead_ > 0,
                 "parallel execution needs a positive minimum link latency");

  const auto epoch = std::chrono::steady_clock::now();
  for (auto& s : shards_) {
    s->recorder().set_wall_clock([epoch]() { return ns_since(epoch); });
  }
  // A crash at virtual time T sits in the victim's shard queue and takes
  // part in GVT like any pending event, so it fires inside the window
  // containing T; its incarnation bump reaches remote dependents as
  // ordinary messages through the outboxes handed over at the next window.
  // Sends made here park under the first parity and count toward the
  // first GVT.
  start(options_.fault_plan);
  start_workers();

  for (;;) {
    // (1) GVT: earliest pending event or parked envelope anywhere.  Workers
    // wait at the barrier, so reading shard state here is single-threaded.
    // An envelope parked in the last window is not queued yet, but it is
    // due no earlier than that window's end.
    sim::Time parked = sim::kTimeNever;
    sim::Time gvt = sim::kTimeNever;
    for (auto& s : shards_) {
      parked = std::min(parked, s->parked_min);
      gvt = std::min(gvt, s->scheduler().next_time());
    }
    gvt = std::min(gvt, parked);
    if (gvt == sim::kTimeNever) break;
    if (deadline != sim::kTimeNever && gvt > deadline) break;

    // (2) Consume the parked minima and flip the parity: each shard queues
    // what the last window parked for it as the next one opens, while new
    // sends park under the other parity.
    for (auto& s : shards_) s->parked_min = sim::kTimeNever;
    parity_ ^= 1;

    // (3) Run the window [gvt, end) on all shards concurrently.  Events in
    // it are cross-shard independent: anything they send lands >= gvt + L.
    const sim::Time end = deadline == sim::kTimeNever
                              ? gvt + lookahead_
                              : std::min(gvt + lookahead_, deadline + 1);
    run_window(end - 1);
    windows_.push_back(WindowStats{gvt, end, parked});
  }

  if (deadline != sim::kTimeNever) return deadline;
  // Clamp to the last event that actually fired anywhere: shard clocks sit
  // at the final window's end, up to one lookahead past the last event,
  // but the sequential scheduler's post-drain clock is its last event.
  sim::Time latest = 0;
  for (auto& s : shards_) {
    latest = std::max(latest, s->scheduler().last_fired());
  }
  return latest;
}

bool ParallelRuntime::drained() const {
  for (const auto& s : shards_) {
    if (!s->scheduler().empty()) return false;
    for (const auto& boxes : s->outbox) {
      for (const auto& box : boxes) {
        if (!box.empty()) return false;
      }
    }
  }
  return true;
}

obs::MetricsRegistry ParallelRuntime::metrics() const {
  obs::MetricsRegistry m = merged_process_metrics();
  for (const auto& s : shards_) s->add_counters(m);
  m.counter("gvt_windows") += windows_.size();
  return m;
}

net::NetworkStats ParallelRuntime::network_stats() const {
  net::NetworkStats total;
  for (const auto& s : shards_) total.merge(s->network().stats());
  return total;
}

std::shared_ptr<obs::RunRecorder> ParallelRuntime::merged_recorder() const {
  std::vector<const obs::RunRecorder*> parts;
  parts.reserve(shards_.size());
  for (const auto& s : shards_) parts.push_back(&s->recorder());
  return obs::merge_recorders(parts);
}

std::shared_ptr<obs::RunRecorder> ParallelRuntime::shard_recorder(
    int shard) const {
  OCSP_CHECK(shard >= 0 && shard < workers_);
  return shards_[static_cast<std::size_t>(shard)]->shared_recorder();
}

ParallelRunResult run_scenario_parallel(const baseline::Scenario& scenario,
                                        int workers, bool speculation,
                                        double compute_scale,
                                        sim::Time deadline,
                                        bool compute_sleep) {
  ParallelOptions options;
  options.seed = scenario.options.seed;
  options.workers = workers;
  options.default_link = scenario.options.default_link;
  options.spec = scenario.options.spec;
  options.fault_plan = scenario.options.fault_plan;
  options.reliable = scenario.options.reliable;
  options.spec.speculation_enabled = speculation;
  options.compute_scale = compute_scale;
  options.compute_sleep = compute_sleep;

  ParallelRuntime rt(options);
  for (const auto& p : scenario.processes) {
    rt.add_process(p.name, p.program, p.env);
  }
  for (const auto& link : scenario.links) {
    rt.set_link(rt.find(link.src), rt.find(link.dst), link.config);
  }

  ParallelRunResult out;
  const auto t0 = std::chrono::steady_clock::now();
  out.result.finished_at = rt.run(deadline);
  out.wall_ns = ns_since(t0);
  out.result.last_completion = rt.last_completion_time();
  out.result.all_completed = rt.all_clients_completed();
  out.result.stalled = rt.drained() && !out.result.all_completed;
  out.result.stats = rt.total_stats();
  out.result.trace = rt.committed_trace();
  out.result.network = rt.network_stats();
  out.result.metrics = rt.metrics();
  out.result.recorder = rt.merged_recorder();
  out.result.process_names = rt.process_names();
  out.windows = rt.windows();
  out.workers = rt.workers();
  out.lookahead = rt.lookahead();
  return out;
}

}  // namespace ocsp::exec
