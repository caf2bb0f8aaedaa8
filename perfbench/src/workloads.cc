#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <utility>

#include "bench/bench_util.h"
#include "calibrate.h"
#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/workload/generator.h"
#include "trace.h"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(3);
    // Fig 12(b): fresh-name creates spread over 1024 directories. Proactive
    // aggregation, per-directory push sections and dirty-set traffic do
    // most of the work (the directory-count collapse).
    w[0].name = "create_spread";
    w[0].servers = 16;
    w[0].dirs = 1024;
    w[0].ops = 20000;
    w[0].rep_seconds = 3;
    // Fig 12(a): the same creates into one directory. Push batching into
    // the owner's shard lanes carries the load; proactive aggregation all
    // but disappears, so this is the bypass control for that machinery.
    w[1].name = "create_hotdir";
    w[1].servers = 16;
    w[1].dirs = 1;
    w[1].ops = 40000;
    w[1].rep_seconds = 1.25;
    // Fig 19 synthetic: PanguFS mix, 80/20 directory skew, open loop at
    // about 2/3 of the closed-loop peak (2.25 Mops/s). Reads force
    // on-demand aggregation and renames run through the coordinator.
    w[2].name = "mix_open";
    w[2].servers = 8;
    w[2].dirs = 256;
    w[2].files_per_dir = 40;
    w[2].mix = true;
    w[2].offered_kops = 1500;
    w[2].slo_us = 100;
    w[2].ops = 30000;
    w[2].rep_seconds = 1.5;
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

namespace {

namespace core = switchfs::core;
namespace sim = switchfs::sim;
using switchfs::Rng;
using switchfs::Status;
using sim::SimTime;

enum class OpClass : uint8_t {
  kCreate,
  kOpen,
  kStat,
  kSetAttr,
  kUnlink,
  kRename,
  kReaddir,
  kStatDir,
};
constexpr const char* kOpClassNames[] = {"create", "open",   "stat",
                                         "setattr", "unlink", "rename",
                                         "readdir", "statdir"};
constexpr size_t kOpClasses = std::size(kOpClassNames);

const char* Name(OpClass c) { return kOpClassNames[static_cast<size_t>(c)]; }

struct PlannedOp {
  uint64_t id = 0;
  OpClass cls = OpClass::kCreate;
  uint32_t dir = 0;
  std::string name;   // entry inside the directory; empty for directory ops
  std::string name2;  // rename destination
};

// The benchmark's model of the namespace. A name becomes available to later
// operations only after its create returned OK, and a name with an
// operation in flight is withheld from every other operation, so on a
// correct system every planned operation succeeds.
class NamespaceModel {
 public:
  NamespaceModel(std::vector<std::string> paths, int preloaded)
      : dirs_(paths.size()) {
    for (size_t d = 0; d < paths.size(); ++d) {
      dirs_[d].path = std::move(paths[d]);
      for (int i = 0; i < preloaded; ++i) {
        dirs_[d].ready.push_back("f" + std::to_string(i));
      }
    }
  }

  size_t size() const { return dirs_.size(); }
  const std::string& path(uint32_t d) const { return dirs_[d].path; }
  uint64_t entries(uint32_t d) const {
    return dirs_[d].ready.size() + dirs_[d].checked_out;
  }
  // Entry names; exact once no operation is in flight.
  std::vector<std::string> Names(uint32_t d) const {
    std::vector<std::string> names = dirs_[d].ready;
    std::sort(names.begin(), names.end());
    return names;
  }

  // A never-used name. The random part comes from the input seed, so the
  // placement of new inodes differs between seeds.
  std::string Fresh(uint32_t d, char prefix, Rng& rng) {
    char tag[16];
    std::snprintf(tag, sizeof(tag), ".%08llx",
                  static_cast<unsigned long long>(rng.Next() >> 32));
    return prefix + std::to_string(dirs_[d].next_fresh++) + tag;
  }
  // Checks out a random existing name; empty if none is free.
  std::string Take(uint32_t d, Rng& rng) {
    std::vector<std::string>& ready = dirs_[d].ready;
    if (ready.empty()) {
      return {};
    }
    const size_t i = rng.NextBelow(ready.size());
    std::string name = std::move(ready[i]);
    ready[i] = std::move(ready.back());
    ready.pop_back();
    ++dirs_[d].checked_out;
    return name;
  }
  // Returns a checked-out entry under `name` (its old or its new name).
  void Return(uint32_t d, std::string name) {
    --dirs_[d].checked_out;
    dirs_[d].ready.push_back(std::move(name));
  }
  void Remove(uint32_t d) { --dirs_[d].checked_out; }
  void Add(uint32_t d, std::string name) {
    dirs_[d].ready.push_back(std::move(name));
  }

  // Self-test hook: one entry of directory 0 renamed to a name the system
  // never saw (only the listing check can catch that) or, if the directory
  // is empty, a phantom entry (the size check catches it).
  void Corrupt() {
    std::vector<std::string>& ready = dirs_[0].ready;
    if (ready.empty()) {
      ready.push_back("phantom");
    } else {
      ready[0] = "phantom";
    }
  }

 private:
  struct Dir {
    std::string path;
    std::vector<std::string> ready;  // existing, no operation in flight
    uint64_t checked_out = 0;        // existing, an operation in flight
    uint64_t next_fresh = 0;
  };
  std::vector<Dir> dirs_;
};

// Draws the next operation: fresh-name creates over uniformly chosen
// directories, or the PanguFS mix (Tab 5) with 80% of operations on the
// first 20% of directories.
class Planner {
 public:
  Planner(const WorkloadSpec& spec, NamespaceModel* model, uint64_t seed)
      : model_(model),
        rng_(seed),
        mix_(spec.mix),
        sampler_([&] {
          const switchfs::wl::MixRatios m = switchfs::wl::PanguMix();
          const std::pair<double, OpClass> weights[] = {
              {m.open_close, OpClass::kOpen},   {m.stat, OpClass::kStat},
              {m.create, OpClass::kCreate},     {m.unlink, OpClass::kUnlink},
              {m.rename, OpClass::kRename},     {m.chmod, OpClass::kSetAttr},
              {m.readdir, OpClass::kReaddir},   {m.statdir, OpClass::kStatDir},
          };
          std::vector<double> w;
          for (const auto& [weight, cls] : weights) {
            w.push_back(weight);
            classes_.push_back(cls);
          }
          return switchfs::DiscreteSampler(w);
        }()) {}

  PlannedOp Next(uint64_t id) {
    PlannedOp op;
    op.id = id;
    op.cls = mix_ ? classes_[sampler_.Next(rng_)] : OpClass::kCreate;
    op.dir = PickDir();
    switch (op.cls) {
      case OpClass::kCreate:
        op.name = model_->Fresh(op.dir, 'n', rng_);
        break;
      case OpClass::kOpen:
      case OpClass::kStat:
      case OpClass::kSetAttr:
      case OpClass::kUnlink:
      case OpClass::kRename:
        op.name = model_->Take(op.dir, rng_);
        if (op.name.empty()) {
          op.cls = OpClass::kStatDir;  // every name is busy or gone
        } else if (op.cls == OpClass::kRename) {
          op.name2 = model_->Fresh(op.dir, 'r', rng_);
        }
        break;
      case OpClass::kReaddir:
      case OpClass::kStatDir:
        break;
    }
    return op;
  }

  void Complete(const PlannedOp& op, bool ok) {
    switch (op.cls) {
      case OpClass::kCreate:
        if (ok) {
          model_->Add(op.dir, op.name);
        }
        break;
      case OpClass::kOpen:
      case OpClass::kStat:
      case OpClass::kSetAttr:
        model_->Return(op.dir, op.name);
        break;
      case OpClass::kUnlink:
        if (ok) {
          model_->Remove(op.dir);
        } else {
          model_->Return(op.dir, op.name);
        }
        break;
      case OpClass::kRename:
        model_->Return(op.dir, ok ? op.name2 : op.name);
        break;
      case OpClass::kReaddir:
      case OpClass::kStatDir:
        break;
    }
  }

 private:
  uint32_t PickDir() {
    const size_t n = model_->size();
    if (!mix_ || n < 5) {
      return static_cast<uint32_t>(rng_.NextBelow(n));
    }
    const size_t hot = n / 5;
    if (rng_.NextBool(0.8)) {
      return static_cast<uint32_t>(rng_.NextBelow(hot));
    }
    return static_cast<uint32_t>(hot + rng_.NextBelow(n - hot));
  }

  NamespaceModel* model_;
  Rng rng_;
  bool mix_;
  std::vector<OpClass> classes_;  // filled by sampler_'s initializer
  switchfs::DiscreteSampler sampler_;
};

sim::Task<Status> Execute(core::MetadataService& c, const PlannedOp& op,
                          const std::string& dir) {
  const std::string path = dir + "/" + op.name;
  switch (op.cls) {
    case OpClass::kCreate:
      co_return co_await c.Create(path);
    case OpClass::kOpen: {
      auto r = co_await c.Open(path);
      co_return r.status();
    }
    case OpClass::kStat: {
      auto r = co_await c.Stat(path);
      co_return r.status();
    }
    case OpClass::kSetAttr: {
      core::AttrDelta delta;
      delta.set_mode = true;
      delta.mode = 0640;
      co_return co_await c.SetAttr(path, delta);
    }
    case OpClass::kUnlink:
      co_return co_await c.Unlink(path);
    case OpClass::kRename:
      co_return co_await c.Rename(path, dir + "/" + op.name2);
    case OpClass::kReaddir: {
      auto r = co_await c.Readdir(dir);
      co_return r.status();
    }
    case OpClass::kStatDir: {
      auto r = co_await c.StatDir(dir);
      co_return r.status();
    }
  }
  co_return switchfs::InternalError("unknown op class");
}

struct OpRecord {
  SimTime due = 0;  // start time (closed loop) or arrival time (open loop)
  SimTime end = 0;
  OpClass cls = OpClass::kCreate;
  bool ok = false;
};

// Shared state of one repetition's load generator.
struct LoadState {
  sim::Simulator* sim = nullptr;
  NamespaceModel* model = nullptr;
  Planner* planner = nullptr;
  Tracer* tracer = nullptr;
  uint64_t total = 0;
  uint64_t started = 0;
  uint64_t done = 0;
  std::vector<OpRecord> records;
  std::map<std::string, uint64_t> failures;
  // Open loop.
  double mean_gap_ns = 0;
  Rng arrival_rng;
  double next_due_ns = 0;
  uint64_t arrivals = 0;
  uint64_t bench_events = 0;  // events the generator itself scheduled
  std::vector<core::MetadataService*> idle;
  std::deque<SimTime> backlog;  // due times waiting for a free client

  PlannedOp Start() { return planner->Next(started++); }

  void Finish(const PlannedOp& op, const Status& s, SimTime due) {
    const SimTime now = sim->Now();
    records[op.id] = OpRecord{due, now, op.cls, s.ok()};
    planner->Complete(op, s.ok());
    ++done;
    if (!s.ok()) {
      ++failures[std::string(switchfs::StatusCodeName(s.code()))];
    }
    if (tracer != nullptr) {
      tracer->AddOp({op.id, Name(op.cls), due, now, s.ok()});
    }
  }
};

sim::Task<void> ClosedWorker(LoadState* st, core::MetadataService* client) {
  while (st->started < st->total) {
    const PlannedOp op = st->Start();
    const SimTime start = st->sim->Now();
    const Status s = co_await Execute(*client, op, st->model->path(op.dir));
    st->Finish(op, s, start);
  }
}

// Serves the arrival due at `due`, then any arrivals that queued up while
// every client was busy; latency counts from each arrival's due time.
sim::Task<void> OpenWorker(LoadState* st, core::MetadataService* client,
                           SimTime due) {
  for (;;) {
    const PlannedOp op = st->Start();
    const Status s = co_await Execute(*client, op, st->model->path(op.dir));
    st->Finish(op, s, due);
    if (st->backlog.empty()) {
      break;
    }
    due = st->backlog.front();
    st->backlog.pop_front();
  }
  st->idle.push_back(client);
}

void OnArrival(LoadState* st);

void ScheduleArrival(LoadState* st) {
  if (st->arrivals >= st->total) {
    return;
  }
  ++st->arrivals;
  ++st->bench_events;
  st->next_due_ns += st->arrival_rng.NextExponential(st->mean_gap_ns);
  st->sim->ScheduleAt(std::llround(st->next_due_ns), [st] { OnArrival(st); });
}

void OnArrival(LoadState* st) {
  const SimTime due = st->sim->Now();
  ScheduleArrival(st);
  if (st->idle.empty()) {
    st->backlog.push_back(due);
    return;
  }
  core::MetadataService* client = st->idle.back();
  st->idle.pop_back();
  sim::Spawn(OpenWorker(st, client, due));
}

// Drives the simulator one event at a time; with a tracer, each step is a
// host-time span and queues are sampled as simulated time advances.
class Engine {
 public:
  Engine(core::Cluster& cluster, Tracer* tracer)
      : cluster_(cluster), sim_(cluster.sim()), tracer_(tracer) {}

  bool Step() {
    if (tracer_ == nullptr) {
      if (!sim_.Step()) {
        return false;
      }
      ++steps_;
      return true;
    }
    const int64_t start = HostNowNs();
    if (!sim_.Step()) {
      return false;
    }
    tracer_->AddStep(start, HostNowNs() - start);
    ++steps_;
    tracer_->MaybeSample(sim_.Now(), cluster_);
    return true;
  }

  uint64_t steps() const { return steps_; }

 private:
  core::Cluster& cluster_;
  sim::Simulator& sim_;
  Tracer* tracer_;
  uint64_t steps_ = 0;
};

// Steps until every change-log has drained. Counting the pending entries
// scans every server's change-logs, too slow to repeat after each of the
// ~10^5 events of a settle, so the count is taken at the first event on or
// after each tick of simulated time: settle times resolve to one tick.
// Even once per tick, a full count on create_spread's 16 servers added
// about 1 s (a third) to a repetition's host time on a 4-core Xeon VM, so
// servers are checked one at a time, skipping those already seen drained,
// and a full count confirms the end.
constexpr SimTime kSettleTick = sim::Microseconds(1);

bool Settle(core::Cluster& cluster, Engine& engine) {
  uint32_t next = 0;  // servers before `next` were seen drained
  SimTime next_tick = cluster.sim().Now();
  for (;;) {
    if (cluster.sim().Now() >= next_tick) {
      while (next < cluster.ServerCount() &&
             cluster.server(next).PendingChangeLogEntries() == 0) {
        ++next;
      }
      if (next == cluster.ServerCount()) {
        if (cluster.TotalPendingChangeLogEntries() == 0) {
          return true;
        }
        next = 0;
      }
      next_tick = cluster.sim().Now() + kSettleTick;
    }
    if (!engine.Step()) {
      return false;
    }
  }
}

struct CheckState {
  bool done = false;
  std::string error;
};

// After settle: every directory's size (one BatchStatDir) and the full
// listing of a sample of directories must equal the model.
sim::Task<void> CheckEndState(core::MetadataService* client,
                              const NamespaceModel* model,
                              std::vector<uint32_t> listed, CheckState* out) {
  std::vector<std::string> paths;
  for (uint32_t d = 0; d < model->size(); ++d) {
    paths.push_back(model->path(d));
  }
  const auto attrs = co_await client->BatchStatDir(paths);
  for (uint32_t d = 0; d < model->size() && out->error.empty(); ++d) {
    if (!attrs[d].ok()) {
      out->error = paths[d] + ": statdir " + attrs[d].status().ToString();
    } else if (attrs[d].value().size != model->entries(d)) {
      out->error = paths[d] + ": size " +
                   std::to_string(attrs[d].value().size) + ", model " +
                   std::to_string(model->entries(d));
    }
  }
  for (uint32_t d : listed) {
    if (!out->error.empty()) {
      break;
    }
    const auto listing = co_await client->Readdir(model->path(d));
    if (!listing.ok()) {
      out->error = paths[d] + ": readdir " + listing.status().ToString();
      break;
    }
    std::vector<std::string> names;
    for (const core::DirEntry& e : listing.value()) {
      names.push_back(e.name);
    }
    std::sort(names.begin(), names.end());
    const std::vector<std::string> want = model->Names(d);
    if (names != want) {
      const auto [got, expected] =
          std::mismatch(names.begin(), names.end(), want.begin(), want.end());
      out->error = paths[d] + ": readdir lists " +
                   std::to_string(names.size()) + " names, model " +
                   std::to_string(want.size()) + "; first difference '" +
                   (got == names.end() ? "" : *got) + "' vs '" +
                   (expected == want.end() ? "" : *expected) + "'";
    }
  }
  out->done = true;
}

// Nearest-rank quantile of a sorted sample, in microseconds.
double QuantileUs(const std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sim::ToMicros(sorted[std::max<size_t>(rank, 1) - 1]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Members are destroyed bottom-up: the cluster goes before the switch
// wrapper and the tracer it points at.
struct Setup {
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<ForwardingSwitch> fwd;
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<NamespaceModel> model;
  std::vector<std::unique_ptr<core::MetadataService>> clients;
};

// Builds the cluster, preloads the namespace, warms every client and puts
// the forwarding switch in front of the data plane.
Setup BuildSetup(const WorkloadSpec& spec, bool traced) {
  Setup s;
  if (traced) {
    s.tracer = std::make_unique<Tracer>();
  }
  s.cluster = switchfs::bench::MakeSwitchFs(spec.servers);
  s.fwd = std::make_unique<ForwardingSwitch>(s.cluster->data_plane(),
                                             s.tracer.get());
  s.cluster->network().SetSwitch(s.fwd.get());
  std::vector<std::string> dirs = switchfs::wl::PreloadDirs(*s.cluster,
                                                            spec.dirs);
  if (spec.files_per_dir > 0) {
    switchfs::wl::PreloadFiles(*s.cluster, dirs, spec.files_per_dir);
  }
  s.model = std::make_unique<NamespaceModel>(std::move(dirs),
                                             spec.files_per_dir);
  for (int i = 0; i <= kInFlight; ++i) {  // the extra one runs the check
    s.clients.push_back(s.cluster->NewClient(/*warm=*/true));
  }
  return s;
}

}  // namespace

double MeasureSetupSeconds(const WorkloadSpec& spec) {
  const int64_t start = HostNowNs();
  Setup s = BuildSetup(spec, /*traced=*/false);
  return static_cast<double>(HostNowNs() - start) / 1e9;
}

RepResult RunRepetition(const WorkloadSpec& spec, const RepOptions& opts) {
  RepResult result;
  // Before set-up, while the process holds nothing of SwitchFS, so the
  // program's own heap cannot move the probe.
  result.host["calib_s"] = CalibrationSeconds();
  const int64_t setup_start = HostNowNs();
  Setup setup = BuildSetup(spec, opts.traced);
  core::Cluster& cluster = *setup.cluster;
  Tracer* tracer = setup.tracer.get();
  result.host["setup_s"] =
      static_cast<double>(HostNowNs() - setup_start) / 1e9;

  Planner planner(spec, setup.model.get(), opts.seed);
  LoadState st;
  st.sim = &cluster.sim();
  st.model = setup.model.get();
  st.planner = &planner;
  st.tracer = tracer;
  st.total = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(spec.ops) * opts.scale), 200);
  st.records.resize(st.total);
  const uint64_t warmup = st.total / 10;

  Engine engine(cluster, tracer);
  const SimTime sim_start = cluster.sim().Now();
  const auto stats0 = cluster.TotalStats();
  const auto dp0 = cluster.data_plane()->stats();
  const auto net0 = cluster.network().stats();
  std::vector<SimTime> busy0;
  for (uint32_t i = 0; i < cluster.ServerCount(); ++i) {
    busy0.push_back(cluster.server(i).cpu().busy_time());
  }

  const int64_t run_start = HostNowNs();
  if (spec.offered_kops > 0) {
    st.mean_gap_ns = 1e6 / spec.offered_kops;
    st.arrival_rng.Seed(opts.seed ^ 0xa5a5a5a5a5a5a5a5ULL);
    st.next_due_ns = static_cast<double>(sim_start);
    for (int i = 0; i < kInFlight; ++i) {
      st.idle.push_back(setup.clients[i].get());
    }
    ScheduleArrival(&st);
  } else {
    for (int i = 0; i < kInFlight; ++i) {
      sim::Spawn(ClosedWorker(&st, setup.clients[i].get()));
    }
  }
  while (st.done < st.total) {
    if (!engine.Step()) {
      result.error = "event queue ran dry with operations outstanding";
      return result;
    }
  }
  SimTime last_end = 0;
  for (const OpRecord& r : st.records) {
    last_end = std::max(last_end, r.end);
  }
  if (!Settle(cluster, engine)) {
    result.error = "event queue ran dry with change-log entries pending";
    return result;
  }
  const SimTime settled = cluster.sim().Now();
  const double run_host_s =
      static_cast<double>(HostNowNs() - run_start) / 1e9;

  // --- metrics, taken at settle before the check adds its own traffic ---
  const double ops = static_cast<double>(st.total);
  std::vector<SimTime> lat;
  std::vector<std::vector<SimTime>> by_class(kOpClasses);
  SimTime window_start = st.records[warmup].due;
  SimTime window_end = 0;
  uint64_t slo_misses = 0;
  for (uint64_t i = warmup; i < st.total; ++i) {
    const OpRecord& r = st.records[i];
    window_start = std::min(window_start, r.due);
    window_end = std::max(window_end, r.end);
    lat.push_back(r.end - r.due);
    by_class[static_cast<size_t>(r.cls)].push_back(r.end - r.due);
    if (!r.ok || sim::ToMicros(r.end - r.due) > spec.slo_us) {
      ++slo_misses;
    }
  }
  std::sort(lat.begin(), lat.end());
  auto& m = result.sim;
  m["throughput_kops"] = static_cast<double>(lat.size()) /
                         sim::ToSeconds(window_end - window_start) / 1e3;
  m["latency_p50_us"] = QuantileUs(lat, 0.50);
  m["latency_p99_us"] = QuantileUs(lat, 0.99);
  m["latency_samples"] = static_cast<double>(lat.size());
  m["changelog.settle_ms"] = sim::ToSeconds(settled - last_end) * 1e3;
  if (spec.slo_us > 0) {
    m["slo_miss_ratio"] =
        static_cast<double>(slo_misses) / static_cast<double>(lat.size());
  }
  for (size_t c = 0; c < kOpClasses; ++c) {
    std::sort(by_class[c].begin(), by_class[c].end());
    const std::string prefix = std::string("client.") + kOpClassNames[c];
    m[prefix + ".p50_us"] = QuantileUs(by_class[c], 0.50);
    m[prefix + ".p99_us"] = QuantileUs(by_class[c], 0.99);
    m[prefix + ".ops"] = static_cast<double>(by_class[c].size());
  }

  m["sim.events_per_op"] =
      static_cast<double>(engine.steps() - st.bench_events) / ops;
  const auto stats = cluster.TotalStats();
  const double aggs =
      static_cast<double>(stats.aggregations - stats0.aggregations);
  m["agg.per_op"] = aggs / ops;
  m["agg.retries_per_agg"] =
      Ratio(static_cast<double>(stats.agg_retries - stats0.agg_retries), aggs);
  const double pushes =
      static_cast<double>(stats.pushes_sent - stats0.pushes_sent);
  const double push_failures =
      static_cast<double>(stats.push_failures - stats0.push_failures);
  m["push.packets_per_op"] = pushes / ops;
  m["push.entries_per_packet"] = Ratio(
      static_cast<double>(stats.push_entries_sent - stats0.push_entries_sent),
      pushes);
  m["push.success_ratio"] = Ratio(pushes, pushes + push_failures);
  m["push.failures"] = push_failures;
  m["push.paced_drains"] =
      static_cast<double>(stats.push_paced_drains - stats0.push_paced_drains);
  m["server.fallbacks"] =
      static_cast<double>(stats.fallbacks - stats0.fallbacks);
  m["tracker.insert_exhausted"] =
      static_cast<double>(stats.insert_exhausted - stats0.insert_exhausted);
  const auto& dp = cluster.data_plane()->stats();
  m["pswitch.inserts_per_op"] =
      static_cast<double>(dp.inserts - dp0.inserts) / ops;
  m["pswitch.queries_per_op"] =
      static_cast<double>(dp.queries - dp0.queries) / ops;
  m["pswitch.removes_per_op"] =
      static_cast<double>(dp.removes - dp0.removes) / ops;
  m["pswitch.multicast_per_op"] =
      static_cast<double>(dp.multicast_packets - dp0.multicast_packets) / ops;
  m["pswitch.insert_fallbacks"] =
      static_cast<double>(dp.insert_fallbacks - dp0.insert_fallbacks);
  const auto& net = cluster.network().stats();
  m["net.packets_per_op"] =
      static_cast<double>(net.packets_sent - net0.packets_sent) / ops;
  m["net.dropped"] =
      static_cast<double>(net.packets_dropped - net0.packets_dropped);
  double util_sum = 0;
  double util_max = 0;
  for (uint32_t i = 0; i < cluster.ServerCount(); ++i) {
    sim::CpuPool& cpu = cluster.server(i).cpu();
    const double util =
        static_cast<double>(cpu.busy_time() - busy0[i]) /
        (static_cast<double>(settled - sim_start) * cpu.cores());
    util_sum += util;
    util_max = std::max(util_max, util);
  }
  m["server.cpu_util_mean"] = util_sum / cluster.ServerCount();
  m["server.cpu_util_max"] = util_max;
  double keys = 0;
  for (uint32_t i = 0; i < cluster.ServerCount(); ++i) {
    keys += static_cast<double>(cluster.server(i).KvSize());
  }
  m["kv.keys_total"] = keys;
  if (tracer != nullptr) {
    m["server.runq_mean"] = tracer->runq_mean();
    m["server.runq_max"] = tracer->runq_max();
    m["changelog.backlog_peak"] = tracer->backlog_peak();
    result.host["sim.host_ns_per_event"] = Ratio(
        static_cast<double>(tracer->step_ns()), tracer->step_count());
    result.host["pswitch.host_ns_per_packet"] = Ratio(
        static_cast<double>(tracer->switch_ns()), tracer->switch_count());
  }
  result.host["run_host_s"] = run_host_s;
  result.host["host_us_per_op"] = run_host_s * 1e6 / ops;
  result.attempted = st.total;
  result.failed = 0;
  for (const auto& [code, n] : st.failures) {
    result.failed += n;
  }
  result.failures_by_status = st.failures;

  // --- end-state check ---
  if (opts.corrupt_model) {
    setup.model->Corrupt();
  }
  std::vector<uint32_t> listed = {0};
  Rng pick(opts.seed ^ 0x5151515151515151ULL);
  for (int i = 0; i < 15 && setup.model->size() > 16; ++i) {
    listed.push_back(static_cast<uint32_t>(
        1 + pick.NextBelow(setup.model->size() - 1)));
  }
  CheckState check;
  sim::Spawn(CheckEndState(setup.clients[kInFlight].get(), setup.model.get(),
                           listed, &check));
  while (!check.done) {
    if (!cluster.sim().Step()) {
      check.error = "event queue ran dry during the end-state check";
      break;
    }
  }
  // Let the protocol's timers run out (about 2 simulated seconds, a few
  // host milliseconds) so every coroutine frame completes before teardown.
  cluster.sim().Run();
  if (!check.error.empty()) {
    result.error = "end-state check failed: " + check.error;
    return result;
  }
  if (tracer != nullptr && !opts.trace_path.empty() &&
      !tracer->Write(opts.trace_path)) {
    result.error = "cannot write " + opts.trace_path;
    return result;
  }
  result.correct = true;
  return result;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
