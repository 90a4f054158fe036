// sdcm_perfbench: the in-process half of the sdcm benchmark (run.py is
// the other half). It links the sdcm libraries and calls only their
// public API, so everything it measures is a call into a layer from
// outside; it adds no instrumentation to the library itself.
//
//   sdcm_perfbench campaign --out=FILE [--pass=timed|profiled|counted]
//                  [--spans=FILE] [--inject-slowdown=F] -- <sdcm_sweep flags>
//     Runs one campaign exactly as `sdcm_sweep <flags>` configures it
//     (same parser, same sinks: --jsonl, --check, --output CSV) and
//     writes one JSON object to FILE: campaign wall time, every run's
//     RunSink wall_ns, per-model KernelStats totals, a digest of every
//     RunRecord, oracle violations, and - depending on the pass - the
//     phase.* timers of ExperimentConfig::profiler (profiled) or the
//     heap allocation count (counted).
//   sdcm_perfbench layers --out=FILE
//     Microbenchmarks of single layers through their public types:
//     EventQueue at two depths, Network multicast/unicast delivery,
//     StreamingSummary::add.
//
// A pass's JSON carries raw values; run.py turns them into metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "sdcm/experiment/cli.hpp"
#include "sdcm/experiment/report.hpp"
#include "sdcm/experiment/sink.hpp"
#include "sdcm/metrics/streaming.hpp"
#include "sdcm/net/network.hpp"
#include "sdcm/obs/profiler.hpp"
#include "sdcm/sim/event_queue.hpp"
#include "sdcm/sim/random.hpp"
#include "sdcm/sim/simulator.hpp"

// ---------------------------------------------------------------------
// Heap allocation counter. The replacement operator new costs one
// relaxed load while counting is off, so timed passes run at the speed
// of the stock allocator; only the counted pass switches it on.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sdcm;
using namespace sdcm::experiment;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

// ---------------------------------------------------------------------
// Minimal JSON writer: flat objects, nested objects and number arrays.
class Json {
 public:
  explicit Json(std::ostream& out) : out_(out) {}

  Json& begin(std::string_view key = {}) {
    sep();
    if (!key.empty()) out_ << '"' << key << "\":";
    out_ << '{';
    first_ = true;
    return *this;
  }
  Json& end() {
    out_ << '}';
    first_ = false;
    return *this;
  }
  Json& num(std::string_view key, std::uint64_t v) {
    sep();
    out_ << '"' << key << "\":" << v;
    return *this;
  }
  Json& num(std::string_view key, double v) {
    sep();
    out_.precision(17);
    out_ << '"' << key << "\":" << v;
    return *this;
  }
  Json& str(std::string_view key, std::string_view v) {
    sep();
    out_ << '"' << key << "\":\"" << v << '"';
    return *this;
  }
  Json& array(std::string_view key, const std::vector<std::uint64_t>& v) {
    sep();
    out_ << '"' << key << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out_ << (i == 0 ? "" : ",") << v[i];
    }
    out_ << ']';
    return *this;
  }

 private:
  void sep() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  std::ostream& out_;
  bool first_ = true;
};

// ---------------------------------------------------------------------
// The benchmark's own RunSink: records each run's wall_ns and counters,
// folds a digest of every RunRecord, checks each record's shape, and
// keeps the run spans for the traced pass. `slowdown` (0 by default)
// busy-waits slowdown x the run's own wall time in every callback - the
// injected regression that shows the benchmark's bounds can trip.
class RecorderSink final : public RunSink {
 public:
  struct Span {
    std::size_t point = 0;
    int run = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  struct ModelTotals {
    std::uint64_t runs = 0;
    sim::KernelStats kernel;
  };

  RecorderSink(int users, double slowdown, bool keep_spans)
      : users_(users), slowdown_(slowdown), keep_spans_(keep_spans) {}

  void on_campaign_begin(const SweepConfig& config,
                         std::uint64_t total) override {
    start_ = Clock::now();
    runs_per_point_ = static_cast<std::size_t>(config.runs);
    wall_ns_.assign(total, 0);
  }

  void on_run(const RunEvent& event) override {
    const auto now = Clock::now();
    const metrics::RunRecord& r = *event.record;
    // Indexed by job, not completion order, so campaigns line up run
    // for run whatever the thread count.
    const std::size_t job = event.point_index * runs_per_point_ +
                            static_cast<std::size_t>(event.run);
    if (job < wall_ns_.size()) {
      wall_ns_[job] = event.wall_ns;
    } else {
      ++malformed_;
    }
    ModelTotals& totals = models_[std::string(to_string(event.model))];
    ++totals.runs;
    sim::accumulate(totals.kernel, r.kernel);
    digest_ += record_hash(event, r);
    if (r.user_reach_times.size() != static_cast<std::size_t>(users_) ||
        r.deadline <= r.change_time || r.kernel.events_fired == 0) {
      ++malformed_;
    }
    if (keep_spans_) {
      const std::uint64_t end = ns_between(start_, now);
      spans_.push_back(Span{event.point_index, event.run,
                            end > event.wall_ns ? end - event.wall_ns : 0,
                            end});
    }
    if (slowdown_ > 0.0) {
      const auto until =
          now + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    slowdown_ * static_cast<double>(event.wall_ns)));
      while (Clock::now() < until) {
      }
    }
  }

  [[nodiscard]] const std::vector<std::uint64_t>& wall_ns() const {
    return wall_ns_;
  }
  [[nodiscard]] const std::map<std::string, ModelTotals>& models() const {
    return models_;
  }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  static std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= h >> 31;
    h *= 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 29);
  }

  // Order-independent (summed) so thread scheduling cannot change it.
  static std::uint64_t record_hash(const RunEvent& e,
                                   const metrics::RunRecord& r) {
    std::uint64_t h = mix(e.point_index, static_cast<std::uint64_t>(e.run));
    h = mix(h, e.seed);
    h = mix(h, static_cast<std::uint64_t>(r.change_time));
    h = mix(h, static_cast<std::uint64_t>(r.deadline));
    for (const auto& reach : r.user_reach_times) {
      h = mix(h, reach ? static_cast<std::uint64_t>(*reach) : ~0ULL);
    }
    h = mix(h, r.update_messages);
    h = mix(h, r.window_messages);
    const sim::KernelStats& k = r.kernel;
    for (const std::uint64_t v :
         {k.events_scheduled, k.events_cancelled, k.events_fired,
          k.peak_heap_size, k.callback_heap_allocs, k.udp_sent,
          k.udp_copies_dropped_tx, k.udp_deliveries_dropped_rx, k.tcp_sent,
          k.tcp_dropped, k.udp_deliveries_skipped, k.trace_records}) {
      h = mix(h, v);
    }
    return h;
  }

  int users_;
  double slowdown_;
  bool keep_spans_;
  Clock::time_point start_{};
  std::size_t runs_per_point_ = 0;
  std::vector<std::uint64_t> wall_ns_;  // per job: point * runs + run
  std::map<std::string, ModelTotals> models_;
  std::uint64_t digest_ = 0;
  std::uint64_t malformed_ = 0;
  std::vector<Span> spans_;
};

void write_kernel(Json& j, std::string_view key, const sim::KernelStats& k) {
  j.begin(key)
      .num("events_scheduled", k.events_scheduled)
      .num("events_cancelled", k.events_cancelled)
      .num("events_fired", k.events_fired)
      .num("peak_heap_size", k.peak_heap_size)
      .num("callback_heap_allocs", k.callback_heap_allocs)
      .num("udp_sent", k.udp_sent)
      .num("tcp_sent", k.tcp_sent)
      .num("tcp_dropped", k.tcp_dropped)
      .num("trace_records", k.trace_records)
      .end();
}

std::optional<std::string> flag_value(std::string_view arg,
                                      std::string_view name) {
  if (arg.size() > name.size() + 1 && arg.substr(0, name.size()) == name &&
      arg[name.size()] == '=') {
    return std::string(arg.substr(name.size() + 1));
  }
  return std::nullopt;
}

int run_campaign(int argc, char** argv) {
  std::string out_path;
  std::string spans_path;
  std::string pass = "timed";
  double slowdown = 0.0;
  int i = 2;
  for (; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--") {
      ++i;
      break;
    }
    if (auto v = flag_value(arg, "--out")) {
      out_path = *v;
    } else if (auto v2 = flag_value(arg, "--spans")) {
      spans_path = *v2;
    } else if (auto v3 = flag_value(arg, "--pass")) {
      pass = *v3;
    } else if (auto v4 = flag_value(arg, "--inject-slowdown")) {
      slowdown = std::strtod(v4->c_str(), nullptr);
    } else {
      std::cerr << "sdcm_perfbench: unknown flag " << arg << '\n';
      return 2;
    }
  }
  if (out_path.empty() ||
      (pass != "timed" && pass != "profiled" && pass != "counted")) {
    std::cerr << "sdcm_perfbench: campaign needs --out and a valid --pass\n";
    return 2;
  }

  // The sweep flags go through sdcm_sweep's own parser (argv[0] is
  // skipped by it), so a workload is defined once, as sdcm_sweep flags.
  std::vector<const char*> sweep_argv{"sdcm_sweep"};
  for (; i < argc; ++i) sweep_argv.push_back(argv[i]);
  std::string error;
  const auto options = cli::parse(static_cast<int>(sweep_argv.size()),
                                  sweep_argv.data(), error);
  if (!options) {
    std::cerr << "sdcm_perfbench: " << error << '\n';
    return 2;
  }

  SweepConfig config = options->sweep;
  RecorderSink recorder(config.topology.users, slowdown,
                        !spans_path.empty());
  MultiSink sinks;
  sinks.add(&recorder);
  std::ofstream jsonl_file;
  std::optional<JsonlSink> jsonl;
  if (!options->jsonl.empty()) {
    jsonl_file.open(options->jsonl, std::ios::trunc);
    if (!jsonl_file) {
      std::cerr << "sdcm_perfbench: cannot write " << options->jsonl << '\n';
      return 1;
    }
    jsonl.emplace(jsonl_file);
    sinks.add(&*jsonl);
  }
  std::optional<CheckSink> checks;
  if (options->check) {
    checks.emplace();
    config.check_sink = &*checks;
  }
  std::optional<ProfileSink> profiles;
  if (pass == "profiled") {
    profiles.emplace();
    config.profile_sink = &*profiles;
  }
  config.sink = &sinks;

  const std::uint64_t heap_before = obs::sample_memory().heap_bytes;
  if (pass == "counted") g_counting.store(true);
  const std::uint64_t allocs_before = g_allocations.load();
  const auto start = Clock::now();
  SweepResult result = run_sweep(config);
  const std::uint64_t wall_ns = ns_between(start, Clock::now());
  const std::uint64_t allocations = g_allocations.load() - allocs_before;
  g_counting.store(false);
  if (jsonl) jsonl_file.flush();

  if (options->output != "-") {
    std::ofstream csv(options->output, std::ios::trunc);
    write_csv(csv, result.points);
    if (!csv) {
      std::cerr << "sdcm_perfbench: cannot write " << options->output << '\n';
      return 1;
    }
  }

  // Runs the oracle flagged, each counted once.
  std::uint64_t violating_runs = 0;
  if (checks) {
    std::vector<std::tuple<int, double, int>> seen;
    for (const auto& v : checks->violations()) {
      seen.emplace_back(static_cast<int>(v.model), v.lambda, v.run);
    }
    std::sort(seen.begin(), seen.end());
    violating_runs = static_cast<std::uint64_t>(
        std::unique(seen.begin(), seen.end()) - seen.begin());
    if (checks->violation_total() > 0 && violating_runs == 0) {
      violating_runs = 1;
    }
  }

  std::ofstream out(out_path, std::ios::trunc);
  Json j(out);
  j.begin()
      .str("pass", pass)
      .num("runs", result.summary.runs_completed)
      .num("threads", static_cast<std::uint64_t>(config.threads))
      .num("wall_ns", wall_ns)
      .num("engine_wall_ns", result.summary.wall_ns)
      .num("run_wall_ns_total", result.summary.run_wall_ns_total)
      .num("digest", recorder.digest())
      .num("malformed_runs", recorder.malformed())
      .num("violations",
           checks ? checks->violation_total() : std::uint64_t{0})
      .num("violating_runs", violating_runs)
      .num("heap_before", heap_before);
  if (pass == "counted") j.num("allocations", allocations);
  write_kernel(j, "kernel", result.summary.kernel);
  j.begin("models");
  for (const auto& [name, totals] : recorder.models()) {
    j.begin(name).num("runs", totals.runs);
    write_kernel(j, "kernel", totals.kernel);
    j.end();
  }
  j.end();
  if (profiles) {
    j.begin("phases");
    for (const auto& [name, profile] : profiles->campaign().models) {
      j.begin(name);
      for (const obs::PhaseEntry& phase : profile.phases) {
        j.begin(phase.name)
            .num("count", phase.count)
            .num("total_ns", phase.total_ns)
            .num("heap_bytes", phase.heap_bytes)
            .end();
      }
      j.end();
    }
    j.end();
  }
  j.array("run_wall_ns", recorder.wall_ns());
  j.end();
  out << '\n';
  if (!out) {
    std::cerr << "sdcm_perfbench: cannot write " << out_path << '\n';
    return 1;
  }

  if (!spans_path.empty()) {
    // campaign -> run -> phase. Phase spans are per-model totals, since
    // the profiler aggregates per model; times are ns since the
    // campaign began.
    const std::string id =
        out_path.substr(out_path.find_last_of('/') + 1);
    std::ofstream spans(spans_path, std::ios::app);
    spans << "{\"span\":\"campaign\",\"id\":\"" << id
          << "\",\"start_ns\":0,\"end_ns\":" << wall_ns << "}\n";
    for (const auto& s : recorder.spans()) {
      spans << "{\"span\":\"run\",\"parent\":\"" << id
            << "\",\"point\":" << s.point << ",\"run\":" << s.run
            << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << "}\n";
    }
    if (profiles) {
      for (const auto& [name, profile] : profiles->campaign().models) {
        for (const obs::PhaseEntry& phase : profile.phases) {
          spans << "{\"span\":\"" << phase.name << "\",\"parent\":\""
                << id << "\",\"model\":\"" << name
                << "\",\"count\":" << phase.count
                << ",\"total_ns\":" << phase.total_ns << "}\n";
        }
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------
// Layer microbenchmarks. Each reports the median ns per operation over
// several repeats of a fixed amount of work.

std::uint64_t median(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// EventQueue push/pop/cancel at a steady depth: every step schedules
/// two events, cancels one of them and pops the earliest - four queue
/// operations, the depth unchanged.
double queue_ns_per_op(std::size_t depth, int steps, int repeats) {
  std::vector<std::uint64_t> samples;
  for (int rep = 0; rep < repeats; ++rep) {
    sim::EventQueue queue;
    sim::KernelStats stats;
    queue.bind_stats(&stats);
    sim::Random rng(0x5dc0 + static_cast<std::uint64_t>(rep));
    std::uint64_t fired = 0;
    for (std::size_t k = 0; k < depth; ++k) {
      queue.schedule(rng.uniform_int(0, 1'000'000),
                     [&fired] { ++fired; });
    }
    const auto start = Clock::now();
    for (int s = 0; s < steps; ++s) {
      sim::EventQueue::Fired f = queue.pop();
      f.cb();
      const sim::SimTime base = f.at;
      queue.schedule(base + rng.uniform_int(1, 1'000'000),
                     [&fired] { ++fired; });
      const sim::EventId doomed = queue.schedule(
          base + rng.uniform_int(1, 1'000'000),
          [&fired] { ++fired; });
      queue.cancel(doomed);
    }
    samples.push_back(ns_between(start, Clock::now()));
    if (fired != static_cast<std::uint64_t>(steps) ||
        queue.size() != depth) {
      return -1.0;
    }
  }
  return static_cast<double>(median(samples)) / (4.0 * steps);
}

struct Ping {
  std::uint64_t round = 0;
};

class CountingSink final : public net::MessageSink {
 public:
  explicit CountingSink(bool subscribed = true) : subscribed_(subscribed) {}
  void handle_message(const net::Message&) override { ++received_; }
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override {
    return std::vector<net::MessageType>{net::MessageType::intern(
        subscribed_ ? "perfbench.ping" : "perfbench.other")};
  }
  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }

 private:
  bool subscribed_;
  std::uint64_t received_ = 0;
};

net::Message ping_message(sim::NodeId src, sim::NodeId dst,
                          std::uint64_t round) {
  net::Message m;
  m.src = src;
  m.dst = dst;
  m.type = net::MessageType::intern("perfbench.ping");
  m.klass = net::MessageClass::kUpdate;
  m.payload = Ping{round};
  return m;
}

/// Calls `send(i)` at t = 1 ms, 2 ms, ... for i < count from one chained
/// timer, so the queue stays shallow and the delivery path dominates.
/// Must outlive the simulator run that fires it.
template <typename Send>
class Ticker {
 public:
  Ticker(sim::Simulator& simulator, int count, Send send)
      : simulator_(simulator),
        count_(static_cast<std::uint64_t>(count)),
        send_(std::move(send)) {
    simulator_.schedule_at(sim::milliseconds(1), [this] { tick(); });
  }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

 private:
  void tick() {
    send_(next_);
    if (++next_ < count_) {
      simulator_.schedule_in(sim::milliseconds(1), [this] { tick(); });
    }
  }

  sim::Simulator& simulator_;
  std::uint64_t count_;
  std::uint64_t next_ = 0;
  Send send_;
};

/// Network multicast under scoped-rng, `nodes` attached of which the
/// first 16 subscribe: ns per delivered copy (send + event + dispatch).
double multicast_ns_per_delivery(int nodes, int rounds, int repeats) {
  constexpr int kSubscribers = 16;
  std::vector<std::uint64_t> samples;
  for (int rep = 0; rep < repeats; ++rep) {
    sim::Simulator simulator(1 + static_cast<std::uint64_t>(rep));
    simulator.trace().set_recording(false);
    net::Network network(simulator);
    network.set_multicast_scope(net::MulticastScope::kScopedRng);
    network.reserve_nodes(static_cast<sim::NodeId>(nodes) + 1);
    std::vector<std::unique_ptr<CountingSink>> sinks;
    sinks.reserve(static_cast<std::size_t>(nodes) + 1);
    for (int n = 0; n <= nodes; ++n) {
      sinks.push_back(std::make_unique<CountingSink>(n <= kSubscribers));
      network.attach(static_cast<sim::NodeId>(n + 1), *sinks.back());
    }
    const Ticker ticker(simulator, rounds, [&network](std::uint64_t r) {
      network.multicast(ping_message(1, sim::kNoNode, r));
    });
    const auto start = Clock::now();
    simulator.run_until(sim::milliseconds(rounds + 10));
    samples.push_back(ns_between(start, Clock::now()));
    std::uint64_t delivered = 0;
    for (const auto& s : sinks) delivered += s->received();
    if (delivered != static_cast<std::uint64_t>(rounds) * kSubscribers) {
      return -1.0;
    }
  }
  return static_cast<double>(median(samples)) /
         (static_cast<double>(rounds) * kSubscribers);
}

/// Network unicast between two nodes: ns per send + delivery.
double unicast_ns(int messages, int repeats) {
  std::vector<std::uint64_t> samples;
  for (int rep = 0; rep < repeats; ++rep) {
    sim::Simulator simulator(7 + static_cast<std::uint64_t>(rep));
    simulator.trace().set_recording(false);
    net::Network network(simulator);
    CountingSink a;
    CountingSink b;
    network.attach(1, a);
    network.attach(2, b);
    const Ticker ticker(simulator, messages, [&network](std::uint64_t m) {
      network.send(ping_message(1, 2, m));
    });
    const auto start = Clock::now();
    simulator.run_until(sim::milliseconds(messages + 10));
    samples.push_back(ns_between(start, Clock::now()));
    if (b.received() != static_cast<std::uint64_t>(messages)) return -1.0;
  }
  return static_cast<double>(median(samples)) / messages;
}

/// StreamingSummary::add of a paper-sized record (5 Users), plus the
/// per-point finalize amortized over its 30 runs.
double summary_ns_per_run(int points, int repeats) {
  constexpr int kRuns = 30;
  std::vector<metrics::RunRecord> records(kRuns);
  sim::Random rng(11);
  for (metrics::RunRecord& r : records) {
    r.change_time = sim::seconds(100) + rng.uniform_int(0, 1000);
    r.deadline = sim::seconds(5400);
    for (int u = 0; u < 5; ++u) {
      r.user_reach_times.emplace_back(
          r.change_time + rng.uniform_int(1, 1'000'000));
    }
    r.update_messages = 15;
    r.window_messages = 20 + static_cast<std::uint64_t>(rng.uniform_int(0, 30));
  }
  std::vector<std::uint64_t> samples;
  double sink = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto start = Clock::now();
    for (int p = 0; p < points; ++p) {
      metrics::StreamingSummary summary(kRuns, 7, 15);
      for (int run = 0; run < kRuns; ++run) {
        summary.add(run, records[static_cast<std::size_t>(run)]);
      }
      sink += summary.finalize().efficiency;
    }
    samples.push_back(ns_between(start, Clock::now()));
  }
  if (sink <= 0.0) return -1.0;
  return static_cast<double>(median(samples)) /
         (static_cast<double>(points) * kRuns);
}

int run_layers(int argc, char** argv) {
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    if (auto v = flag_value(argv[i], "--out")) out_path = *v;
  }
  if (out_path.empty()) {
    std::cerr << "sdcm_perfbench: layers needs --out\n";
    return 2;
  }
  std::ofstream out(out_path, std::ios::trunc);
  Json j(out);
  j.begin()
      .num("queue_ns_per_op_d400", queue_ns_per_op(400, 200'000, 7))
      .num("queue_ns_per_op_d2e5", queue_ns_per_op(200'000, 200'000, 5))
      .num("multicast_ns_per_delivery_n1e4",
           multicast_ns_per_delivery(10'000, 20'000, 5))
      .num("unicast_ns", unicast_ns(200'000, 5))
      .num("summary_ns_per_run", summary_ns_per_run(2'000, 7))
      .end();
  out << '\n';
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "campaign") return run_campaign(argc, argv);
    if (mode == "layers") return run_layers(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "sdcm_perfbench: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "usage: sdcm_perfbench campaign|layers --out=FILE ...\n";
  return 2;
}
