// Whole-protocol-run benchmark driver: one paper workload, one seed.
//
//   dcc_protocol_bench --workload=<name> --seed=<input seed> --mode=timed|traced
//                      [--size=full|tiny] [--trace-out=<file>]
//
// --mode=timed  builds the network kSetupReps times (BuildScenarioNetwork,
//               median reported) and runs RunScenarioOnNetwork once with
//               the library's own tracing off, bracketed by the host-speed
//               calibration kernel. Prints one JSON line.
// --mode=traced rebuilds RunScenarioOnNetwork from public calls, timing
//               each step, records every round through Exec::SetObserver,
//               then replays the recorded rounds through fresh engines to
//               split engine time from protocol time. Prints one JSON line
//               with the per-layer metrics and writes the benchmark's
//               spans plus per-round aggregates as Chrome-trace JSON.
//
// Only public libdcc functions are called; nothing here is instrumented
// inside the library. perfbench/run.py drives this binary.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "dcc/cluster/clustering.h"
#include "dcc/cluster/validate.h"
#include "dcc/common/json.h"
#include "dcc/scenario/scenario.h"
#include "dcc/workload/generators.h"

namespace {

using dcc::scenario::RunReport;
using dcc::scenario::ScenarioSpec;
using dcc::sinr::Engine;
using dcc::sinr::Network;
using dcc::sinr::Reception;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// --- Workloads --------------------------------------------------------------

// Every workload runs on one pinned point set (the run seed, which seeds
// only topology generation here); --seed picks the node-ID permutation
// (id seed) and the selector nonce. Point sets differ enough in density and
// diameter to move a run by tens of percent, which would drown the
// code's own changes across seeds.
constexpr std::uint64_t kTopologySeed = 1;

// The spec flags of each workload. `tiny` shrinks every workload to a
// seconds-long smoke run for the benchmark's self-test; the SNS one forces
// the grid engine so the grid path is still exercised below the
// kAuto threshold.
std::vector<std::string> WorkloadArgs(const std::string& name, bool tiny) {
  if (name == "clustering_u512") {
    return {tiny ? "--topology=uniform:n=64,side=3" :
                   "--topology=uniform:n=512,side=8",
            "--algo=clustering", "--threads=1"};
  }
  if (name == "gbcast_cu512_t2") {
    return {tiny ? "--topology=connected_uniform:n=64,side=4" :
                   "--topology=connected_uniform:n=512,side=9",
            "--algo=global_broadcast", "--threads=2"};
  }
  if (name == "sns_u8192_t2") {
    if (tiny) {
      return {"--topology=uniform:n=384,side=18", "--algo=sns",
              "--engine=grid", "--threads=2"};
    }
    return {"--topology=uniform:n=8192,side=90", "--algo=sns", "--threads=2"};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- Deterministic digests --------------------------------------------------

struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void Mix(std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0x100000001b3ull;
  }
  void Mix(double d) { Mix(std::bit_cast<std::uint64_t>(d)); }
  void Mix(const std::string& s) {
    for (const char c : s) Mix(static_cast<std::uint64_t>(c));
    Mix(static_cast<std::uint64_t>(s.size()));
  }
};

// Digest of the report's deterministic content: verdict and the metrics,
// key-sorted so only values (not insertion order) matter.
std::uint64_t ReportDigest(const RunReport& rep) {
  auto entries = rep.metrics.entries();
  std::sort(entries.begin(), entries.end());
  Hasher h;
  h.Mix(static_cast<std::uint64_t>(rep.ok));
  for (const auto& [key, value] : entries) {
    h.Mix(key);
    h.Mix(value);
  }
  return h.h;
}

std::uint64_t ReceptionDigest(const std::vector<Reception>& recs) {
  Hasher h;
  for (const auto& r : recs) {
    h.Mix(static_cast<std::uint64_t>(r.listener));
    h.Mix(static_cast<std::uint64_t>(r.sender));
    h.Mix(r.sinr);
  }
  return h.h;
}

// --- Host fingerprint -------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();  // drop trailing NULs
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// --- JSON output --------------------------------------------------------------

// Ordered JSON object builder (flat values only, plus raw fragments).
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& raw) {
    parts_.push_back(dcc::JsonQuote(key) + ": " + raw);
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, dcc::JsonQuote(v));
  }
  JsonObject& Number(const std::string& key, double v) {
    return Raw(key, dcc::JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, std::int64_t v) {
    return Raw(key, std::to_string(v));
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      if (i) out += ", ";
      out += parts_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> parts_;
};

std::string HostJson() {
  return JsonObject()
      .Str("cpu_model", CpuModel())
      .Int("nproc", AvailableCpus())
      .Str("compiler", DCC_BENCH_COMPILER)
      .Str("build_type", DCC_BENCH_BUILD_TYPE)
      .str();
}

// Peak resident set of this process image. VmHWM starts afresh at exec;
// getrusage's ru_maxrss would also count the parent's pages the process
// carried between fork and exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// --- Host-speed calibration -------------------------------------------------

// A shared VM's speed changes by up to 2x with its neighbours' load, which
// moves protocol wall time more than any code change worth gating. Every
// timed run is therefore bracketed by a fixed reference kernel that does
// not touch libdcc: an exact SINR sweep over a dense 512x512 gain matrix,
// 8 transmitters per round and every node listening (the shape of an
// exact-engine round on clustering_u512). run.py scales an invocation's
// timings by the kernel's median time over its runs: host speed cancels,
// changes to the library do not.
constexpr int kCalNodes = 512;
constexpr int kCalTx = 8;
// About 50 ms per pass on the reference host when quiet.
constexpr int kCalRounds = 36000;
// Kernel passes per bracket.
constexpr int kCalReps = 8;
// Cores the kernel runs on at once: two cores' figure follows the host's
// load more steadily than one core's.
constexpr int kCalThreads = 2;

std::uint64_t CalKernel(const std::vector<double>& gain, std::uint64_t state) {
  std::uint64_t heard = 0;
  std::array<int, kCalTx> tx{};
  for (int r = 0; r < kCalRounds; ++r) {
    for (int& t : tx) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      t = static_cast<int>(state >> 55);  // 0..511
    }
    for (int l = 0; l < kCalNodes; ++l) {
      double total = 1e-9;
      double best = 0.0;
      for (const int t : tx) {
        const double g = gain[static_cast<std::size_t>(t) * kCalNodes + l];
        total += g;
        best = std::max(best, g);
      }
      heard += best >= 1.5 * (total - best);
    }
  }
  return heard;
}

// One kernel pass on each of kCalThreads threads at once. A one-thread
// workload is compared with the threads' mean time (a core's typical
// speed), a multi-threaded one with the slowest (its rounds wait for their
// slowest shard).
double CalPass(const std::vector<double>& gain, int workload_threads) {
  std::array<double, kCalThreads> secs{};
  std::array<std::uint64_t, kCalThreads> heard{};
  auto pass = [&](int k) {
    const auto t0 = Clock::now();
    heard[k] = CalKernel(gain, 7 + k);
    secs[k] = Seconds(t0, Clock::now());
  };
  std::vector<std::thread> others;
  for (int k = 1; k < kCalThreads; ++k) others.emplace_back(pass, k);
  pass(0);
  for (auto& t : others) t.join();
  if (heard[0] == 0) throw std::logic_error("calibration kernel heard nothing");
  if (workload_threads > 1) return *std::max_element(secs.begin(), secs.end());
  return std::accumulate(secs.begin(), secs.end(), 0.0) / kCalThreads;
}

// Appends kCalReps pass times (see CalPass) to `passes`. The matrix lives
// only for the bracket, so it never adds to the protocol run's peak memory.
void Calibrate(int workload_threads, std::vector<double>& passes) {
  std::vector<double> gain(static_cast<std::size_t>(kCalNodes) * kCalNodes);
  std::uint64_t state = 12345;
  for (double& g : gain) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double d = 0.05 + static_cast<double>(state >> 11) * 0x1p-53 * 8.0;
    g = 1.0 / (d * d * d);
  }
  for (int i = 0; i < kCalReps; ++i) {
    passes.push_back(CalPass(gain, workload_threads));
  }
}

// --- Timed mode -------------------------------------------------------------

// Network builds per timed run: one build takes milliseconds, so setup_s is
// the median of many.
constexpr int kSetupReps = 21;

int RunTimed(const ScenarioSpec& spec, std::uint64_t seed) {
  const int threads = std::max(1, spec.threads);
  std::vector<double> cal;
  // Before the network exists, so its matrix cannot raise the run's peak.
  Calibrate(threads, cal);
  std::vector<double> setup;
  Network net = dcc::scenario::BuildScenarioNetwork(spec, seed);
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    net = dcc::scenario::BuildScenarioNetwork(spec, seed);
    setup.push_back(Seconds(t0, Clock::now()));
  }
  const auto t0 = Clock::now();
  const RunReport rep = dcc::scenario::RunScenarioOnNetwork(spec, seed, net);
  const double run_s = Seconds(t0, Clock::now());
  const double peak_rss_mb = PeakRssMb();
  Calibrate(threads, cal);

  std::cout << JsonObject()
                   .Str("mode", "timed")
                   .Raw("ok", rep.ok ? "true" : "false")
                   .Str("error", rep.error)
                   .Raw("host", HostJson())
                   .Number("run_s", run_s)
                   .Number("setup_s", Median(setup))
                   .Number("sim_rounds", rep.metrics.Get("rounds_total"))
                   .Str("digest", std::to_string(ReportDigest(rep)))
                   .Number("peak_rss_mb", peak_rss_mb)
                   .Number("cal_s", Median(cal))
                   .str()
            << "\n";
  return 0;
}

// --- Traced mode ------------------------------------------------------------

// Power-of-two histogram: bucket k counts values in [2^(k-1), 2^k), bucket
// 0 counts zeros.
struct Pow2Histogram {
  std::array<std::int64_t, 65> buckets{};
  void Add(std::uint64_t v) { ++buckets[std::bit_width(v)]; }
  std::string Json() const {
    std::size_t last = 0;
    for (std::size_t k = 0; k < buckets.size(); ++k) {
      if (buckets[k]) last = k + 1;
    }
    std::string out = "[";
    for (std::size_t k = 0; k < last; ++k) {
      out += (k ? ", " : "") + std::to_string(buckets[k]);
    }
    return out + "]";
  }
};

// count / total / pow2 histogram of one per-round quantity.
struct Aggregate {
  std::int64_t count = 0;
  double total = 0.0;
  Pow2Histogram hist;
  void Add(std::int64_t v) {
    ++count;
    total += static_cast<double>(v);
    hist.Add(static_cast<std::uint64_t>(std::max<std::int64_t>(v, 0)));
  }
  double Mean() const { return count ? total / static_cast<double>(count) : 0; }
  std::string Json(const std::string& unit) const {
    return JsonObject()
        .Int("count", count)
        .Number("total", total)
        .Str("unit", unit)
        .Raw("pow2_hist", hist.Json())
        .str();
  }
};

// One benchmark-side span, exported as a Chrome-trace complete event.
struct Span {
  std::string name;
  std::string cat;     // layer
  std::string parent;  // enclosing phase span; empty for a phase itself
  Clock::time_point begin;
  Clock::time_point end;
};

// Spans of one traced run, kept in memory and written out at the end. The
// run is a sequence of phases (Open/Close); each Time()d call inside a
// phase is a child span naming that phase as its parent.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  void Open(const std::string& name, const std::string& cat) {
    phase_ = {name, cat, "", Clock::now(), {}};
  }
  // Ends the open phase and returns its wall seconds.
  double Close() {
    phase_.end = Clock::now();
    spans_.push_back(phase_);
    return Seconds(phase_.begin, phase_.end);
  }
  // Runs fn() as a child span of the open phase; returns its wall seconds.
  template <typename Fn>
  double Time(const std::string& name, const std::string& cat, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    spans_.push_back({name, cat, phase_.name, t0, t1});
    return Seconds(t0, t1);
  }
  std::string EventsJson() const {
    std::string out;
    for (const auto& s : spans_) {
      const double ts = std::chrono::duration<double, std::micro>(
                            s.begin - origin_).count();
      const double dur = std::chrono::duration<double, std::micro>(
                             s.end - s.begin).count();
      if (!out.empty()) out += ",\n";
      out += JsonObject()
                 .Str("name", s.name)
                 .Str("cat", s.cat)
                 .Str("ph", "X")
                 .Number("ts", ts)
                 .Number("dur", dur)
                 .Int("pid", 1)
                 .Int("tid", 1)
                 .Raw("args", JsonObject().Str("parent", s.parent).str())
                 .str();
    }
    return out;
  }

 private:
  Clock::time_point origin_;
  Span phase_;
  std::vector<Span> spans_;
};

// Every round the Exec ran, as the observer saw it.
struct Recording {
  // Stepped rounds (|T| > 0) only: transmit sets (flattened), reception
  // digests and counts, in execution order.
  std::vector<std::uint32_t> tx;
  std::vector<std::size_t> tx_offset{0};
  std::vector<std::uint64_t> rx_digest;
  std::vector<std::uint32_t> rx_count;
  std::size_t stepped() const { return rx_digest.size(); }

  // Observer-to-observer intervals, split by the kind of round they end in.
  Aggregate interval_empty_ns;
  Aggregate interval_stepped_ns;
  Aggregate tx_size;
  std::int64_t receptions = 0;
  Clock::time_point last;
};

constexpr const char* kReplayNote =
    "sinr.* engine times come from replaying the recorded rounds through a "
    "fresh engine in isolation (warm caches, no protocol code interleaved): "
    "sinr.step_s is a lower bound on the engine's share of the run and "
    "sim.self_s an upper bound on the protocol + Exec share.";

struct ReplayResult {
  double step_s = 0.0;
  std::vector<double> round_ns;  // per stepped round
  Aggregate step_ns;
  std::int64_t mismatched_rounds = 0;
};

// Loads stepped round r: its transmit set in Exec's order, and every other
// node as a listener (Exec::RunRound's listener set with no activity mask).
// `is_tx` is all-zero scratch of the network's size, left all-zero.
void LoadRound(const Recording& rec, std::size_t r, std::vector<char>& is_tx,
               std::vector<std::size_t>& tx,
               std::vector<std::size_t>& listeners) {
  tx.assign(rec.tx.begin() + rec.tx_offset[r],
            rec.tx.begin() + rec.tx_offset[r + 1]);
  for (const std::size_t i : tx) is_tx[i] = 1;
  listeners.clear();
  for (std::size_t u = 0; u < is_tx.size(); ++u) {
    if (!is_tx[u]) listeners.push_back(u);
  }
  for (const std::size_t i : tx) is_tx[i] = 0;
}

// Replays every recorded stepped round through a fresh engine built with
// `opts`, timing StepInto alone. Rounds listed in `keep` (ascending stepped
// ordinals) have their receptions copied out for the grid/exact check.
ReplayResult Replay(const Network& net, const Engine::Options& opts,
                    const Recording& rec, const std::vector<std::size_t>& keep,
                    std::vector<std::vector<Reception>>* kept) {
  ReplayResult out;
  const Engine engine(net, opts);
  std::vector<char> is_tx(net.size(), 0);
  std::vector<std::size_t> tx;
  std::vector<std::size_t> listeners;
  std::vector<Reception> recs;
  out.round_ns.reserve(rec.stepped());
  std::size_t next_keep = 0;
  for (std::size_t r = 0; r < rec.stepped(); ++r) {
    LoadRound(rec, r, is_tx, tx, listeners);
    const auto t0 = Clock::now();
    engine.StepInto(tx, listeners, recs);
    const std::int64_t ns = Nanos(t0, Clock::now());
    out.step_ns.Add(ns);
    out.round_ns.push_back(static_cast<double>(ns));
    if (recs.size() != rec.rx_count[r] ||
        ReceptionDigest(recs) != rec.rx_digest[r]) {
      ++out.mismatched_rounds;
    }
    if (kept && next_keep < keep.size() && keep[next_keep] == r) {
      kept->push_back(recs);
      ++next_keep;
    }
  }
  out.step_s = out.step_ns.total * 1e-9;
  return out;
}

// The grid contract (sinr/engine.h): the same (listener, sender) set as
// kExact, SINR agreeing to >= 9 significant digits up to the summation
// cancellation term.
std::int64_t GridVsExactMismatches(const Network& net,
                                   const Engine::Options& opts,
                                   const Recording& rec,
                                   const std::vector<std::size_t>& sample,
                                   const std::vector<std::vector<Reception>>&
                                       grid_recs) {
  Engine::Options exact_opts = opts;
  exact_opts.mode = Engine::Mode::kExact;
  exact_opts.threads = 1;
  const Engine exact(net, exact_opts);
  std::vector<char> is_tx(net.size(), 0);
  std::vector<std::size_t> tx;
  std::vector<std::size_t> listeners;
  std::vector<Reception> recs;
  std::int64_t bad = 0;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    LoadRound(rec, sample[k], is_tx, tx, listeners);
    exact.StepInto(tx, listeners, recs);
    const auto& grid = grid_recs[k];
    bool same = recs.size() == grid.size();
    for (std::size_t j = 0; same && j < recs.size(); ++j) {
      const double s = recs[j].sinr;
      const double tol =
          s * (1e-9 + std::numeric_limits<double>::epsilon() *
                          static_cast<double>(tx.size()) * s);
      same = recs[j].listener == grid[j].listener &&
             recs[j].sender == grid[j].sender &&
             std::abs(s - grid[j].sinr) <= tol;
    }
    bad += same ? 0 : 1;
  }
  return bad;
}

int RunTraced(const ScenarioSpec& spec, std::uint64_t seed,
              const std::string& trace_out) {
  const auto origin = Clock::now();
  SpanLog spans(origin);
  RunReport rep;

  // BuildScenarioNetwork, step by step.
  spans.Open("scenario.build_network", "setup");
  std::vector<dcc::Vec2> pts;
  const double topology_s = spans.Time("setup.topology", "setup", [&] {
    spec.sinr.Validate();
    dcc::scenario::ParamMap params = spec.topology_params;
    pts = dcc::scenario::Topologies().Get(spec.topology)(params, spec.sinr,
                                                         seed);
    params.CheckAllConsumed("topology '" + spec.topology + "'");
  });
  std::optional<Network> net_holder;
  const double network_s = spans.Time("setup.network", "setup", [&] {
    net_holder.emplace(dcc::workload::MakeNetwork(
        std::move(pts), spec.sinr, spec.id_seed.value_or(seed + 1),
        spec.shadowing));
  });
  const Network& net = *net_holder;
  spans.Close();

  // RunScenarioOnNetwork, step by step (no faults, no ranks).
  spans.Open("scenario.run", "sim");
  std::optional<dcc::sim::Exec> ex_holder;
  const double exec_init_s = spans.Time("setup.exec_init", "setup", [&] {
    ex_holder.emplace(net, spec.engine);
  });
  dcc::sim::Exec& ex = *ex_holder;

  Recording rec;
  ex.SetObserver([&rec](dcc::Round, const std::vector<std::size_t>& tx,
                        const std::vector<Reception>& recs) {
    const auto now = Clock::now();
    const std::int64_t ns = Nanos(rec.last, now);
    rec.last = now;
    if (tx.empty()) {
      rec.interval_empty_ns.Add(ns);
      return;
    }
    rec.interval_stepped_ns.Add(ns);
    rec.tx_size.Add(static_cast<std::int64_t>(tx.size()));
    for (const std::size_t i : tx) {
      rec.tx.push_back(static_cast<std::uint32_t>(i));
    }
    rec.tx_offset.push_back(rec.tx.size());
    rec.rx_digest.push_back(ReceptionDigest(recs));
    rec.rx_count.push_back(static_cast<std::uint32_t>(recs.size()));
    rec.receptions += static_cast<std::int64_t>(recs.size());
  });

  std::vector<std::size_t> members(net.size());
  std::iota(members.begin(), members.end(), std::size_t{0});
  int gamma = 1;
  const double density_s = spans.Time("cluster.density", "cluster", [&] {
    gamma = dcc::cluster::SubsetDensity(net, members);
  });
  const auto prof = dcc::cluster::Profile::Practical(spec.sinr.id_space);
  dcc::scenario::RunContext ctx{net,
                                ex,
                                prof,
                                std::move(members),
                                gamma,
                                spec.max_rounds,
                                seed,
                                spec.nonce.value_or(seed + 2),
                                spec.algo_params};
  const std::size_t n_members = ctx.members.size();

  RunReport algo_rep;
  double protocol_s = 0.0;
  double validate_s = 0.0;
  const bool clustering = spec.algo == "clustering";
  if (clustering) {
    // The registry's clustering adapter, split at the validator.
    dcc::cluster::ClusteringResult res;
    rec.last = Clock::now();
    protocol_s = spans.Time("cluster.build", "sim", [&] {
      res = dcc::cluster::BuildClustering(ctx.ex, ctx.prof, ctx.members,
                                          ctx.gamma, ctx.nonce);
    });
    dcc::cluster::ClusteringCheck chk;
    validate_s = spans.Time("cluster.validate", "cluster", [&] {
      chk = dcc::cluster::CheckClustering(ctx.net, ctx.members,
                                          res.cluster_of);
    });
    algo_rep.ok = chk.ValidRClustering(1.0, ctx.net.params().eps) &&
                  res.unassigned == 0;
    auto& m = algo_rep.metrics;
    m.Set("rounds", static_cast<double>(res.rounds));
    m.Set("levels", res.levels);
    m.Set("unassigned", static_cast<double>(res.unassigned));
    m.Set("clusters", chk.num_clusters);
    m.Set("max_cluster_size", chk.max_cluster_size);
    m.Set("max_radius", chk.max_radius);
    m.Set("min_center_sep", chk.min_center_sep);
    m.Set("max_clusters_per_unit_ball", chk.max_clusters_per_unit_ball);
  } else {
    const auto alg = dcc::scenario::Algorithms().Get(spec.algo)();
    rec.last = Clock::now();
    protocol_s = spans.Time("bcast.run", "sim", [&] {
      algo_rep = alg->Run(ctx);
    });
  }
  ctx.params.CheckAllConsumed("algorithm '" + spec.algo + "'");
  rep.ok = algo_rep.ok;
  rep.error = algo_rep.error;
  rep.metrics.Set("n", static_cast<double>(net.size()));
  rep.metrics.Set("members", static_cast<double>(n_members));
  rep.metrics.Set("gamma", ctx.gamma);
  for (const auto& [key, value] : algo_rep.metrics.entries()) {
    rep.metrics.Set(key, value);
  }
  rep.metrics.Set("rounds_total", static_cast<double>(ex.rounds()));
  dcc::scenario::FillParallelSection(rep, ex.engine());
  const double traced_run_s = spans.Close();
  ex.SetObserver(nullptr);

  // Replays: the workload's engine options, then (for parallel workloads)
  // the same rounds serially for the dispatch speedup.
  const Engine::Options opts = spec.engine;
  const bool grid = ex.engine().mode() == Engine::Mode::kGrid;
  std::vector<std::size_t> sample;
  if (grid && rec.stepped() > 0) {
    constexpr std::size_t kSample = 12;
    const std::size_t k = std::min(kSample, rec.stepped());
    for (std::size_t i = 0; i < k; ++i) {
      sample.push_back((2 * i + 1) * rec.stepped() / (2 * k));
    }
  }
  std::vector<std::vector<Reception>> sampled;
  spans.Open("bench.replay", "sinr");
  ReplayResult replay;
  spans.Time("sinr.replay", "sinr", [&] {
    replay = Replay(net, opts, rec, sample, &sampled);
  });
  const int threads = ex.engine().threads();
  double replay_speedup = 0.0;
  std::int64_t serial_mismatches = 0;
  if (threads > 1) {
    Engine::Options serial = opts;
    serial.threads = 1;
    ReplayResult r1;
    spans.Time("sinr.replay_serial", "parallel", [&] {
      r1 = Replay(net, serial, rec, {}, nullptr);
    });
    serial_mismatches = r1.mismatched_rounds;
    replay_speedup = replay.step_s > 0 ? r1.step_s / replay.step_s : 0.0;
  }
  std::int64_t grid_mismatches = 0;
  if (!sample.empty()) {
    spans.Time("sinr.grid_exact_check", "sinr", [&] {
      grid_mismatches =
          GridVsExactMismatches(net, opts, rec, sample, sampled);
    });
  }
  spans.Close();

  // Per-layer metrics.
  const Engine::Stats& st = ex.engine().stats();
  const std::int64_t sim_rounds = ex.rounds();
  const std::int64_t observed =
      rec.interval_empty_ns.count + rec.interval_stepped_ns.count;
  const auto stepped = static_cast<std::int64_t>(rec.stepped());
  double pairs = 0.0;
  double listeners_total = 0.0;
  std::vector<double> tx_sizes;
  tx_sizes.reserve(rec.stepped());
  for (std::size_t r = 0; r < rec.stepped(); ++r) {
    const double t = static_cast<double>(rec.tx_offset[r + 1] -
                                         rec.tx_offset[r]);
    const double l = static_cast<double>(net.size()) - t;
    tx_sizes.push_back(t);
    listeners_total += l;
    pairs += t * l;
  }
  const auto per = [](double total, std::int64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };

  std::vector<std::string> failures;
  if (!rep.ok) failures.push_back("validator: " + rep.error);
  if (replay.mismatched_rounds) failures.push_back("replay receptions");
  if (serial_mismatches) failures.push_back("serial replay receptions");
  if (grid_mismatches) failures.push_back("grid vs exact sample");
  if (rec.receptions != st.receptions) failures.push_back("reception total");
  if (stepped != st.rounds) failures.push_back("stepped round total");

  JsonObject m;
  m.Number("setup.topology_s", topology_s)
      .Number("setup.network_s", network_s)
      .Number("setup.exec_init_s", exec_init_s)
      .Int("sim.rounds", sim_rounds)
      .Int("sim.empty_rounds", rec.interval_empty_ns.count)
      .Number("sim.empty_frac",
              per(static_cast<double>(rec.interval_empty_ns.count), observed))
      .Number("sim.self_s", protocol_s - replay.step_s)
      .Number("sim.empty_round_ns", rec.interval_empty_ns.Mean())
      .Number("sim.stepped_overhead_ns",
              per(rec.interval_stepped_ns.total - replay.step_ns.total,
                  stepped))
      .Number("sinr.step_s", replay.step_s)
      .Number("sinr.step_share", replay.step_s / traced_run_s)
      .Number("sinr.round_us_p50", Percentile(replay.round_ns, 50) * 1e-3)
      .Number("sinr.round_us_p99", Percentile(replay.round_ns, 99) * 1e-3)
      .Int("sinr.stepped_rounds", stepped)
      .Number("sinr.tx_mean", rec.tx_size.Mean())
      .Number("sinr.tx_p99", Percentile(tx_sizes, 99))
      .Number("sinr.listeners_mean", per(listeners_total, stepped))
      .Number("sinr.pairs", pairs)
      .Number("sinr.ns_per_pair", pairs > 0 ? replay.step_ns.total / pairs : 0)
      .Int("sinr.receptions", st.receptions)
      .Int("sinr.grid_pruned", st.grid_pruned)
      .Int("sinr.grid_fallbacks", st.grid_exact_fallbacks)
      .Number("sinr.fallback_yield",
              per(static_cast<double>(st.receptions), st.grid_exact_fallbacks))
      .Int("sinr.tile_states_computed", st.tile_states_computed)
      .Int("parallel.rounds_parallel", st.parallel_rounds)
      .Int("parallel.rounds_serial", st.parallel_small_rounds)
      .Number("parallel.imbalance", rep.parallel.imbalance)
      .Number("parallel.replay_speedup", replay_speedup)
      .Number("cluster.density_s", density_s)
      .Number(clustering ? "cluster.build_s" : "bcast.run_s", protocol_s)
      .Number(clustering ? "bcast.run_s" : "cluster.build_s", 0.0)
      .Number("cluster.validate_s", validate_s);

  const std::string host = HostJson();
  if (!trace_out.empty()) {
    const std::string aggregates =
        JsonObject()
            .Int("rounds_total", sim_rounds)
            .Int("rounds_observed", observed)
            .Int("rounds_charged", sim_rounds - observed)
            .Raw("interval_empty_round",
                 rec.interval_empty_ns.Json("ns"))
            .Raw("interval_stepped_round",
                 rec.interval_stepped_ns.Json("ns"))
            .Raw("tx_per_stepped_round", rec.tx_size.Json("count"))
            .Raw("replay_step", replay.step_ns.Json("ns"))
            .str();
    std::ofstream f(trace_out);
    f << "{\"traceEvents\": [\n"
      << spans.EventsJson() << "\n],\n\"displayTimeUnit\": \"ms\",\n"
      << "\"otherData\": "
      << JsonObject()
             .Str("spec", spec.ToString())
             .Raw("host", host)
             .Str("note", kReplayNote)
             .Raw("round_aggregates", aggregates)
             .Raw("metrics", m.str())
             .str()
      << "}\n";
    if (!f) failures.push_back("trace write: " + trace_out);
  }

  std::string failure_list = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    failure_list += (i ? ", " : "") + dcc::JsonQuote(failures[i]);
  }
  failure_list += "]";

  std::cout << JsonObject()
                   .Str("mode", "traced")
                   .Raw("ok", failures.empty() ? "true" : "false")
                   .Raw("failures", failure_list)
                   .Raw("host", host)
                   .Number("traced_run_s", traced_run_s)
                   .Number("sim_rounds", rep.metrics.Get("rounds_total"))
                   .Str("digest", std::to_string(ReportDigest(rep)))
                   .Int("replay_mismatched_rounds",
                        replay.mismatched_rounds + serial_mismatches)
                   .Int("grid_sample_rounds",
                        static_cast<std::int64_t>(sample.size()))
                   .Int("grid_sample_mismatches", grid_mismatches)
                   .Str("note", kReplayNote)
                   .Raw("metrics", m.str())
                   .str()
            << "\n";
  return 0;
}

std::string FlagValue(const std::string& arg, const std::string& flag) {
  return arg.rfind(flag + "=", 0) == 0 ? arg.substr(flag.size() + 1) : "";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode = "timed";
  std::string size = "full";
  std::string trace_out;
  std::uint64_t input_seed = 1;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (auto v = FlagValue(a, "--workload"); !v.empty()) {
        workload = v;
      } else if (auto v = FlagValue(a, "--mode"); !v.empty()) {
        mode = v;
      } else if (auto v = FlagValue(a, "--size"); !v.empty()) {
        size = v;
      } else if (auto v = FlagValue(a, "--seed"); !v.empty()) {
        input_seed = std::stoull(v);
      } else if (auto v = FlagValue(a, "--trace-out"); !v.empty()) {
        trace_out = v;
      } else {
        throw std::invalid_argument("unknown argument '" + a + "'");
      }
    }
    if (size != "full" && size != "tiny") {
      throw std::invalid_argument("--size must be full or tiny");
    }
    std::vector<std::string> args = WorkloadArgs(workload, size == "tiny");
    args.push_back("--seeds=" + std::to_string(kTopologySeed));
    args.push_back("--id-seed=" + std::to_string(input_seed));
    args.push_back("--nonce=" + std::to_string(input_seed + 1));
    const ScenarioSpec spec = ScenarioSpec::FromArgs(args);
    if (mode == "timed") return RunTimed(spec, kTopologySeed);
    if (mode == "traced") return RunTraced(spec, kTopologySeed, trace_out);
    throw std::invalid_argument("--mode must be timed or traced");
  } catch (const std::exception& e) {
    std::cerr << "dcc_protocol_bench: " << e.what() << "\n";
    return 2;
  }
}
