// serve_mix: the shipped hm_server under an open-loop, seeded mix of
// pipelined evaluate requests (hot keys pre-populated in its store, cold
// keys that must be simulated) plus one long search request.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/arrangement.hpp"
#include "explore/cached_eval.hpp"
#include "explore/hash.hpp"
#include "explore/result_cache.hpp"
#include "explore/thread_pool.hpp"
#include "perfbench.hpp"
#include "server/protocol.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"

extern char** environ;

namespace perfbench {

namespace {

using hm::core::ArrangementType;
using hm::server::Command;
using hm::server::Status;
using Bytes = std::vector<std::uint8_t>;

constexpr int kSetupReps = 5;
constexpr double kRatePerS = 12.0;           ///< open-loop arrival rate
constexpr std::size_t kEvalConnections = 3;  ///< pipelined client conns
constexpr double kPingEveryS = 0.05;         ///< traced run only
constexpr double kDrainTimeoutS = 60.0;      ///< replies later than this fail
/// Latency limit of server.slo_frac: a hot hit that did not wait for a
/// cold batch-mate meets it, a request queued behind a simulation not.
constexpr double kSloMs = 100.0;

/// One evaluate key as the server sees it.
struct Key {
  ArrangementType type = ArrangementType::kGrid;
  std::uint64_t n = 2;
  std::uint64_t seed = 0;
};

/// The evaluation parameters hm_server applies to an evaluate request
/// (examples/hm_server.cpp: interactive windows, per-request seed). The
/// in-process reference must use exactly these.
hm::core::EvaluationParams server_params(std::uint64_t seed) {
  hm::core::EvaluationParams p;
  p.latency_measure = 6000;
  p.throughput_warmup = 2000;
  p.throughput_measure = 2000;
  p.measure_latency = true;
  p.measure_saturation = true;
  p.sim.seed = seed;
  return p;
}

Bytes reference_bytes(const Key& k, hm::explore::ResultCache* cache) {
  const auto arr = hm::core::make_arrangement(k.type, k.n);
  Bytes out;
  hm::store::encode_result(
      hm::explore::cached_evaluate(arr, server_params(k.seed), {}, cache),
      out);
  return out;
}

/// Full-result store key of `k` (explore/cached_eval.cpp's composition).
std::uint64_t store_key(const Key& k) {
  using namespace hm::explore;
  const auto arr = hm::core::make_arrangement(k.type, k.n);
  const auto params = server_params(k.seed);
  const std::uint64_t analytic =
      hash_combine(hash_arrangement(arr), hash_analytic_params(params));
  return hash_combine(hash_combine(analytic, hash_simulation_params(params)),
                      hash_traffic({}));
}

/// Evaluates every key in parallel (reference results).
std::vector<Bytes> evaluate_all(const std::vector<Key>& keys, unsigned threads,
                                hm::explore::ResultCache* cache) {
  std::vector<Bytes> out(keys.size());
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    jobs.push_back([&, i] { out[i] = reference_bytes(keys[i], cache); });
  }
  hm::explore::ThreadPool pool(threads);
  pool.run_batch(jobs);
  return out;
}

// ------------------------------------------------------- server process

struct ServerProc {
  pid_t pid = -1;
  std::string stdout_path;
};

ServerProc spawn_server(const Options& opt, const std::string& sock,
                        const std::string& store_dir, bool telemetry,
                        const std::string& log_stem) {
  std::vector<std::string> args = {
      opt.server_bin, "--unix", sock, "--threads",
      std::to_string(opt.threads > 1 ? opt.threads - 1 : 1), "--cache-dir",
      store_dir,
      // Admission caps above the schedule's size: refusals would be
      // failures, and this workload measures queueing, not shedding.
      "--max-pending", "100000", "--max-per-client", "100000"};
  if (telemetry) args.push_back("--telemetry");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  ServerProc p;
  p.stdout_path = log_stem + ".out";
  const std::string err_path = log_stem + ".err";
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, p.stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int rc =
      posix_spawn(&p.pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + opt.server_bin + ": " +
                             std::strerror(rc));
  }
  return p;
}

/// Waits for the server to exit (killing it after `timeout_s`); returns its
/// peak RSS in MiB.
double reap_server(ServerProc& p, double timeout_s) {
  rusage ru{};
  int status = 0;
  const auto t0 = Clock::now();
  for (;;) {
    const pid_t r = wait4(p.pid, &status, WNOHANG, &ru);
    if (r == p.pid) break;
    if (r < 0) throw std::runtime_error("wait4 on hm_server failed");
    if (seconds_since(t0) > timeout_s) {
      kill(p.pid, SIGKILL);
      wait4(p.pid, &status, 0, &ru);
      p.pid = -1;
      throw std::runtime_error("hm_server did not shut down");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  p.pid = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("hm_server exited abnormally");
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Kills a server that is still running when a run unwinds.
struct ServerGuard {
  ServerProc* p;
  explicit ServerGuard(ServerProc* proc) : p(proc) {}
  ServerGuard(const ServerGuard&) = delete;
  ServerGuard& operator=(const ServerGuard&) = delete;
  ~ServerGuard() {
    if (p->pid > 0) {
      kill(p->pid, SIGKILL);
      int status = 0;
      waitpid(p->pid, &status, 0);
    }
  }
};

int try_connect(const std::string& sock) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// One synchronous request/reply; returns the reply status and body.
Status round_trip(int fd, Command cmd, const Bytes& payload, Bytes* body) {
  if (!hm::server::write_frame(fd, hm::server::kRequestMagic, cmd, payload)) {
    throw std::runtime_error("hm_server connection lost");
  }
  hm::server::FrameHeader h;
  Bytes reply;
  if (hm::server::read_frame(fd, hm::server::kReplyMagic, &h, &reply) !=
      hm::server::ReadResult::kOk) {
    throw std::runtime_error("hm_server reply lost");
  }
  const auto view = hm::server::parse_reply_payload(reply.data(), reply.size());
  if (!view) throw std::runtime_error("malformed hm_server reply");
  if (body != nullptr) body->assign(view->body, view->body + view->body_size);
  return view->status;
}

/// Connects once the server listens, answering a ping.
int connect_when_ready(const std::string& sock, double timeout_s) {
  const auto t0 = Clock::now();
  for (;;) {
    const int fd = try_connect(sock);
    if (fd >= 0) {
      if (round_trip(fd, Command::kPing, {}, nullptr) == Status::kOk) {
        return fd;
      }
      close(fd);
    }
    if (seconds_since(t0) > timeout_s) {
      throw std::runtime_error("hm_server did not start listening");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

/// Number after `"key": ` in a JSON text (0 when absent).
double json_field(const std::string& text, const std::string& key) {
  const auto at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + key.size() + 3, nullptr);
}

// -------------------------------------------------------------- the load

struct OpResult {
  OpTiming timing;
  bool answered = false;
  Status status = Status::kError;
  Bytes body;
};

struct Window {
  std::vector<OpResult> results;  ///< parallel to the schedule
  double wall_s = 0.0;
};

/// Runs the open loop: one generator thread sends every op at its due time
/// on its connection and collects the pipelined replies (FIFO per
/// connection) with ppoll in between.
Window run_window(const std::vector<ScheduledOp>& ops,
                  const std::vector<int>& fds, const std::vector<Key>& hot,
                  const std::vector<Key>& cold, const Key& search_key) {
  Window w;
  w.results.resize(ops.size());
  std::vector<std::deque<std::size_t>> inflight(fds.size());
  std::size_t next = 0;
  std::size_t outstanding = 0;
  Bytes payload;
  const auto t0 = Clock::now();

  const auto send = [&](std::size_t i) {
    const ScheduledOp& op = ops[i];
    payload.clear();
    Command cmd = Command::kPing;
    if (op.kind == OpKind::kHot || op.kind == OpKind::kCold) {
      const Key& k = op.kind == OpKind::kHot ? hot[op.key] : cold[op.key];
      hm::server::EvaluateRequest r;
      r.type = k.type;
      r.chiplet_count = k.n;
      r.seed = k.seed;
      hm::server::encode_evaluate_request(r, payload);
      cmd = Command::kEvaluate;
    } else if (op.kind == OpKind::kSearch) {
      hm::server::SearchRequest r;
      r.type = search_key.type;
      r.chiplet_count = search_key.n;
      r.steps = 1;
      r.seed = search_key.seed;
      hm::server::encode_search_request(r, payload);
      cmd = Command::kSearch;
    }
    w.results[i].timing.due_s = op.at_s;
    w.results[i].timing.sent_s = seconds_since(t0);
    if (!hm::server::write_frame(fds[op.conn], hm::server::kRequestMagic, cmd,
                                 payload)) {
      throw std::runtime_error("hm_server connection lost mid-window");
    }
    inflight[op.conn].push_back(i);
    ++outstanding;
  };

  std::vector<pollfd> pfds(fds.size());
  for (std::size_t c = 0; c < fds.size(); ++c) pfds[c] = {fds[c], POLLIN, 0};
  double last_reply_s = 0.0;
  while (next < ops.size() || outstanding > 0) {
    double now = seconds_since(t0);
    while (next < ops.size() && ops[next].at_s <= now) {
      send(next++);
      now = seconds_since(t0);
    }
    if (next >= ops.size() && now > ops.back().at_s + kDrainTimeoutS) break;
    const double wait_s =
        next < ops.size() ? std::max(0.0, ops[next].at_s - now) : 0.05;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) *
                                   1e9);
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      hm::server::FrameHeader h;
      Bytes reply;
      if (hm::server::read_frame(fds[c], hm::server::kReplyMagic, &h,
                                 &reply) != hm::server::ReadResult::kOk ||
          inflight[c].empty()) {
        throw std::runtime_error("hm_server reply stream broken");
      }
      OpResult& r = w.results[inflight[c].front()];
      inflight[c].pop_front();
      --outstanding;
      r.timing.replied_s = last_reply_s = seconds_since(t0);
      r.answered = true;
      if (const auto v =
              hm::server::parse_reply_payload(reply.data(), reply.size())) {
        r.status = v->status;
        r.body.assign(v->body, v->body + v->body_size);
      }
    }
  }
  w.wall_s = last_reply_s;
  return w;
}

struct Latencies {
  std::vector<double> all_ms;  ///< answered evaluates, from due time
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::size_t evaluates = 0;  ///< attempted evaluates
  double late_ms = 0.0;       ///< worst generator lateness
};

/// Counts and checks every reply of a window: each evaluate reply must
/// equal its reference bytes and the search must answer kOk.
Latencies check_window(const std::vector<ScheduledOp>& ops, const Window& w,
                       const std::vector<Bytes>& hot_ref,
                       const std::vector<Bytes>& cold_ref, Outcome& out) {
  Latencies lat;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ScheduledOp& op = ops[i];
    if (op.kind == OpKind::kPing) continue;
    const OpResult& r = w.results[i];
    lat.late_ms = std::max(lat.late_ms, r.timing.late_ms());
    ++out.attempted;
    if (!r.answered || r.status != Status::kOk) {
      ++out.failed;
      fail_check(out, op.kind == OpKind::kSearch
                          ? "search request failed"
                          : "evaluate request failed or timed out");
      if (op.kind != OpKind::kSearch) ++lat.evaluates;
      continue;
    }
    if (op.kind == OpKind::kSearch) continue;
    ++lat.evaluates;
    const bool hot = op.kind == OpKind::kHot;
    if (r.body != (hot ? hot_ref : cold_ref)[op.key]) {
      fail_check(out, "evaluate reply differs from its reference");
    }
    const double ms = r.timing.latency_ms();
    lat.all_ms.push_back(ms);
    (hot ? lat.hit_ms : lat.miss_ms).push_back(ms);
  }
  return lat;
}

}  // namespace

Outcome run_serve_mix(const Options& opt) {
  namespace fs = std::filesystem;
  Outcome out;
  fs::create_directories(opt.tmp_dir);
  const std::string sock = opt.tmp_dir + "/hm.sock";

  // Hot keys and their request order come from the seed.
  std::uint64_t st = opt.seed * 0x9e3779b97f4a7c15ULL + 17;
  std::vector<Key> hot;
  for (const auto type : {ArrangementType::kGrid, ArrangementType::kHexaMesh}) {
    for (std::uint64_t n = 2; n <= 7; ++n) hot.push_back({type, n, splitmix64(st)});
  }
  ScheduleSpec spec;
  spec.requests =
      static_cast<std::size_t>(std::llround(kRatePerS * opt.seconds));
  spec.rate_per_s = kRatePerS;
  spec.hot_keys = hot.size();
  spec.connections = kEvalConnections;
  const std::uint64_t sched_seed = splitmix64(st);
  // Cold keys: HexaMesh at N = 3 with seeds 1, 2, ... (never in the store),
  // numbered in send order (make_schedule's cold index). They are the same
  // in every run: a cold evaluation's cost varies up to 3x with its seed
  // (the saturation search's probe count), and drawing them from the
  // workload seed moved p95 by about 25% from run to run. One cheap cost
  // class keeps the server idle most of the time, so p50 stays inside the
  // hot hits and p95 inside the cold misses.
  const std::size_t cold_count =
      spec.requests - static_cast<std::size_t>(std::llround(
                          spec.hot_share * static_cast<double>(spec.requests)));
  std::vector<Key> cold;
  for (std::uint64_t i = 1; i <= cold_count; ++i) {
    cold.push_back({ArrangementType::kHexaMesh, 3, i});
  }
  // The search is the same in every run, so the stall it imposes on the
  // requests queued behind it is comparable across seeds.
  const Key search_key{ArrangementType::kGrid, 4, 42};

  // Reference results of the hot keys, written once to a master store that
  // every setup copies into the server's store directory.
  const std::string master_dir = opt.tmp_dir + "/master";
  std::vector<Bytes> hot_ref;
  {
    hm::explore::ResultCache cache;
    cache.attach_store(hm::store::ResultStore::open(master_dir));
    hot_ref = evaluate_all(hot, opt.threads, &cache);
    cache.flush_to_store();
  }
  const auto master = hm::store::ResultStore::open(master_dir);

  // Setup: populate a fresh store, start the server, wait for it to
  // answer. Repeated; the last server stays up for the window.
  ServerProc server;
  ServerGuard guard{&server};
  int control_fd = -1;
  std::string store_dir;
  int setup_rep = 0;
  const auto setup = [&](bool telemetry) {
    store_dir = opt.tmp_dir + "/store" + std::to_string(setup_rep);
    {
      const auto s = hm::store::ResultStore::open(store_dir);
      s->merge_from(*master);
      s->flush();
    }
    server = spawn_server(opt, sock, store_dir, telemetry,
                          opt.tmp_dir + "/server" + std::to_string(setup_rep));
    ++setup_rep;
    control_fd = connect_when_ready(sock, 30.0);
  };
  const auto shutdown = [&] {
    round_trip(control_fd, Command::kShutdown, {}, nullptr);
    close(control_fd);
    return reap_server(server, 60.0);
  };
  const double setup_s = median_setup_s(kSetupReps, [&](int i) {
    if (i > 0) shutdown();
    setup(false);
  });

  const auto window = [&](bool traced) {
    ScheduleSpec s = spec;
    s.ping_every_s = traced ? kPingEveryS : 0.0;
    const auto ops = make_schedule(sched_seed, s);
    std::vector<int> fds;
    for (std::size_t c = 0; c < kEvalConnections; ++c) {
      fds.push_back(connect_when_ready(sock, 5.0));
    }
    if (traced) fds.push_back(connect_when_ready(sock, 5.0));
    Window w = run_window(ops, fds, hot, cold, search_key);
    for (const int fd : fds) close(fd);
    return std::make_pair(ops, std::move(w));
  };

  auto [ops, win] = window(false);
  Bytes stats_body;
  round_trip(control_fd, Command::kStats, {}, &stats_body);
  const double server_rss_mb = shutdown();

  // Correctness: every evaluate reply equals the in-process evaluation.
  const std::string flush_dir = opt.tmp_dir + "/flushcheck";
  hm::explore::ResultCache flush_cache;
  flush_cache.attach_store(hm::store::ResultStore::open(flush_dir));
  const std::vector<Bytes> cold_ref =
      evaluate_all(cold, opt.threads, &flush_cache);
  const auto flush_t0 = Clock::now();
  flush_cache.flush_to_store();
  const double flush_s = seconds_since(flush_t0);

  const Latencies lat = check_window(ops, win, hot_ref, cold_ref, out);
  const Percentile p95 = tail_percentile(lat.all_ms, 95.0);
  const Percentile hit_p95 = tail_percentile(lat.hit_ms, 95.0);
  std::fprintf(stderr,
               "serve_mix: %zu evaluates (%zu hot, %zu cold) + 1 search; "
               "p95 at p%.1f of %zu samples; hit p95 at p%.1f of %zu; "
               "generator at most %.3f ms late\n",
               lat.all_ms.size(), lat.hit_ms.size(), lat.miss_ms.size(),
               p95.pct, p95.samples, hit_p95.pct, hit_p95.samples, lat.late_ms);

  if (!opt.trace) {
    out.metrics.add("setup_s", setup_s, "s");
    out.metrics.add("wall_s", win.wall_s, "s");
    out.metrics.add("peak_rss_mb", server_rss_mb, "MiB");
    return out;
  }

  // Traced: one more server with telemetry, and pings on their own
  // connection interleaved with the same schedule; its replies are checked
  // too, its latencies are not reported.
  setup(true);
  auto [tops, twin] = window(true);
  shutdown();
  (void)check_window(tops, twin, hot_ref, cold_ref, out);
  const std::string telemetry_text = [&] {
    std::ifstream in(server.stdout_path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }();

  std::vector<double> ping_us;
  for (std::size_t i = 0; i < tops.size(); ++i) {
    if (tops[i].kind != OpKind::kPing || !twin.results[i].answered) continue;
    ping_us.push_back(1e6 * (twin.results[i].timing.replied_s -
                             twin.results[i].timing.sent_s));
  }

  // Store reads of the hot keys, timed on the store the server left behind.
  double lookup_us = 0.0;
  {
    const auto s = hm::store::ResultStore::open(store_dir);
    std::vector<std::uint64_t> keys;
    for (const Key& k : hot) keys.push_back(store_key(k));
    constexpr int kLoops = 200;
    std::size_t found = 0;
    const auto t0 = Clock::now();
    for (int l = 0; l < kLoops; ++l) {
      for (const auto key : keys) found += s->lookup(key).has_value() ? 1 : 0;
    }
    lookup_us = 1e6 * seconds_since(t0) /
                static_cast<double>(kLoops * keys.size());
    if (found != kLoops * keys.size()) {
      fail_check(out, "hot keys missing from the server's store");
    }
  }

  // Latencies, batching and refusals of the untraced window.
  const std::string stats(stats_body.begin(), stats_body.end());
  const double batches = json_field(stats, "batches");
  const auto slo_ok = std::count_if(lat.all_ms.begin(), lat.all_ms.end(),
                                    [](double ms) { return ms <= kSloMs; });
  out.metrics.add("server.ping_rtt_us", median(ping_us), "us");
  out.metrics.add("server.p50_ms", median(lat.all_ms), "ms");
  out.metrics.add("server.p95_ms", p95.value, "ms");
  out.metrics.add("server.hit_p50_ms", median(lat.hit_ms), "ms");
  out.metrics.add("server.miss_p50_ms", median(lat.miss_ms), "ms");
  out.metrics.add("server.hit_p95_ms", hit_p95.value, "ms");
  // Failed requests have no latency and count as misses of the limit.
  out.metrics.add("server.slo_frac",
                  static_cast<double>(slo_ok) /
                      static_cast<double>(lat.evaluates),
                  "ratio");
  out.metrics.add("server.batches", batches, "count");
  out.metrics.add("server.batch_mean",
                  batches > 0 ? static_cast<double>(lat.evaluates + 1) / batches
                              : 0.0,
                  "count");
  out.metrics.add("server.rejects", json_field(stats, "rejects"), "count");
  out.metrics.add("store.hits", json_field(telemetry_text, "store.hits"),
                  "count");
  out.metrics.add("store.misses", json_field(telemetry_text, "store.misses"),
                  "count");
  out.metrics.add("store.lookup_us", lookup_us, "us");
  out.metrics.add("store.flush_s", flush_s, "s");
  out.metrics.add("bench.gen_late_ms", lat.late_ms, "ms");
  out.metrics.add("bench.trace_overhead", twin.wall_s / win.wall_s, "ratio");
  return out;
}

}  // namespace perfbench
