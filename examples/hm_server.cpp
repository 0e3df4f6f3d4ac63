// hm_server: serve evaluate/sweep/search requests over a Unix-domain
// socket and/or a 127.0.0.1 TCP port, keeping the topology intern cache,
// the result cache and (with --cache-dir) the persistent result store warm
// across requests. See src/server/server.hpp for the protocol and the
// batching/fairness model; drive it with hm_client.
//
//   ./hm_server --unix /tmp/hm.sock                serve on a Unix socket
//   ./hm_server --port 0                           serve on an ephemeral
//                                                  TCP port (printed as
//                                                  "port: N" on stdout)
//   ./hm_server --unix P --port N --threads K --cache-dir DIR
//   ./hm_server ... --max-pending N --max-per-client N
//                                                  admission control knobs
//   ./hm_server ... --telemetry                    print the metrics
//                                                  snapshot on exit
//
// The process runs until a kShutdown command arrives (hm_client ...
// shutdown); it then drains in-flight work, flushes the store, unlinks the
// Unix socket and exits 0.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "cli_util.hpp"
#include "server/server.hpp"
#include "store/result_store.hpp"

int main(int argc, char** argv) {
  const auto tcli = hm::cli::TelemetryCli::extract(argc, argv);
  tcli.begin();

  hm::server::ServerOptions opt;
  std::string cache_dir;
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--unix") == 0) {
      opt.unix_path = need_value("--unix");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      opt.tcp_port = static_cast<int>(hm::cli::require_unsigned(
          need_value("--port"), "--port", 0, 65535));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opt.threads = hm::cli::require_unsigned(need_value("--threads"),
                                              "--threads", 0,
                                              hm::cli::kMaxThreads);
    } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
      cache_dir = need_value("--cache-dir");
    } else if (std::strcmp(argv[i], "--max-pending") == 0) {
      opt.max_pending = hm::cli::require_size(need_value("--max-pending"),
                                              "--max-pending", 1, 100000);
    } else if (std::strcmp(argv[i], "--max-per-client") == 0) {
      opt.max_pending_per_client = hm::cli::require_size(
          need_value("--max-per-client"), "--max-per-client", 1, 100000);
    } else {
      std::fprintf(stderr,
                   "unknown argument %s\nusage: %s (--unix PATH | --port P) "
                   "[--threads K] [--cache-dir DIR] [--max-pending N] "
                   "[--max-per-client N] [--telemetry]\n",
                   argv[i], argv[0]);
      return 1;
    }
  }
  if (opt.unix_path.empty() && opt.tcp_port < 0) {
    std::fprintf(stderr, "need --unix PATH and/or --port P\n");
    return 1;
  }
  opt.cache_dir = hm::store::ResultStore::resolve_dir(cache_dir);

  // Interactive-speed measurement windows (paper-length defaults would
  // make each request take minutes).
  opt.params.latency_measure = 6000;
  opt.params.throughput_warmup = 2000;
  opt.params.throughput_measure = 2000;

  try {
    hm::server::Server server(opt);
    server.start();
    if (!opt.unix_path.empty()) {
      std::fprintf(stderr, "listening on unix socket %s\n",
                   opt.unix_path.c_str());
    }
    if (server.tcp_port() >= 0) {
      // stdout, parseable: smoke scripts bind port 0 and scrape this.
      std::printf("port: %d\n", server.tcp_port());
      std::fflush(stdout);
    }
    if (!opt.cache_dir.empty()) {
      std::fprintf(stderr, "persistent store: %s\n", opt.cache_dir.c_str());
    }
    server.wait();
    server.stop();
    const auto stats = server.stats_snapshot();
    std::fprintf(stderr,
                 "served %llu requests (%llu rejected) in %.1f s\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.rejects),
                 stats.uptime_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  tcli.finish();
  return 0;
}
