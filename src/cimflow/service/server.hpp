// cimflowd — the long-lived evaluation daemon (ROADMAP "serve repeated
// evaluation requests without paying process start + cache warmup"). A
// blocking UNIX-domain stream listener accepts newline-delimited JSON
// requests (see protocol.hpp) and dispatches compute verbs onto a bounded
// worker pool over one shared Router, so every request after the first hits
// the warm model / program / decode caches that die with a one-shot CLI
// process.
//
// Concurrency model, smallest thing that works end to end:
//   * one reader thread per accepted connection (requests on one connection
//     are admitted in arrival order but may complete out of order — ids tell
//     events apart);
//   * a bounded admission queue feeding N worker threads. A full queue
//     rejects immediately with a structured kCapacityExceeded error rather
//     than stalling the connection — callers see backpressure, not silence;
//   * control verbs (stats, metrics, shutdown) are answered inline on the
//     reader thread, so they work even when every worker is busy;
//   * writes to one connection are serialized by a per-connection mutex;
//     a disconnected peer marks the connection dead and in-flight work for
//     it completes into the void (results are dropped, never blocked on).
//
// Graceful shutdown (`shutdown` verb or request_stop()): admission closes,
// queued and running jobs drain, the shutdown response is written last, and
// serve() returns after joining every thread and unlinking the socket path.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cimflow/service/protocol.hpp"
#include "cimflow/service/router.hpp"

namespace cimflow::service {

struct DaemonOptions {
  std::string socket_path;  ///< AF_UNIX path; created on bind, unlinked on exit
  std::size_t workers = 2;  ///< compute worker threads
  std::size_t max_queue = 8;  ///< admission bound: queued-but-not-running jobs
  /// Longest accepted request line (bytes, newline included). Oversized lines
  /// are answered with a structured error and discarded up to the next
  /// newline; the connection survives.
  std::size_t max_request_bytes = 1 << 20;
  RouterOptions router;
  /// Test seam: when set, replaces Router::handle for compute verbs (the
  /// protocol tests inject slow/failing handlers to pin queue-full, drain,
  /// and disconnect behavior without running real evaluations).
  std::function<Json(const Request&, const ProgressFn&)> handler;
};

class Daemon {
 public:
  /// Binds and listens (removing a stale socket file first); throws
  /// Error(kIoError) naming the path on failure. The Router is constructed
  /// here too, so a bad cache dir fails before serve().
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Accept loop; blocks until a shutdown request (or request_stop()) has
  /// drained all admitted work, then tears down and returns.
  void serve();

  /// Thread-safe shutdown trigger equivalent to a `shutdown` request with no
  /// connection to answer.
  void request_stop();

  const std::string& socket_path() const noexcept { return options_.socket_path; }

  /// The `stats` payload: admission/queue counters plus the Router's
  /// service block.
  Json stats_json() const;

 private:
  struct Connection;
  struct Job {
    std::shared_ptr<Connection> conn;
    Request request;
  };

  void reader_loop(std::shared_ptr<Connection> conn);
  void handle_line(const std::shared_ptr<Connection>& conn, const std::string& line);
  void worker_loop();
  void run_job(const Job& job);
  /// Blocks until every admitted job has finished (the shutdown drain).
  void wait_drained();

  DaemonOptions options_;
  Router router_;
  int listen_fd_ = -1;

  mutable std::mutex mu_;  ///< queue, counters, lifecycle flags
  std::condition_variable queue_cv_;  ///< workers: work available / stopping
  std::condition_variable drain_cv_;  ///< shutdown: admitted work finished
  std::deque<Job> queue_;
  std::size_t active_jobs_ = 0;
  bool draining_ = false;  ///< admission closed (shutdown in progress)
  bool stop_ = false;      ///< workers + acceptor exit when drained

  // Admission counters (reported by stats, asserted by the smoke tests).
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_queue_full_ = 0;
  std::uint64_t rejected_draining_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;

  std::vector<std::thread> workers_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace cimflow::service
