#include "cimflow/service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "cimflow/support/logging.hpp"
#include "cimflow/support/strings.hpp"

namespace cimflow::service {

/// One accepted client. The fd closes when the last reference (reader thread
/// or still-running job) drops, so a worker can finish writing a result for
/// a connection whose reader already saw EOF — a client may half-close its
/// write side and still collect responses.
struct Daemon::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Serialized best-effort write of one wire line. A failed send (peer
  /// fully gone) marks the connection dead; later events for it are dropped
  /// instead of blocking a worker.
  void write_line(const std::string& bytes) {
    std::lock_guard<std::mutex> lock(mu);
    if (dead) return;
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        dead = true;
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  int fd = -1;
  std::mutex mu;
  bool dead = false;
};

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), router_(options_.router) {
  if (options_.socket_path.empty()) {
    raise(ErrorCode::kInvalidArgument, "DaemonOptions::socket_path must be set");
  }
  if (options_.workers == 0) options_.workers = 1;
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    raise(ErrorCode::kInvalidArgument,
          "socket path too long for AF_UNIX: " + options_.socket_path);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    raise(ErrorCode::kIoError,
          std::string("cannot create UNIX socket: ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // a stale file from a dead daemon
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 16) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    raise(ErrorCode::kIoError,
          "cannot listen on " + options_.socket_path + ": " + reason);
  }
}

Daemon::~Daemon() {
  request_stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
}

void Daemon::request_stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    stop_ = true;
  }
  queue_cv_.notify_all();
  drain_cv_.notify_all();
}

void Daemon::serve() {
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&Daemon::worker_loop, this);
  }
  std::vector<std::weak_ptr<Connection>> open;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) break;
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout (stop recheck) or EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>(fd);
    open.push_back(conn);
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_threads_.emplace_back(&Daemon::reader_loop, this, std::move(conn));
  }
  // Every admitted job has finished (the shutdown verb drained before
  // setting stop_; request_stop leaves the drain to the exiting workers).
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Unblock readers stuck in recv on clients that never disconnect.
  for (const std::weak_ptr<Connection>& weak : open) {
    if (auto conn = weak.lock()) ::shutdown(conn->fd, SHUT_RDWR);
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (std::thread& reader : conn_threads_) reader.join();
    conn_threads_.clear();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
}

void Daemon::reader_loop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  bool discarding = false;  // oversized line: drop bytes until the next '\n'
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: no more requests on this connection
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (discarding) {
        discarding = false;  // the tail of the oversized line — skip it
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle_line(conn, line);
    }
    if (!discarding && buffer.size() > options_.max_request_bytes) {
      conn->write_line(wire_line(error_event(
          0, ErrorCode::kInvalidArgument,
          strprintf("request line exceeds %zu bytes", options_.max_request_bytes))));
      buffer.clear();
      discarding = true;
    }
  }
}

void Daemon::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const Error& e) {
    // No usable id yet — the error echoes id 0.
    conn->write_line(wire_line(error_event(0, e.code(), e.message())));
    return;
  }

  auto reply = [&](Json payload) {
    JsonObject body;
    body["payload"] = std::move(payload);
    conn->write_line(wire_line(result_event(request.id, Json(std::move(body)))));
  };
  if (request.verb == "stats") {
    reply(stats_json());
    return;
  }
  if (request.verb == "metrics") {
    // Prometheus text exposition. Answered inline like stats — a scrape must
    // not queue behind a long evaluate. The payload is a plain string; the
    // client prints string payloads verbatim so `cimflow_cli client metrics`
    // is directly scrape-shaped.
    std::size_t queue_depth = 0;
    std::size_t inflight = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_depth = queue_.size();
      inflight = active_jobs_;
    }
    reply(Json(router_.metrics_text(queue_depth, inflight)));
    return;
  }
  if (request.verb == "shutdown") {
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining_ = true;  // admission closes; queued + running work drains
    }
    wait_drained();
    reply(Json(JsonObject{{"stopped", Json(true)}}));
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    return;
  }

  // Compute verb: admit or reject under the queue bound. The error is
  // written outside the lock — sends must never serialize admission.
  const std::int64_t id = request.id;
  std::string rejection;  // empty = admitted
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || stop_) {
      rejection = "daemon is draining for shutdown; request rejected";
      ++rejected_draining_;
    } else if (queue_.size() >= options_.max_queue) {
      rejection = strprintf("admission queue is full (%zu pending); retry later",
                            queue_.size());
      ++rejected_queue_full_;
    } else {
      queue_.push_back(Job{conn, std::move(request)});
      ++accepted_;
    }
  }
  if (rejection.empty()) {
    queue_cv_.notify_one();
  } else {
    conn->write_line(wire_line(error_event(id, ErrorCode::kCapacityExceeded, rejection)));
  }
}

void Daemon::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_jobs_;
    }
    run_job(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_jobs_;
    }
    drain_cv_.notify_all();
  }
}

void Daemon::run_job(const Job& job) {
  const std::shared_ptr<Connection> conn = job.conn;
  const std::int64_t id = job.request.id;
  const ProgressFn progress = [conn, id](std::size_t completed, std::size_t total) {
    conn->write_line(wire_line(progress_event(id, completed, total)));
  };
  bool ok = false;
  Json event;
  try {
    const Json body = options_.handler ? options_.handler(job.request, progress)
                                       : router_.handle(job.request, progress);
    event = result_event(id, body);
    ok = true;
  } catch (const Error& e) {
    event = error_event(id, e.code(), e.message());
  } catch (const std::exception& e) {
    // Systemic (bad_alloc, logic errors): report and keep serving — one bad
    // request must not take the daemon down.
    CIMFLOW_WARN() << "request " << id << " (" << job.request.verb
                   << ") failed unexpectedly: " << e.what();
    event = error_event(id, ErrorCode::kInternal, e.what());
  }
  // Count before writing the terminal event: a client that reads its result
  // and immediately asks for `stats` must see this request reflected in the
  // completed/failed counters.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++(ok ? completed_ : failed_);
  }
  conn->write_line(wire_line(event));
}

void Daemon::wait_drained() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return queue_.empty() && active_jobs_ == 0; });
}

Json Daemon::stats_json() const {
  JsonObject o = router_.stats_json().as_object();
  const auto count = [](std::uint64_t n) { return Json(static_cast<std::int64_t>(n)); };
  std::lock_guard<std::mutex> lock(mu_);
  o["daemon"] = Json(JsonObject{{"workers", count(options_.workers)},
                                {"queue_capacity", count(options_.max_queue)},
                                {"queue_depth", count(queue_.size())},
                                {"active", count(active_jobs_)},
                                {"accepted", count(accepted_)},
                                {"rejected_queue_full", count(rejected_queue_full_)},
                                {"rejected_draining", count(rejected_draining_)},
                                {"completed", count(completed_)},
                                {"failed", count(failed_)},
                                {"draining", Json(draining_)}});
  return Json(std::move(o));
}

}  // namespace cimflow::service
