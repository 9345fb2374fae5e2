#include "ftd/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <exception>

#include "util/parse.hpp"

namespace ft::ftd {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

Server::Server(ServerOptions opts) : opts_(opts) {
  const std::size_t workers = resolve_threads(opts_.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() {
  // Workers touch the completion list and the wake pipe, so they are
  // joined before any member is destroyed, even if run() never ran.
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    stop_workers_ = true;
  }
  jobs_cv_.notify_all();
  for (auto& w : workers_) w.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& [token, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

bool Server::start(std::string* err) {
  listen_fd_ = net::listen_tcp_loopback(opts_.port, /*backlog=*/128, err);
  if (listen_fd_ < 0) return false;
  if (!net::set_nonblocking(listen_fd_)) {
    if (err) *err = "fcntl(O_NONBLOCK) failed on listen socket";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = net::local_port(listen_fd_);
  return true;
}

void Server::request_drain() {
  drain_requested_.store(true, std::memory_order_release);
  wake_.notify();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_closed = connections_closed_.load();
  s.jobs_admitted = jobs_admitted_.load();
  s.jobs_completed = jobs_completed_.load();
  s.jobs_rejected = jobs_rejected_.load();
  s.jobs_failed = jobs_failed_.load();
  s.responses_dropped = responses_dropped_.load();
  s.frames_oversized = frames_oversized_.load();
  return s;
}

void Server::run() {
  Clock::time_point drain_started{};
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_tokens;  // parallel to fds, 0 = not a conn

  for (;;) {
    fds.clear();
    fd_tokens.clear();
    fds.push_back({wake_.read_fd(), POLLIN, 0});
    fd_tokens.push_back(0);
    if (!draining_ && listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_tokens.push_back(0);
    }
    for (auto& [token, conn] : conns_) {
      short events = 0;
      if (!conn->stop_reading) events |= POLLIN;
      if (!conn->outbox_empty()) events |= POLLOUT;
      if (events == 0) events = POLLHUP;  // still detect peer close
      fds.push_back({conn->fd, events, 0});
      fd_tokens.push_back(token);
    }

    ::poll(fds.data(), fds.size(), opts_.poll_interval_ms);

    if (fds[0].revents & POLLIN) wake_.drain();
    process_completions();

    if (!draining_ && drain_requested_.load(std::memory_order_acquire)) {
      draining_ = true;
      drain_started = Clock::now();
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
    }

    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fd_tokens[i] == 0) {
        if (fds[i].revents & POLLIN) accept_new_clients();
        continue;
      }
      const auto it = conns_.find(fd_tokens[i]);
      if (it == conns_.end()) continue;
      Connection& conn = *it->second;
      if (fds[i].revents & (POLLERR | POLLNVAL)) {
        doomed_.push_back(conn.token);
        continue;
      }
      if (fds[i].revents & POLLIN) handle_readable(conn);
      if (conns_.find(fd_tokens[i]) == conns_.end()) continue;  // closed above
      if (fds[i].revents & (POLLOUT | POLLHUP)) flush_outbox(conn);
    }
    for (const std::uint64_t token : doomed_) close_connection(token);
    doomed_.clear();

    if (draining_) {
      bool outboxes_empty = true;
      for (auto& [token, conn] : conns_) {
        outboxes_empty &= conn->outbox_empty();
      }
      const bool grace_over =
          seconds_between(drain_started, Clock::now()) * 1000.0 >
          opts_.drain_grace_ms;
      if ((pending_ == 0 && outboxes_empty) ||
          (grace_over && pending_ == 0)) {
        break;
      }
    }
  }

  // All jobs are routed (pending_ == 0); close every connection so
  // clients see a clean EOF after the flushed results.
  std::vector<std::uint64_t> all;
  all.reserve(conns_.size());
  for (auto& [token, conn] : conns_) all.push_back(token);
  for (const std::uint64_t token : all) close_connection(token);
}

void Server::accept_new_clients() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient error: next poll retries
    }
    net::set_nonblocking(fd);
    const std::uint64_t token = next_token_++;
    auto conn = std::make_unique<Connection>(opts_.max_frame_bytes);
    conn->fd = fd;
    conn->token = token;
    connections_accepted_.fetch_add(1);
    push_response(*conn, hello_record(opts_.queue_capacity,
                                      opts_.client_quota,
                                      opts_.max_frame_bytes));
    conns_.emplace(token, std::move(conn));
  }
}

void Server::handle_readable(Connection& conn) {
  char buf[8192];
  for (;;) {
    const long n = net::read_some(conn.fd, buf, sizeof buf);
    if (n > 0) {
      conn.reader.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n == 0) {  // orderly EOF: drop the client (in-flight jobs reaped
                   // when their completions find no connection)
      doomed_.push_back(conn.token);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    doomed_.push_back(conn.token);
    return;
  }

  std::string line;
  for (;;) {
    const auto status = conn.reader.next(line);
    if (status == FrameReader::Status::NeedMore) break;
    if (status == FrameReader::Status::Overflow) {
      frames_oversized_.fetch_add(1);
      jobs_failed_.fetch_add(1);
      // Flags first: push_response flushes inline, and flush_outbox only
      // dooms the connection if close_after_flush is already set when
      // the outbox empties.
      conn.stop_reading = true;
      conn.close_after_flush = true;
      push_response(conn, error_record("", "oversized_frame",
                                       "frame exceeds max_frame_bytes"));
      break;
    }
    if (line.empty()) continue;
    handle_line(conn, line);
    if (conn.stop_reading) break;
  }
}

void Server::handle_line(Connection& conn, const std::string& line) {
  RequestError err;
  auto req = parse_request(line, err);
  if (!req) {
    jobs_failed_.fetch_add(1);
    push_response(conn, error_record(err.id, err.code, err.message));
    return;
  }
  if (req->kind == JobKind::Ping) {
    // Liveness probes bypass the queue: they must answer even under
    // saturation, and they cost nothing.
    push_response(conn, result_record(req->id, run_job(*req), 0.0, 0.0));
    return;
  }
  if (draining_) {
    jobs_rejected_.fetch_add(1);
    push_response(conn, rejected_record(req->id, "draining",
                                        "server is draining", pending_));
    return;
  }
  if (pending_ >= opts_.queue_capacity) {
    jobs_rejected_.fetch_add(1);
    push_response(conn, rejected_record(req->id, "queue_full",
                                        "job queue at capacity", pending_));
    return;
  }
  if (conn.in_flight >= opts_.client_quota) {
    jobs_rejected_.fetch_add(1);
    push_response(conn,
                  rejected_record(req->id, "client_quota",
                                  "per-client in-flight quota exceeded",
                                  pending_));
    return;
  }
  submit_job(conn, std::move(*req));
}

void Server::submit_job(Connection& conn, JobRequest req) {
  ++pending_;
  ++conn.in_flight;
  jobs_admitted_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back({conn.token, Clock::now(), std::move(req)});
  }
  jobs_cv_.notify_one();
}

void Server::worker_loop() {
  for (;;) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock, [this] { return stop_workers_ || !jobs_.empty(); });
      if (jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    const JobRequest& req = job.req;
    const auto started = Clock::now();
    std::string line;
    try {
      const JsonValue run = run_job(req);
      line = result_record(req.id, run,
                           seconds_between(job.enqueued, started),
                           seconds_between(started, Clock::now()));
    } catch (const std::exception& e) {
      line = error_record(req.id, "job_failed", e.what());
    } catch (...) {
      line = error_record(req.id, "job_failed", "unknown exception");
    }
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back({job.token, std::move(line)});
    }
    wake_.notify();
  }
}

void Server::process_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (auto& c : batch) {
    --pending_;
    const auto it = conns_.find(c.token);
    if (it == conns_.end()) {
      responses_dropped_.fetch_add(1);
      continue;
    }
    Connection& conn = *it->second;
    if (conn.in_flight > 0) --conn.in_flight;
    jobs_completed_.fetch_add(1);
    push_response(conn, std::move(c.line));
  }
}

void Server::push_response(Connection& conn, std::string line) {
  conn.outbox.push_back(std::move(line));
  flush_outbox(conn);
}

void Server::flush_outbox(Connection& conn) {
  while (!conn.outbox_empty()) {
    const std::string& head = conn.outbox[conn.outbox_head];
    const long n = net::write_some(conn.fd, head.data() + conn.out_off,
                                   head.size() - conn.out_off);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      doomed_.push_back(conn.token);
      return;
    }
    conn.out_off += static_cast<std::size_t>(n);
    if (conn.out_off < head.size()) return;  // kernel buffer full
    conn.out_off = 0;
    ++conn.outbox_head;
    // Compact the sent prefix occasionally (bounded memory per client).
    if (conn.outbox_head > 64 && conn.outbox_head * 2 > conn.outbox.size()) {
      conn.outbox.erase(conn.outbox.begin(),
                        conn.outbox.begin() +
                            static_cast<long>(conn.outbox_head));
      conn.outbox_head = 0;
    }
  }
  if (conn.close_after_flush) doomed_.push_back(conn.token);
}

void Server::close_connection(std::uint64_t token) {
  const auto it = conns_.find(token);
  if (it == conns_.end()) return;
  ::close(it->second->fd);
  conns_.erase(it);
  connections_closed_.fetch_add(1);
}

}  // namespace ft::ftd
