// ftd — the delivery-cycle engine as a long-running job service.
//
// One thread runs a poll() event loop that owns every connection: it
// accepts clients, splits their byte streams into frames
// (protocol.hpp), validates requests, and admits jobs into a bounded
// queue that the server's own worker threads drain. Workers never
// touch connection state: they compute a response line and hand it back
// through a mutex-protected completion list plus a self-pipe wakeup, and
// the loop routes it to the owning connection's outbox — or drops it if
// that client has since disconnected (the worker is "reaped" simply by
// having nowhere to deliver).
//
// Backpressure is explicit: when admitted-but-unfinished jobs reach
// queue_capacity, new requests get a structured "rejected" record
// (code queue_full) immediately — the daemon never silently hangs a
// client. Per-client isolation: each connection may hold at most
// client_quota jobs in flight (code client_quota), so one greedy client
// cannot starve the rest, and a connection that sends an oversized or
// unparseable frame only ever poisons itself.
//
// Graceful drain: request_drain() (async-signal-safe; SIGTERM in the ftd
// binary) stops accepting, rejects new work with code "draining",
// finishes every in-flight job, flushes each outbox, then closes all
// connections and returns from run(). A drain_grace_ms deadline bounds
// the flush phase so a client that never reads cannot wedge shutdown.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ftd/protocol.hpp"
#include "util/socket.hpp"

namespace ft::ftd {

struct ServerOptions {
  /// Loopback TCP port; 0 asks the kernel for an ephemeral port (read it
  /// back with port() after start()).
  std::uint16_t port = 0;
  /// Worker threads executing jobs (0 = hardware concurrency).
  std::size_t workers = 0;
  /// Admitted-but-unfinished job cap across all clients; above it new
  /// requests are rejected with code queue_full.
  std::size_t queue_capacity = 4096;
  /// Per-connection in-flight cap; above it code client_quota.
  std::size_t client_quota = 1024;
  /// Frame size cap; an overlong line poisons only that connection.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// poll() timeout; only affects idle responsiveness, not throughput.
  int poll_interval_ms = 100;
  /// After a drain request, force-close connections whose outboxes still
  /// have unread bytes once this many ms have passed.
  int drain_grace_ms = 5000;
};

/// Monotone event counters, readable from any thread.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t jobs_admitted = 0;
  std::uint64_t jobs_completed = 0;  ///< results routed to a live client
  std::uint64_t jobs_rejected = 0;   ///< queue_full / client_quota / draining
  std::uint64_t jobs_failed = 0;     ///< error records (parse/validation)
  std::uint64_t responses_dropped = 0;  ///< client vanished mid-job
  std::uint64_t frames_oversized = 0;
};

class Server {
 public:
  explicit Server(ServerOptions opts = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. Returns false with *err filled on failure.
  bool start(std::string* err);

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Runs the event loop until a drain completes. Call from a dedicated
  /// thread (tests) or main (the ftd binary).
  void run();

  /// Begin graceful shutdown; async-signal-safe (an atomic store and a
  /// one-byte pipe write).
  void request_drain();

  ServerStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t token = 0;
    FrameReader reader;
    std::vector<std::string> outbox;  // FIFO; head partially written
    std::size_t outbox_head = 0;      // index of first unsent record
    std::size_t out_off = 0;          // bytes of the head already sent
    std::size_t in_flight = 0;
    bool stop_reading = false;
    bool close_after_flush = false;

    explicit Connection(std::size_t max_frame) : reader(max_frame) {}
    bool outbox_empty() const { return outbox_head >= outbox.size(); }
  };

  struct Completion {
    std::uint64_t token;
    std::string line;
  };

  /// An admitted job waiting for a worker.
  struct QueuedJob {
    std::uint64_t token = 0;
    std::chrono::steady_clock::time_point enqueued;
    JobRequest req;
  };

  void accept_new_clients();
  void handle_readable(Connection& conn);
  void handle_line(Connection& conn, const std::string& line);
  void flush_outbox(Connection& conn);
  void push_response(Connection& conn, std::string line);
  void close_connection(std::uint64_t token);
  void process_completions();
  void submit_job(Connection& conn, JobRequest req);
  /// Pops queued jobs until stop_workers_ is set and the queue is empty.
  void worker_loop();

  ServerOptions opts_;
  net::WakePipe wake_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_token_ = 1;
  std::vector<std::uint64_t> doomed_;  // close after the poll sweep

  /// Jobs admitted and not yet routed back (queued + running + awaiting
  /// completion routing). Owned by the event-loop thread.
  std::size_t pending_ = 0;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  /// The job queue: pushed by the event loop, popped by the workers.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<QueuedJob> jobs_;
  bool stop_workers_ = false;

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;

  // Stats (atomic: bumped by the loop, read from any thread).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> jobs_admitted_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> responses_dropped_{0};
  std::atomic<std::uint64_t> frames_oversized_{0};

  /// Declared after every member a job touches.
  std::vector<std::thread> workers_;
};

}  // namespace ft::ftd
