// Socket backend: one forked worker process per cluster node, connected by a
// SOCK_STREAM socketpair. Every message is
//
//   [u8 message type][adm wire frame: magic, version, length, CRC-32, payload]
//
// (full reference: docs/DISTRIBUTED.md). Exchange destinations are
// *computed* in the workers: the parent ships a kFragment request (operator
// closure plus the destination's input slice), the worker runs the installed
// fragment interpreter (hyracks/fragment.cc) and replies kFragmentResult
// with the built rows and its own accounting, or kFragmentError with an
// encoded Status. kPing/kPong drain the channels, kCancelFragment fills the
// worker's cancel ledger, and kShutdown ends the worker.
//
// The bytes genuinely leave and re-enter the process, so framing or serde
// bugs fail loudly here, and the measured round-trip wall clock is what the
// cost model reports instead of the modeled network charge.
//
// Determinism: workers are pure functions of their input message, requests
// are synchronous request-reply under a per-worker mutex, and a worker
// failure surfaces as the build task's error, where the executor's
// lowest-(node, partition)-wins rule already makes error selection
// deterministic. A vanished worker (EOF/EPIPE/ECONNRESET) is always
// kUnavailable, so worker-death failures are programmatically recognizable.
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "adm/wire.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "transport/internal.h"

namespace simdb::transport {
namespace internal {

namespace {

/// Message-type byte for the [u8 type][frame] channel protocol. The values
/// live in adm::WireMessage so the wire-frame fuzzer and docs share them;
/// this helper keeps switch labels and comparisons readable.
constexpr uint8_t AsByte(adm::WireMessage m) { return static_cast<uint8_t>(m); }

constexpr uint8_t kPing = AsByte(adm::WireMessage::kPing);
constexpr uint8_t kShutdown = AsByte(adm::WireMessage::kShutdown);
constexpr uint8_t kPong = AsByte(adm::WireMessage::kPong);
constexpr uint8_t kFragment = AsByte(adm::WireMessage::kFragment);
constexpr uint8_t kFragmentResult = AsByte(adm::WireMessage::kFragmentResult);
constexpr uint8_t kFragmentError = AsByte(adm::WireMessage::kFragmentError);
constexpr uint8_t kCancelFragment = AsByte(adm::WireMessage::kCancelFragment);

Status IoError(const std::string& what) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): strerror's static buffer is only
  // read here, immediately, on the error path; glibc's is thread-local.
  return Status::Internal("transport socket: " + what + ": " +
                          std::strerror(errno));
}

/// A vanished peer process. Always kUnavailable — the worker-death tests and
/// the serving layer distinguish "worker gone" from local IO trouble by code.
Status WorkerGone(const std::string& what) {
  return Status::Unavailable("transport socket: worker gone: " + what);
}

Status WriteFull(int fd, const char* data, size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a dead worker must surface as EPIPE, not kill the server.
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return WorkerGone("send hit a closed channel");
      }
      return IoError("send failed");
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

Status ReadFull(int fd, char* data, size_t n) {
  while (n > 0) {
    ssize_t r = ::read(fd, data, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return WorkerGone("read hit a reset channel");
      return IoError("read failed");
    }
    if (r == 0) return WorkerGone("worker closed the channel");
    data += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

/// Upper bound on a frame payload accepted off the wire. A corrupted or
/// desynchronized stream must produce a Corruption status, not a multi-GiB
/// buffer resize (an uncatchable bad_alloc); real destination frames are
/// orders of magnitude below this.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;  // 1 GiB

/// Reads one [type][frame] message. The frame is self-delimiting: its header
/// is fixed-size and carries the payload length. The magic, version, and
/// payload length are validated *before* the buffer is sized to the length
/// field, so garbage on the stream fails cleanly here (the CRC is checked
/// later by adm::ReadFrame when the payload is consumed).
Status ReadMessage(int fd, uint8_t* type, std::string* frame) {
  char t;
  SIMDB_RETURN_IF_ERROR(ReadFull(fd, &t, 1));
  *type = static_cast<uint8_t>(t);
  frame->resize(adm::kWireHeaderBytes);
  SIMDB_RETURN_IF_ERROR(ReadFull(fd, frame->data(), adm::kWireHeaderBytes));
  uint32_t magic;
  std::memcpy(&magic, frame->data(), 4);
  if (magic != adm::kWireMagic) {
    return Status::Corruption("transport socket: bad frame magic on stream");
  }
  uint8_t version = static_cast<uint8_t>((*frame)[4]);
  if (version != adm::kWireVersion) {
    return Status::Corruption("transport socket: unknown frame version " +
                              std::to_string(static_cast<int>(version)));
  }
  uint32_t payload_len;
  std::memcpy(&payload_len, frame->data() + 5, 4);  // after magic(4)+version(1)
  if (payload_len > kMaxPayloadBytes) {
    return Status::Corruption("transport socket: frame payload length " +
                              std::to_string(payload_len) +
                              " exceeds the wire maximum");
  }
  frame->resize(adm::kWireHeaderBytes + payload_len);
  return ReadFull(fd, frame->data() + adm::kWireHeaderBytes, payload_len);
}

Status WriteMessage(int fd, uint8_t type, const std::string& frame) {
  char t = static_cast<char>(type);
  SIMDB_RETURN_IF_ERROR(WriteFull(fd, &t, 1));
  return WriteFull(fd, frame.data(), frame.size());
}

/// Recently cancelled query ids remembered by a worker. Sixteen entries is
/// generous — the serving layer cancels queries one at a time and a stale
/// entry only matters while that query still has fragments in flight.
struct CancelLedger {
  std::array<uint64_t, 16> ids{};
  size_t next = 0;

  void Record(uint64_t query_id) {
    ids[next] = query_id;
    next = (next + 1) % ids.size();
  }
  bool Contains(uint64_t query_id) const {
    // Query id 0 means "unattributed" (a query outside the serving layer);
    // those are never cancelled remotely.
    if (query_id == 0) return false;
    for (uint64_t id : ids) {
      if (id == query_id) return true;
    }
    return false;
  }
};

/// Interprets one kFragment request payload inside the worker: checks the
/// cancel ledger against the leading query id, then hands the payload to the
/// installed interpreter. Always produces a reply (result or encoded error).
void HandleFragment(const CancelLedger& ledger, std::string_view payload,
                    uint8_t* reply_type, std::string* reply) {
  FragmentReply out;
  ByteReader peek(payload);
  Result<uint64_t> query_id = peek.GetU64();
  if (!query_id.ok()) {
    adm::EncodeFragmentError(query_id.status(), &out.payload);
  } else if (ledger.Contains(*query_id)) {
    adm::EncodeFragmentError(
        Status::Cancelled("fragment refused: query " +
                          std::to_string(*query_id) + " was cancelled"),
        &out.payload);
  } else if (InstalledFragmentInterpreter() == nullptr) {
    adm::EncodeFragmentError(
        Status::Unsupported("worker has no fragment interpreter installed"),
        &out.payload);
  } else {
    out = InstalledFragmentInterpreter()(payload);
  }
  *reply_type = out.ok ? kFragmentResult : kFragmentError;
  reply->clear();
  adm::WriteFrame(out.payload, reply);
}

/// The worker loop run in the forked child. For kFragment the worker
/// *computes* the destination via the installed interpreter — the parent
/// never materializes it.
[[noreturn]] void ServeWorker(int fd) {
  std::string empty_frame;
  adm::WriteFrame("", &empty_frame);
  CancelLedger cancelled;
  for (;;) {
    uint8_t type = 0;
    std::string frame;
    if (!ReadMessage(fd, &type, &frame).ok()) _exit(0);
    switch (type) {
      case kPing:
        if (!WriteMessage(fd, kPong, empty_frame).ok()) _exit(0);
        break;
      case kShutdown:
        _exit(0);
      case kFragment: {
        ByteReader outer(frame);
        Result<std::string_view> payload = adm::ReadFrame(&outer);
        uint8_t reply_type = kFragmentError;
        std::string reply;
        if (!payload.ok()) {
          std::string err;
          adm::EncodeFragmentError(payload.status(), &err);
          adm::WriteFrame(err, &reply);
        } else {
          HandleFragment(cancelled, *payload, &reply_type, &reply);
        }
        if (!WriteMessage(fd, reply_type, reply).ok()) _exit(0);
        break;
      }
      case kCancelFragment: {
        ByteReader outer(frame);
        Result<std::string_view> payload = adm::ReadFrame(&outer);
        if (payload.ok()) {
          ByteReader r(*payload);
          Result<uint64_t> query_id = r.GetU64();
          if (query_id.ok()) cancelled.Record(*query_id);
        }
        // Acknowledge even a malformed cancel: the parent's bounded wait
        // must not hang on a request that was merely unparseable.
        if (!WriteMessage(fd, kPong, empty_frame).ok()) _exit(0);
        break;
      }
      default:
        _exit(0);  // protocol violation; the server will see a closed socket
    }
  }
}

/// Blocks until `fd` is readable or `deadline` passes.
Status WaitReadable(int fd, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return Status::DeadlineExceeded(
          "transport socket: drain timed out waiting for a ping reply");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int r = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (r < 0) {
      if (errno == EINTR) continue;
      return IoError("poll failed");
    }
    if (r == 0) {
      return Status::DeadlineExceeded(
          "transport socket: drain timed out waiting for a ping reply");
    }
    return Status::OK();
  }
}

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(int num_nodes)
      : workers_(static_cast<size_t>(num_nodes > 0 ? num_nodes : 1)) {
    // All workers are forked eagerly, here, and the engine builds its
    // transport before its pool, so no other engine thread exists yet.
    // Forking from a multithreaded process is hazardous: the child inherits
    // a snapshot of every lock (allocator size classes, metrics registry,
    // histogram mutexes), and its first fragment decode takes several of
    // them — if any other thread held one at the fork instant, the child
    // deadlocks and the parent's next read on that socket blocks forever.
    // glibc malloc's atfork handlers hide this for plain builds; ASan's
    // allocator has none.
    GetMetrics();  // materialize metric handles pre-fork, outside the child
    GetFragmentMetrics();  // ditto for the transport.fragment.* catalogue
    std::vector<int> parent_fds;
    parent_fds.reserve(workers_.size());
    for (Worker& w : workers_) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        init_status_ = IoError("socketpair failed");
        return;
      }
      pid_t pid = ::fork();
      if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        init_status_ = IoError("fork failed");
        return;
      }
      if (pid == 0) {
        // Drop the inherited parent ends of earlier workers' channels so
        // each channel really closes when the parent closes its end.
        for (int fd : parent_fds) ::close(fd);
        ::close(sv[0]);
        ServeWorker(sv[1]);  // never returns
      }
      ::close(sv[1]);
      {
        // Construction is single-threaded; the lock only keeps the
        // annotated fd/pid guard discipline uniform.
        MutexLock lock(w.mu);
        w.fd = sv[0];
        w.pid = pid;
      }
      parent_fds.push_back(sv[0]);
      GetMetrics().workers_spawned->Increment();
    }
  }

  ~SocketTransport() override {
    for (Worker& w : workers_) {
      MutexLock lock(w.mu);
      if (w.pid < 0) continue;
      std::string empty_frame;
      adm::WriteFrame("", &empty_frame);
      // Best-effort: the worker may already be gone; waitpid below is the
      // authoritative cleanup either way.
      (void)WriteMessage(w.fd, kShutdown, empty_frame);
      ::close(w.fd);
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }

  TransportKind kind() const override { return TransportKind::kSocket; }
  bool remote_execution() const override {
    // True even when a socketpair or fork failed: ExecuteFragment then
    // returns init_status_ and the query fails loudly instead of quietly
    // building every destination in the parent.
    return true;
  }

  Status Drain(double timeout_seconds) override {
    SIMDB_RETURN_IF_ERROR(init_status_);
    bool bounded = timeout_seconds > 0;
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(bounded ? timeout_seconds : 0));
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = workers_[i];
      if (bounded) {
        // A worker busy with another query's fragment holds its mutex for
        // that round trip; a bounded drain must not be starved behind a
        // sustained stream of them. Deadline-bounded TryLock polling
        // rather than timed_mutex::try_lock_until: the drain is cold, and
        // TSan has no interceptor for pthread_mutex_clocklock, so the timed
        // lock would raise false "unlock of unlocked mutex" reports in the
        // sanitizer CI job.
        while (!w.mu.TryLock()) {
          if (std::chrono::steady_clock::now() >= deadline) {
            return Status::DeadlineExceeded(
                "transport socket: drain timed out behind node " +
                std::to_string(i) + "'s in-flight request");
          }
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      } else {
        w.mu.Lock();
      }
      Status pinged = PingWorkerLocked(w, i, bounded, deadline);
      w.mu.Unlock();
      SIMDB_RETURN_IF_ERROR(pinged);
    }
    GetMetrics().drains->Increment();
    return Status::OK();
  }

  Status ExecuteFragment(int dst_node, const std::string& request_payload,
                         std::string* reply_payload,
                         double* seconds) override {
    SIMDB_RETURN_IF_ERROR(init_status_);
    FragmentMetrics& fm = GetFragmentMetrics();
    if (dst_node < 0 || static_cast<size_t>(dst_node) >= workers_.size()) {
      // Sending to a clamped/default worker instead would mask topology and
      // routing bugs while reporting success; fail loudly.
      fm.errors->Increment();
      return Status::Internal(
          "transport socket: fragment for out-of-range node " +
          std::to_string(dst_node) + " (cluster has " +
          std::to_string(workers_.size()) + " nodes)");
    }
    Stopwatch sw;
    std::string frame;
    adm::WriteFrame(request_payload, &frame);
    fm.dispatched->Increment();
    fm.request_bytes->Add(frame.size());
    Worker& w = workers_[static_cast<size_t>(dst_node)];
    uint8_t reply_type = 0;
    std::string reply;
    {
      // One request-reply in flight per worker; fragments for distinct
      // nodes proceed in parallel.
      MutexLock lock(w.mu);
      Status s = ConsumePendingPongsLocked(w);
      if (s.ok()) s = WriteMessage(w.fd, kFragment, frame);
      if (s.ok()) s = ReadMessage(w.fd, &reply_type, &reply);
      if (!s.ok()) {
        fm.errors->Increment();
        return s;
      }
    }
    fm.reply_bytes->Add(reply.size());
    ByteReader outer(reply);
    Result<std::string_view> payload = adm::ReadFrame(&outer);
    if (!payload.ok()) {
      fm.errors->Increment();
      return payload.status();
    }
    if (reply_type == kFragmentError) {
      fm.errors->Increment();
      // The carried Status is the worker's verdict, reproduced exactly —
      // error identity across backends depends on this.
      return adm::DecodeFragmentError(*payload);
    }
    if (reply_type != kFragmentResult) {
      fm.errors->Increment();
      return Status::Internal(
          "transport socket: unexpected fragment reply type " +
          std::to_string(static_cast<int>(reply_type)));
    }
    reply_payload->assign(payload->data(), payload->size());
    if (seconds != nullptr) *seconds = sw.ElapsedSeconds();
    return Status::OK();
  }

  Status CancelFragments(uint64_t query_id, double timeout_seconds) override {
    SIMDB_RETURN_IF_ERROR(init_status_);
    bool bounded = timeout_seconds > 0;
    // One deadline shared by every worker (the Drain rule): N slow workers
    // must not consume N times the caller's budget.
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(bounded ? timeout_seconds : 0));
    std::string payload;
    ByteWriter bw(&payload);
    bw.PutU64(query_id);
    std::string frame;
    adm::WriteFrame(payload, &frame);
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = workers_[i];
      if (bounded) {
        while (!w.mu.TryLock()) {
          if (std::chrono::steady_clock::now() >= deadline) {
            return Status::DeadlineExceeded(
                "transport socket: fragment cancel timed out behind node " +
                std::to_string(i) + "'s in-flight request");
          }
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      } else {
        w.mu.Lock();
      }
      Status sent = CancelWorkerLocked(w, i, frame, bounded, deadline);
      w.mu.Unlock();
      SIMDB_RETURN_IF_ERROR(sent);
    }
    return Status::OK();
  }

  std::vector<int> worker_pids() override {
    std::vector<int> pids;
    for (Worker& w : workers_) {
      MutexLock lock(w.mu);
      if (w.pid > 0) pids.push_back(static_cast<int>(w.pid));
    }
    return pids;
  }

 private:
  struct Worker {
    /// One request-reply in flight per worker channel. Rank kTransport; the
    /// drain loop holds at most one worker mutex at a time (released before
    /// the next node's is taken), so same-rank nesting never occurs.
    Mutex mu{lockrank::Rank::kTransport, "SocketTransport::Worker::mu"};
    int fd SIMDB_GUARDED_BY(mu) = -1;
    pid_t pid SIMDB_GUARDED_BY(mu) = -1;
    /// Replies written by the worker whose bounded wait timed out before
    /// they arrived (ping or cancel ack). They are still on the stream; the
    /// next request on this channel must consume them first or it would read
    /// a stale kPong as its own reply and desynchronize the protocol.
    int pending_pongs SIMDB_GUARDED_BY(mu) = 0;
  };

  /// Drains stale acknowledgements left by timed-out bounded waits (see
  /// Worker::pending_pongs) so the channel is request-reply aligned again.
  Status ConsumePendingPongsLocked(Worker& w) SIMDB_REQUIRES(w.mu) {
    while (w.pending_pongs > 0) {
      uint8_t type = 0;
      std::string frame;
      SIMDB_RETURN_IF_ERROR(ReadMessage(w.fd, &type, &frame));
      if (type != kPong) {
        return Status::Internal(
            "transport socket: expected a stale pong, got type " +
            std::to_string(static_cast<int>(type)));
      }
      --w.pending_pongs;
    }
    return Status::OK();
  }

  /// One ping round trip on an already-locked worker channel; split out so
  /// Drain's early error returns cannot skip the explicit Unlock.
  Status PingWorkerLocked(Worker& w, size_t node, bool bounded,
                          std::chrono::steady_clock::time_point deadline)
      SIMDB_REQUIRES(w.mu) {
    SIMDB_RETURN_IF_ERROR(ConsumePendingPongsLocked(w));
    std::string empty_frame;
    adm::WriteFrame("", &empty_frame);
    SIMDB_RETURN_IF_ERROR(WriteMessage(w.fd, kPing, empty_frame));
    if (bounded) {
      Status readable = WaitReadable(w.fd, deadline);
      if (!readable.ok()) {
        // The ping is written; its pong will arrive eventually and must not
        // be mistaken for the next request's reply.
        if (readable.code() == StatusCode::kDeadlineExceeded) {
          ++w.pending_pongs;
        }
        return readable;
      }
    }
    uint8_t type = 0;
    std::string frame;
    SIMDB_RETURN_IF_ERROR(ReadMessage(w.fd, &type, &frame));
    if (type != kPong) {
      return Status::Internal("transport socket: node " +
                              std::to_string(node) +
                              " answered ping with type " +
                              std::to_string(static_cast<int>(type)));
    }
    return Status::OK();
  }

  /// One cancel round trip on an already-locked worker channel. The ack wait
  /// is bounded by the caller's shared deadline; a timeout leaves the ack on
  /// the stream as a pending pong (same rule as a timed-out drain ping).
  Status CancelWorkerLocked(Worker& w, size_t node, const std::string& frame,
                            bool bounded,
                            std::chrono::steady_clock::time_point deadline)
      SIMDB_REQUIRES(w.mu) {
    SIMDB_RETURN_IF_ERROR(ConsumePendingPongsLocked(w));
    SIMDB_RETURN_IF_ERROR(WriteMessage(w.fd, kCancelFragment, frame));
    GetFragmentMetrics().cancels_sent->Increment();
    if (bounded) {
      Status readable = WaitReadable(w.fd, deadline);
      if (!readable.ok()) {
        if (readable.code() == StatusCode::kDeadlineExceeded) {
          ++w.pending_pongs;
          return Status::DeadlineExceeded(
              "transport socket: fragment cancel ack from node " +
              std::to_string(node) + " timed out");
        }
        return readable;
      }
    }
    uint8_t type = 0;
    std::string reply;
    SIMDB_RETURN_IF_ERROR(ReadMessage(w.fd, &type, &reply));
    if (type != kPong) {
      return Status::Internal("transport socket: node " +
                              std::to_string(node) +
                              " acknowledged cancel with type " +
                              std::to_string(static_cast<int>(type)));
    }
    return Status::OK();
  }

  std::vector<Worker> workers_;
  Status init_status_;  // first socketpair/fork failure, if any
};

}  // namespace

std::unique_ptr<Transport> MakeSocketTransport(int num_nodes) {
  return std::make_unique<SocketTransport>(num_nodes);
}

}  // namespace internal
}  // namespace simdb::transport
