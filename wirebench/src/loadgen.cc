#include "loadgen.h"

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <cerrno>
#include <cmath>

namespace wirebench {

namespace {

Ns ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Ns>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// Scheduling for the duration of one Run* call. ppoll's timer slack
/// defaults to 50 us; the generator wants its wake-ups at the due time.
/// And a sleeping thread of the default policy that wakes on a core where
/// a serving thread is mid-batch can wait a whole scheduler slice, so the
/// generator takes the lowest real-time priority where it is permitted: it
/// sleeps between arrivals, so it cannot starve the stack. The previous
/// policy comes back when the call ends.
class GeneratorScheduling {
 public:
  GeneratorScheduling() : slack_(prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL)) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    pthread_getschedparam(pthread_self(), &policy_, &param_);
    sched_param rt{};
    rt.sched_priority = 1;
    raised_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &rt) == 0;
  }
  ~GeneratorScheduling() {
    if (raised_) pthread_setschedparam(pthread_self(), policy_, &param_);
    if (slack_ > 0) {
      prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack_), 0UL, 0UL, 0UL);
    }
  }
  GeneratorScheduling(const GeneratorScheduling&) = delete;
  GeneratorScheduling& operator=(const GeneratorScheduling&) = delete;

  bool raised() const { return raised_; }

 private:
  const int slack_;  ///< previous timer slack in ns (negative on error)
  int policy_ = SCHED_OTHER;
  sched_param param_{};
  bool raised_ = false;
};

}  // namespace

std::vector<Ns> PoissonSchedule(uint64_t seed, double rate_qps,
                                Ns duration_ns) {
  std::vector<Ns> offsets;
  if (rate_qps <= 0.0) return offsets;
  SeedStream rng(seed);
  double t_s = 0.0;
  const double end_s = static_cast<double>(duration_ns) / 1e9;
  while (true) {
    t_s += -std::log(rng.Uniform()) / rate_qps;
    if (t_s >= end_s) break;
    offsets.push_back(static_cast<Ns>(t_s * 1e9));
  }
  return offsets;
}

bool LoadGenerator::Connect(const tspn::common::SocketAddress& address,
                            int connections, std::string* error) {
  conns_.clear();
  conns_.resize(static_cast<size_t>(connections));
  for (Conn& conn : conns_) {
    conn.fd = tspn::common::ConnectTo(address, error);
    if (!conn.fd.valid()) return false;
    if (!tspn::common::SetNonBlocking(conn.fd.get(), error)) return false;
  }
  return true;
}

void LoadGenerator::Enqueue(Conn& conn, const std::vector<uint8_t>& frame,
                            size_t index) {
  uint8_t prefix[4];
  tspn::common::StoreU32Le(static_cast<uint32_t>(frame.size()), prefix);
  conn.out.insert(conn.out.end(), prefix, prefix + 4);
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  conn.pending.push_back(index);
}

void LoadGenerator::Flush(Conn& conn) {
  while (!conn.dead && conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd.get(), conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      conn.dead = true;
    }
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
}

int64_t LoadGenerator::Receive(Conn& conn, std::vector<Outcome>* outcomes) {
  uint8_t buf[65536];
  while (!conn.dead) {
    const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn.in.insert(conn.in.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.dead = true;  // EOF or a hard error
  }
  const Ns now = NowNs();
  int64_t completed = 0;
  size_t off = 0;
  while (conn.in.size() - off >= 4) {
    const uint32_t len = tspn::common::LoadU32Le(conn.in.data() + off);
    if (conn.in.size() - off - 4 < len) break;
    if (conn.pending.empty()) {  // a reply nobody asked for
      conn.dead = true;
      break;
    }
    Outcome& outcome = (*outcomes)[conn.pending.front()];
    conn.pending.pop_front();
    outcome.reply.assign(conn.in.begin() + static_cast<long>(off + 4),
                         conn.in.begin() + static_cast<long>(off + 4 + len));
    outcome.recv = now;
    outcome.answered = true;
    ++completed;
    off += 4 + len;
  }
  conn.in.erase(conn.in.begin(), conn.in.begin() + static_cast<long>(off));
  return completed;
}

int64_t LoadGenerator::Poll(Ns timeout_ns, std::vector<Outcome>* outcomes) {
  std::vector<pollfd> fds;
  fds.reserve(conns_.size());
  for (Conn& conn : conns_) {
    pollfd p{};
    p.fd = conn.dead ? -1 : conn.fd.get();
    p.events = POLLIN;
    if (conn.out_off < conn.out.size()) p.events |= POLLOUT;
    fds.push_back(p);
  }
  if (timeout_ns < 0) timeout_ns = 0;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000LL);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000LL);
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready <= 0) return 0;
  int64_t completed = 0;
  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      completed += Receive(conns_[i], outcomes);
    }
    if (fds[i].revents & POLLOUT) Flush(conns_[i]);
  }
  return completed;
}

bool LoadGenerator::AllDead() const {
  for (const Conn& conn : conns_) {
    if (!conn.dead) return false;
  }
  return true;
}

std::vector<Outcome> LoadGenerator::RunOpen(
    const std::vector<std::vector<uint8_t>>& frames,
    const std::vector<WireRequest>& requests, const std::vector<Ns>& offsets,
    Ns drain_ns) {
  const GeneratorScheduling scheduling;
  last_realtime_ = scheduling.raised();
  const Ns cpu0 = ThreadCpuNs();
  std::vector<Outcome> outcomes(requests.size());
  const Ns start = NowNs() + 1000000;  // 1 ms lead so request 0 is not late
  const Ns last_due = start + (offsets.empty() ? 0 : offsets.back());
  const Ns hard_end = last_due + drain_ns;
  size_t next = 0;
  size_t answered = 0;
  while (answered < requests.size()) {
    Ns now = NowNs();
    while (next < requests.size() && start + offsets[next] <= now) {
      const WireRequest& request = requests[next];
      Outcome& outcome = outcomes[next];
      outcome.frame = request.frame;
      outcome.due = start + offsets[next];
      outcome.sent = NowNs();
      Conn& conn = conns_[static_cast<size_t>(request.conn)];
      Enqueue(conn, frames[static_cast<size_t>(request.frame)], next);
      Flush(conn);
      ++next;
      now = NowNs();
    }
    if (now >= hard_end || AllDead()) break;
    const Ns timeout =
        next < requests.size() ? start + offsets[next] - now : hard_end - now;
    answered += static_cast<size_t>(Poll(timeout, &outcomes));
  }
  last_cpu_ns_ = ThreadCpuNs() - cpu0;
  return outcomes;
}

std::vector<Outcome> LoadGenerator::RunClosed(
    const std::vector<std::vector<uint8_t>>& frames,
    const std::function<bool(WireRequest*)>& next, int window, Ns duration_ns,
    Ns drain_ns, Ns* start_out, Ns* end_out) {
  const GeneratorScheduling scheduling;
  const Ns cpu0 = ThreadCpuNs();
  std::vector<Outcome> outcomes;
  outcomes.reserve(4096);
  const Ns start = NowNs();
  const Ns end = start + duration_ns;
  const Ns hard_end = end + drain_ns;
  int64_t outstanding = 0;
  bool exhausted = false;
  while (true) {
    Ns now = NowNs();
    while (now < end && !exhausted && outstanding < window) {
      WireRequest request;
      if (!next(&request)) {
        exhausted = true;
        break;
      }
      outcomes.emplace_back();
      Outcome& outcome = outcomes.back();
      outcome.frame = request.frame;
      outcome.due = outcome.sent = NowNs();
      Conn& conn = conns_[static_cast<size_t>(request.conn)];
      Enqueue(conn, frames[static_cast<size_t>(request.frame)],
              outcomes.size() - 1);
      Flush(conn);
      ++outstanding;
      now = NowNs();
    }
    if (((now >= end || exhausted) && outstanding == 0) || now >= hard_end ||
        AllDead()) {
      break;
    }
    const Ns timeout = now < end && !exhausted ? end - now : hard_end - now;
    outstanding -= Poll(timeout, &outcomes);
  }
  last_cpu_ns_ = ThreadCpuNs() - cpu0;
  *start_out = start;
  *end_out = end;
  return outcomes;
}

}  // namespace wirebench
