// perfbench_client — the end-to-end half of the benchmark.
//
// Starts the repo's resp_server as a child process, loads the seeded
// graph over RESP, drives the workload's fixed operation stream closed
// loop (one connection; write_mix adds a concurrent writer connection),
// checks every answer against workload.hpp's reference computations,
// SIGKILLs the server, restarts it on the same data directory, checks
// what survived, and prints one JSON result line.
//
//   perfbench_client --workload W --seed N --seconds S --server PATH
//                    --workdir DIR [--config NAME=VALUE ...]
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "resp.hpp"
#include "workload.hpp"

namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

namespace {

const std::string kKey = "g";

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double since_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error(msg);
}

/// CPU split: the client on the first allowed CPU, the server on the
/// next three.  Pinned threads keep the 1-hop latency out of the
/// bimodal regime that floating threads produce (see README).
struct CpuPlan {
  cpu_set_t client, server;
  bool pinned = false;
};
CpuPlan plan_cpus() {
  CpuPlan p;
  CPU_ZERO(&p.client);
  CPU_ZERO(&p.server);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return p;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.size() < 4) return p;
  CPU_SET(cpus[0], &p.client);
  for (std::size_t i = 1; i < 4; ++i) CPU_SET(cpus[i], &p.server);
  p.pinned = true;
  return p;
}

/// The resp_server child.  Its stdin is a pipe we hold open (the server
/// exits on EOF, so it cannot outlive this process); its stdout is a
/// pipe whose first line tells the ephemeral port.
class ServerProc {
 public:
  ServerProc(const std::string& exe, const std::string& data_dir,
             const CpuPlan& cpus) {
    int in[2], out[2];
    if (::pipe(in) != 0 || ::pipe(out) != 0) fail("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) fail("fork failed");
    if (pid_ == 0) {
      ::dup2(in[0], 0);
      ::dup2(out[1], 1);
      ::close(in[0]); ::close(in[1]); ::close(out[0]); ::close(out[1]);
      if (cpus.pinned) sched_setaffinity(0, sizeof cpus.server, &cpus.server);
      const char* argv[] = {exe.c_str(), "--port", "0", "--threads", "3",
                            "--gb-threads", "1", "--data-dir", data_dir.c_str(),
                            "--fsync", "everysec", nullptr};
      ::execv(exe.c_str(), const_cast<char* const*>(argv));
      std::fprintf(stderr, "exec %s: %s\n", exe.c_str(), std::strerror(errno));
      ::_exit(127);
    }
    ::close(in[0]);
    ::close(out[1]);
    stdin_ = in[1];
    stdout_ = out[0];
    // The server prints "listening on 127.0.0.1:PORT ..." once recovery
    // has finished and the socket accepts.
    std::string text;
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    while (text.find('\n') == std::string::npos) {
      pollfd pfd{stdout_, POLLIN, 0};
      if (Clock::now() > deadline) fail("server did not start within 120 s");
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char buf[512];
      const ssize_t n = ::read(stdout_, buf, sizeof buf);
      if (n <= 0) fail("server exited during start-up");
      text.append(buf, static_cast<std::size_t>(n));
    }
    const auto colon = text.find("127.0.0.1:");
    if (colon == std::string::npos) fail("unexpected server banner: " + text);
    port_ = static_cast<unsigned>(std::stoul(text.substr(colon + 10)));
  }
  ~ServerProc() {
    if (pid_ > 0) kill9();
  }
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  unsigned port() const { return port_; }

  void kill9() {
    ::kill(pid_, SIGKILL);
    reap();
  }
  /// Orderly stop: EOF on stdin, then SIGKILL if it lingers.
  void stop() {
    ::close(stdin_);
    stdin_ = -1;
    for (int i = 0; i < 3000; ++i) {
      int st = 0;
      if (::waitpid(pid_, &st, WNOHANG) == pid_) {
        pid_ = -1;
        ::close(stdout_);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill9();
  }

  /// Peak resident set (VmHWM) in kB.
  long vm_hwm_kb() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(f, line))
      if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
    fail("VmHWM not found for the server process");
  }

 private:
  void reap() {
    int st = 0;
    ::waitpid(pid_, &st, 0);
    pid_ = -1;
    if (stdin_ >= 0) ::close(stdin_);
    ::close(stdout_);
    stdin_ = -1;
  }
  pid_t pid_ = -1;
  int stdin_ = -1, stdout_ = -1;
  unsigned port_ = 0;
};

struct Options {
  std::string workload, server, workdir;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::vector<std::pair<std::string, std::string>> config;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) fail(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::stoull(val());
    else if (a == "--seconds") o.seconds = std::stod(val());
    else if (a == "--server") o.server = val();
    else if (a == "--workdir") o.workdir = val();
    else if (a == "--config") {
      const std::string kv = val();
      const auto eq = kv.find('=');
      if (eq == std::string::npos) fail("--config expects NAME=VALUE");
      o.config.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else fail("unknown argument " + a);
  }
  if (o.workload.empty() || o.server.empty() || o.workdir.empty())
    fail("--workload, --server and --workdir are required");
  return o;
}

void apply_config(pb::Conn& c, const Options& o) {
  for (const auto& [k, v] : o.config) {
    const auto r = c.call({"GRAPH.CONFIG", "SET", k, v});
    if (r.type == pb::Reply::Type::kError) fail("GRAPH.CONFIG SET " + k + ": " + r.str);
  }
}

/// Outcome of one read against its expectation.
enum class Check { kOk, kWrong, kError };

Check check_read(const pb::Read& q, const pb::Reply& r) {
  if (r.type == pb::Reply::Type::kError) return Check::kError;
  if (!q.rows) return r.scalar() == static_cast<long long>(q.expect_count) ? Check::kOk : Check::kWrong;
  std::vector<std::string> got;
  for (const auto& row : r.rows()) {
    if (row.elems.size() != 2) return Check::kWrong;
    got.push_back(row.elems[0].str + "|" + row.elems[1].str);
  }
  std::sort(got.begin(), got.end());
  return got == q.expect_rows ? Check::kOk : Check::kWrong;
}

bool write_acked(const pb::Write& w, const pb::Reply& r) {
  if (r.type != pb::Reply::Type::kArray || r.elems.empty()) return false;
  const std::string want = w.create ? "Relationships created: 1" : "Properties set: 1";
  for (const auto& s : r.elems.back().elems)
    if (s.str == want) return true;
  return false;
}

std::string status_str(const pb::Reply& r) {
  return r.type == pb::Reply::Type::kError ? "error: " + r.str : "unexpected reply";
}

struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::vector<double> read_us, write_us;
  double read_s = 0, write_s = 0;
};

void count_read(const pb::Read& q, const pb::Reply& r, Tally& t) {
  const Check ck = check_read(q, r);
  if (ck == Check::kError) {
    ++t.failed;
    std::fprintf(stderr, "read failed (%s): %s\n", r.str.c_str(), q.text.c_str());
  } else if (ck == Check::kWrong) {
    t.correct = false;
    std::fprintf(stderr, "wrong answer: %s\n", q.text.c_str());
  }
}

/// Untimed reads (the set-up's first query and the warm-up round).
void warm(pb::Conn& c, const std::vector<pb::Read>& reads, Tally& t) {
  for (const auto& q : reads) count_read(q, c.call({"GRAPH.RO_QUERY", kKey, q.text}), t);
}

/// Sends one write and counts it; returns its latency in µs.
double send_write(pb::Conn& c, const pb::Write& w, Tally& t) {
  const auto t0 = Clock::now();
  const auto r = c.call({"GRAPH.QUERY", kKey, w.text});
  const double us = since_us(t0);
  ++t.attempted;
  if (!write_acked(w, r)) {
    ++t.failed;
    std::fprintf(stderr, "write failed (%s): %s\n", status_str(r).c_str(), w.text.c_str());
  }
  return us;
}

double timed_write(pb::Conn& c, const pb::Write& w, Tally& t) {
  const double us = send_write(c, w, t);
  t.write_us.push_back(us);
  return us;
}

/// khop_deep / onehop_point: one connection; the writes are spread
/// evenly through the reads, so both sample the whole run.
void run_interleaved(pb::Conn& c, const pb::Plan& p, Tally& t) {
  const std::size_t every = p.reads.size() / std::max<std::size_t>(1, p.writes.size());
  std::size_t w = 0;
  double read_total_us = 0, write_total_us = 0;
  for (std::size_t i = 0; i < p.reads.size(); ++i) {
    const auto& q = p.reads[i];
    const auto t0 = Clock::now();
    const auto r = c.call({"GRAPH.RO_QUERY", kKey, q.text});
    const double us = since_us(t0);
    t.read_us.push_back(us);
    read_total_us += us;
    ++t.attempted;
    count_read(q, r, t);
    if ((i + 1) % every == 0 && w < p.writes.size())
      write_total_us += timed_write(c, p.writes[w++], t);
  }
  while (w < p.writes.size()) write_total_us += timed_write(c, p.writes[w++], t);
  t.read_s = read_total_us * 1e-6;
  t.write_s = write_total_us * 1e-6;
}

/// write_mix: a reader connection and a writer connection at once.  A
/// read of node s must see at least its base degree and at most the base
/// plus every create from s sent so far.
void run_concurrent(unsigned port, const pb::Plan& p, Tally& t) {
  std::vector<std::atomic<std::uint32_t>> sent(pb::kHotNodes);
  const pb::Adj base(p.g.n, p.g.edges);
  pb::Conn wc(port), rc(port);
  Tally wt;
  std::atomic<bool> go{false};
  std::exception_ptr writer_error;
  std::jthread writer([&] {
    while (!go.load()) std::this_thread::yield();
    try {
      const auto t0 = Clock::now();
      for (const auto& w : p.writes) {
        if (w.create) sent[w.a].fetch_add(1);
        timed_write(wc, w, wt);
      }
      wt.write_s = since_s(t0);
    } catch (...) {
      writer_error = std::current_exception();
    }
  });
  go = true;
  const auto t0 = Clock::now();
  for (const auto& q : p.reads) {
    const auto s0 = Clock::now();
    const auto r = rc.call({"GRAPH.RO_QUERY", kKey, q.text});
    t.read_us.push_back(since_us(s0));
    ++t.attempted;
    if (r.type == pb::Reply::Type::kError) {
      ++t.failed;
      std::fprintf(stderr, "read failed (%s): %s\n", r.str.c_str(), q.text.c_str());
      continue;
    }
    const long long got = r.scalar();
    const long long lo = static_cast<long long>(base.degree(q.node));
    const long long hi = lo + sent[q.node].load();
    if (got < lo || got > hi) {
      t.correct = false;
      std::fprintf(stderr, "read of %u saw %lld, outside [%lld, %lld]\n", q.node, got, lo, hi);
    }
  }
  t.read_s = since_s(t0);
  writer.join();
  if (writer_error) std::rethrow_exception(writer_error);
  t.write_us = std::move(wt.write_us);
  t.write_s = wt.write_s;
  t.attempted += wt.attempted;
  t.failed += wt.failed;
}

/// GRAPH.CONFIG GET * as a name -> number map (status rows read as 0).
std::map<std::string, long long> config_numbers(pb::Conn& c) {
  std::map<std::string, long long> out;
  const auto r = c.call({"GRAPH.CONFIG", "GET", "*"});
  for (const auto& row : r.rows())
    if (row.elems.size() == 2) out[row.elems[0].str] = row.elems[1].num;
  return out;
}

long long config_number(pb::Conn& c, const std::string& name) {
  const auto all = config_numbers(c);
  const auto it = all.find(name);
  if (it == all.end()) fail("GRAPH.CONFIG GET * lacks " + name);
  return it->second;
}

/// Wait until no WAL rewrite is pending, so the state SIGKILL leaves
/// behind (snapshot vs. log) depends on the data, not on timing.
void settle_wal(pb::Conn& c) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (config_number(c, "WAL_SIZE_BYTES") > config_number(c, "WAL_MAX_BYTES")) {
    if (Clock::now() > deadline) fail("WAL rewrite did not finish within 60 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Fold the whole run into a snapshot, then write the fixed tail.  The
/// first tail write, under a 1 KiB WAL limit, triggers a rewrite; once it
/// has committed the limit is restored and the other tail writes go to
/// the fresh log.  So every restart loads a snapshot and replays the same
/// number of frames, whatever the seed and however the run's rewrites
/// happened to fall.
void write_tail(pb::Conn& c, const pb::Plan& p, Tally& t) {
  settle_wal(c);
  const std::string limit = std::to_string(config_number(c, "WAL_MAX_BYTES"));
  const long long rewrites = config_number(c, "WAL_REWRITES");
  auto set_limit = [&](const std::string& v) {
    const auto r = c.call({"GRAPH.CONFIG", "SET", "WAL_MAX_BYTES", v});
    if (r.type == pb::Reply::Type::kError) fail("GRAPH.CONFIG SET WAL_MAX_BYTES: " + r.str);
  };
  set_limit("1024");
  send_write(c, p.tail.front(), t);
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  for (;;) {
    const auto cfg = config_numbers(c);
    if (cfg.at("WAL_REWRITES") > rewrites && cfg.at("WAL_SIZE_BYTES") <= 1024) break;
    if (Clock::now() > deadline) fail("forced WAL rewrite did not finish within 60 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  set_limit(limit);
  for (std::size_t i = 1; i < p.tail.size(); ++i) send_write(c, p.tail[i], t);
  settle_wal(c);
}

/// After the SIGKILL restart: every acknowledged write is there.
void check_recovered(pb::Conn& c, const pb::Plan& p, Tally& t, const ServerProc& srv) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> all = p.g.edges;
  std::map<std::uint32_t, std::string> last_status;
  std::uint64_t creates = 0;
  std::vector<pb::Write> writes = p.writes;
  writes.insert(writes.end(), p.tail.begin(), p.tail.end());
  for (const auto& w : writes) {
    if (w.create) {
      all.emplace_back(w.a, w.b);
      ++creates;
    } else {
      last_status[w.a] = w.value;
    }
  }
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      t.correct = false;
      std::fprintf(stderr, "after restart: %s\n", what.c_str());
    }
  };
  const auto fc = c.call({"GRAPH.RO_QUERY", kKey, "MATCH ()-[r:F]->() RETURN count(r)"});
  expect(fc.scalar() == static_cast<long long>(creates), "F edge count differs from acked creates");

  std::string ids;
  for (const auto& [node, v] : last_status) ids += (ids.empty() ? "" : ", ") + std::to_string(node);
  if (!ids.empty()) {
    const auto r = c.call({"GRAPH.RO_QUERY", kKey,
                           "MATCH (n) WHERE id(n) IN [" + ids + "] RETURN id(n), n.status"});
    std::size_t matched = 0;
    for (const auto& row : r.rows()) {
      const auto it = last_status.find(static_cast<std::uint32_t>(row.elems.at(0).num));
      matched += it != last_status.end() && row.elems.at(1).str == it->second;
    }
    expect(matched == last_status.size(), "an acknowledged SET lost its last value");
  }

  const pb::Adj adj(p.g.n, all);
  std::set<std::uint32_t> sample;
  for (std::size_t i = 0; i < p.warmup.size() && sample.size() < 16; i += 7)
    sample.insert(p.warmup[i].node);
  for (std::uint32_t s : sample) {
    const auto r = c.call({"GRAPH.RO_QUERY", kKey,
                           "MATCH (s)-[*1..2]->(t) WHERE id(s) = " + std::to_string(s) +
                               " RETURN count(DISTINCT t)"});
    expect(r.scalar() == static_cast<long long>(pb::khop_ref(adj, s, 2).count),
           "k-hop over base and acked edges differs at node " + std::to_string(s));
  }

  const auto mem = c.call({"GRAPH.MEMORY", "USAGE", kKey});
  const auto* total = mem.field("TOTAL_BYTES");
  expect(total && total->num > 0 && total->num <= srv.vm_hwm_kb() * 1024LL,
         "GRAPH.MEMORY total exceeds the server's VmHWM");
}

int run(const Options& o) {
  const pb::Plan p = pb::make_plan(o.workload, o.seed, o.seconds);
  const auto load = pb::load_commands(p, kKey);
  std::vector<std::string> load_bytes;
  for (const auto& c : load) load_bytes.push_back(pb::encode(c));

  const std::string data_dir = o.workdir + "/data";
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);
  const CpuPlan cpus = plan_cpus();
  if (cpus.pinned) sched_setaffinity(0, sizeof cpus.client, &cpus.client);

  Tally t;
  // ---- set-up: server start -> graph loaded -> first query answered ----
  const auto setup0 = Clock::now();
  auto srv = std::make_unique<ServerProc>(o.server, data_dir, cpus);
  auto conn = std::make_unique<pb::Conn>(srv->port());
  apply_config(*conn, o);
  for (std::size_t i = 0; i < load_bytes.size(); ++i) {
    conn->send_raw(load_bytes[i]);
    const auto r = conn->read_reply();
    if (r.type == pb::Reply::Type::kError) fail("load failed: " + r.str);
    if (load[i][2] == "NODES" && r.rows().at(0).elems.at(2).num != 0)
      fail("GRAPH.BULK did not start node ids at 0");
  }
  warm(*conn, {p.warmup.front()}, t);
  const double setup_s = since_s(setup0);

  // ---- warm-up (untimed), then the measured phase -----------------------
  warm(*conn, p.warmup, t);
  if (p.shape->kind == pb::Kind::kWriteMix)
    run_concurrent(srv->port(), p, t);
  else
    run_interleaved(*conn, p, t);
  write_tail(*conn, p, t);

  // ---- crash and recovery ---------------------------------------------
  // SIGKILL restarts on the same data dir; recovery_s is their median
  // (a single restart is too noisy a sample on a shared machine).
  conn.reset();
  std::vector<double> recovery;
  for (int i = 0; i < pb::kRestarts; ++i) {
    srv->kill9();
    const auto rec0 = Clock::now();
    srv = std::make_unique<ServerProc>(o.server, data_dir, cpus);
    conn = std::make_unique<pb::Conn>(srv->port());
    const auto first = conn->call({"GRAPH.RO_QUERY", kKey, p.warmup.front().text});
    recovery.push_back(since_s(rec0));
    if (first.type == pb::Reply::Type::kError) fail("first query after restart: " + first.str);
    std::fprintf(stderr, "restart %d: %.4f s, %lld WAL frames replayed\n", i + 1,
                 recovery.back(), config_number(*conn, "WAL_REPLAYED_FRAMES"));
  }
  apply_config(*conn, o);
  check_recovered(*conn, p, t, *srv);
  // Peak RSS of the recovered server, which replayed the whole run: the
  // loaded server's peak also counts MVCC epochs that happened to be
  // alive together, which varies from run to run.
  const long hwm_kb = srv->vm_hwm_kb();
  conn.reset();
  srv->stop();
  srv.reset();
  std::filesystem::remove_all(data_dir);

  pb::print_result(
      t.correct, t.attempted, t.failed,
      {{"setup_s", "s", setup_s},
       {"query_p50_us", "us", pb::quantile(t.read_us, 0.5)},
       {"queries_per_s", "1/s", static_cast<double>(t.read_us.size()) / t.read_s},
       {"write_p50_us", "us", pb::quantile(t.write_us, 0.5)},
       {"write_tail_us", "us", pb::quantile(t.write_us, pb::kTailQuantile)},
       {"writes_per_s", "1/s", static_cast<double>(t.write_us.size()) / t.write_s},
       {"recovery_s", "s", pb::quantile(recovery, 0.5)},
       {"server_rss_mb", "MB", static_cast<double>(hwm_kb) / 1024.0}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_client: %s\n", e.what());
    return 1;
  }
}
