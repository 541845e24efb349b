// perfbench_trace — the per-layer half of the benchmark.
//
// Replays the workload's own operation stream (workload.hpp, same seed,
// same op count) in-process and times calls into each module's public
// functions from here, around the layer boundaries; nothing inside src/
// is instrumented.  Layer times are means per operation, so they add up
// (e.g. exec.run_us - graphblas.khop_us is the operator overhead above
// the kernel).  Counters are exact counts read from the program.
//
//   perfbench_trace --workload W --seed N --seconds S --workdir DIR
//                   [--config NAME=VALUE ...]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "algo/khop.hpp"
#include "cypher/param_header.hpp"
#include "cypher/parser.hpp"
#include "exec/execution_plan.hpp"
#include "exec/plan_cache.hpp"
#include "graph/serialize.hpp"
#include "graphblas/context.hpp"
#include "persist/durability.hpp"
#include "server/net_server.hpp"
#include "server/resp.hpp"
#include "server/server.hpp"
#include "util/thread_pool.hpp"
#include "resp.hpp"
#include "workload.hpp"

namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

namespace {

const std::string kKey = "g";

double since_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Mean microseconds per call of `fn` over `n` calls, timed as one batch
/// (the calls are sub-microsecond; one clock read per call would
/// dominate them).
template <class F>
double batch_us(std::size_t n, F&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) fn(i);
  return since_us(t0) / static_cast<double>(std::max<std::size_t>(1, n));
}

struct Options {
  std::string workload, workdir;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::vector<std::pair<std::string, std::string>> config;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--workdir") o.workdir = v;
    else if (a == "--config") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) throw std::runtime_error("--config expects NAME=VALUE");
      o.config.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else throw std::runtime_error("unknown argument " + a);
  }
  if (o.workload.empty() || o.workdir.empty())
    throw std::runtime_error("--workload and --workdir are required");
  return o;
}

std::vector<std::string> read_argv(const pb::Read& q) { return {"GRAPH.RO_QUERY", kKey, q.text}; }
std::vector<std::string> write_argv(const pb::Write& w) { return {"GRAPH.QUERY", kKey, w.text}; }

struct State {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::fprintf(stderr, "perfbench_trace: %s\n", what.c_str());
    }
  }
};

/// Check an in-process reply against the read's expectation (exact for
/// khop_deep/onehop_point; for write_mix a lower bound, as concurrent
/// creates may add edges).
bool read_ok(const pb::Plan& p, const pb::Read& q, const rg::server::Reply& r) {
  if (!r.ok() || r.result.rows.empty()) return false;
  if (!q.rows) {
    const auto got = static_cast<std::uint64_t>(r.result.rows[0][0].as_int());
    return p.shape->kind == pb::Kind::kWriteMix ? got >= q.expect_count : got == q.expect_count;
  }
  std::vector<std::string> got;
  for (const auto& row : r.result.rows) got.push_back(row[0].as_string() + "|" + row[1].as_string());
  std::sort(got.begin(), got.end());
  return got == q.expect_rows;
}

std::uint64_t stat_usec(rg::server::Server& srv, const std::string& name, std::uint64_t* calls) {
  for (const auto& [spec, st] : srv.command_stats())
    if (spec->name == name) {
      *calls = st.calls;
      return st.usec_total;
    }
  *calls = 0;
  return 0;
}

int run(const Options& o) {
  const pb::Plan p = pb::make_plan(o.workload, o.seed, o.seconds);
  const auto load = pb::load_commands(p, kKey);
  State s;
  std::vector<pb::Metric> m;
  auto put = [&](const char* name, const char* unit, double v) { m.push_back({name, unit, v}); };

  rg::persist::FsyncPolicy fsync = rg::persist::FsyncPolicy::kEverySec;
  for (const auto& [k, v] : o.config)
    if (k == "WAL_FSYNC") fsync = rg::persist::parse_fsync_policy(v);

  // The same server configuration the end-to-end run starts.
  rg::gb::set_threads(1);
  const std::string data_dir = o.workdir + "/data";
  std::filesystem::remove_all(data_dir);
  rg::server::DurabilityConfig dc;
  dc.data_dir = data_dir;
  dc.options.fsync = fsync;
  auto srv = std::make_unique<rg::server::Server>(3, dc);
  for (const auto& [k, v] : o.config)
    s.expect(srv->execute({"GRAPH.CONFIG", "SET", k, v}).ok(), "GRAPH.CONFIG SET " + k);
  for (const auto& c : load)
    if (!srv->execute(c).ok()) throw std::runtime_error("load command failed");
  for (const auto& q : p.warmup) s.expect(read_ok(p, q, srv->execute(read_argv(q))), "warm-up answer");

  // ---- rg_server: the replay through Server::execute ---------------------
  std::uint64_t calls0 = 0, calls1 = 0;
  const std::uint64_t usec0 = stat_usec(*srv, "GRAPH.RO_QUERY", &calls0);
  std::vector<double> exec_us;
  auto timed_read = [&](const pb::Read& q) {
    const auto t0 = Clock::now();
    const auto r = srv->execute(read_argv(q));
    exec_us.push_back(since_us(t0));
    ++s.attempted;
    if (!r.ok()) ++s.failed;
    else s.expect(read_ok(p, q, r), "wrong answer: " + q.text);
  };
  auto do_write = [&](const pb::Write& w, State& st) {
    ++st.attempted;
    if (!srv->execute(write_argv(w)).ok()) ++st.failed;
  };
  if (p.shape->kind == pb::Kind::kWriteMix) {
    State ws;  // the writer thread's own tally, merged after the join
    std::exception_ptr err;
    std::jthread writer([&] {
      try {
        for (const auto& w : p.writes) do_write(w, ws);
      } catch (...) {
        err = std::current_exception();
      }
    });
    for (const auto& q : p.reads) timed_read(q);
    writer.join();
    if (err) std::rethrow_exception(err);
    s.attempted += ws.attempted;
    s.failed += ws.failed;
  } else {
    const std::size_t every = p.reads.size() / std::max<std::size_t>(1, p.writes.size());
    std::size_t w = 0;
    for (std::size_t i = 0; i < p.reads.size(); ++i) {
      timed_read(p.reads[i]);
      if ((i + 1) % every == 0 && w < p.writes.size()) do_write(p.writes[w++], s);
    }
    while (w < p.writes.size()) do_write(p.writes[w++], s);
  }
  const std::uint64_t usec1 = stat_usec(*srv, "GRAPH.RO_QUERY", &calls1);
  const double handler_us = static_cast<double>(usec1 - usec0) /
                            static_cast<double>(std::max<std::uint64_t>(1, calls1 - calls0));
  put("server.execute_us", "us", pb::quantile(exec_us, 0.5));
  put("server.handler_us", "us", handler_us);
  put("server.handoff_us", "us", pb::mean(exec_us) - handler_us);

  // The graph as the run left it, and the edge list it must hold.
  rg::graph::Graph& g = srv->graph_for_testing(kKey);
  g.flush();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> all_edges = p.g.edges;
  for (const auto& w : p.writes)
    if (w.create) all_edges.emplace_back(w.a, w.b);

  // Socket round trip vs. in-process execute, alternating on one round.
  {
    rg::server::NetServer net(*srv, 0, true);
    pb::Conn c(net.port());
    std::vector<double> rtt, ex;
    for (const auto& q : p.warmup) {
      const auto argv = read_argv(q);
      auto t0 = Clock::now();
      c.call(argv);
      rtt.push_back(since_us(t0));
      t0 = Clock::now();
      srv->execute(argv);
      ex.push_back(since_us(t0));
    }
    put("server.wire_us", "us", pb::quantile(rtt, 0.5) - pb::quantile(ex, 0.5));
  }

  // RESP codec on the workload's own bytes.
  {
    std::vector<std::vector<std::string>> argvs;
    std::vector<std::string> req, rep;
    for (const auto& q : p.warmup) {
      argvs.push_back(read_argv(q));
      req.push_back(rg::server::encode_command(argvs.back()));
      rep.push_back(srv->execute(argvs.back()).to_resp());
    }
    std::size_t sink = 0;
    put("server.resp_encode_us", "us",
        batch_us(argvs.size(), [&](std::size_t i) { sink += rg::server::encode_command(argvs[i]).size(); }));
    put("server.resp_decode_us", "us", batch_us(req.size(), [&](std::size_t i) {
          rg::server::RespRequestParser parser;
          parser.feed(req[i]);
          sink += parser.next().argv.size();
          rg::server::RespValue v;
          sink += rg::server::decode_reply(rep[i], v);
        }));
    s.expect(sink > 0, "RESP codec produced nothing");
  }

  // ---- rg_util: worker-pool hand-off of an empty task --------------------
  {
    rg::util::ThreadPool pool(3);
    std::vector<double> us;
    for (int i = 0; i < 4000; ++i) {
      const auto t0 = Clock::now();
      pool.submit([] {}).get();
      us.push_back(since_us(t0));
    }
    put("util.pool_handoff_us", "us", pb::quantile(us, 0.5));
  }

  // ---- rg_cypher / rg_exec on one round of the workload's reads ----------
  {
    const auto& round = p.warmup;
    std::vector<rg::cypher::SplitQuery> split;
    std::vector<rg::cypher::Query> asts;
    put("cypher.parse_us", "us", batch_us(round.size(), [&](std::size_t i) {
          split.push_back(rg::cypher::split_param_header(round[i].text));
          asts.push_back(rg::cypher::parse(split.back().body));
        }));
    std::vector<std::unique_ptr<rg::exec::ExecutionPlan>> plans;
    put("exec.plan_us", "us", batch_us(round.size(), [&](std::size_t i) {
          plans.push_back(std::make_unique<rg::exec::ExecutionPlan>(g, asts[i], 64, split[i].params));
        }));
    std::vector<double> run_us;
    for (std::size_t i = 0; i < round.size(); ++i) {
      rg::exec::ResultSet rs;
      const auto t0 = Clock::now();
      plans[i]->run(rs);
      run_us.push_back(since_us(t0));
    }
    put("exec.run_us", "us", pb::mean(run_us));
    // Second pass over a warm cache: parameterised texts hit, literal
    // texts miss (they outnumber the capacity), as in the server.
    rg::exec::PlanCache cache;
    double acquire_us = 0;
    for (int pass = 0; pass < 2; ++pass) {
      acquire_us = 0;
      for (std::size_t i = 0; i < round.size(); ++i) {
        const auto t0 = Clock::now();
        auto lease = cache.acquire(g, split[i].body, split[i].params);
        acquire_us += since_us(t0);
      }
    }
    put("exec.cache_acquire_us", "us", acquire_us / static_cast<double>(round.size()));
    const auto pc = srv->plan_cache_counters();
    put("exec.plan_cache_hits", "count", static_cast<double>(pc.hits));
    put("exec.plan_cache_misses", "count", static_cast<double>(pc.misses));
  }

  // ---- rg_graphblas / rg_algo: the kernel-only k-hop ---------------------
  {
    const auto e = g.schema().find_reltype("E");
    if (!e) throw std::runtime_error("relationship type E missing");
    const bool untyped = p.shape->kind == pb::Kind::kWriteMix;  // -[]-> reads
    const auto& A = untyped ? g.adjacency() : g.relation(*e);
    const auto& AT = untyped ? g.adjacency_t() : g.relation_t(*e);
    rg::algo::KHopCounter counter(A, AT);
    const pb::Adj ref(p.g.n, untyped ? all_edges : p.g.edges);
    std::uint64_t nnz = 0, ref_nnz = 0;
    std::vector<double> us;
    for (const auto& q : p.warmup) {
      const auto t0 = Clock::now();
      const auto st = counter.run(q.node, q.k);
      us.push_back(since_us(t0));
      const auto want = pb::khop_ref(ref, q.node, q.k);
      // Frontier entries expanded = the seed + every vertex first
      // reached within k-1 hops.
      nnz += 1 + (q.k > 1 ? counter.run(q.node, q.k - 1).count : 0);
      ref_nnz += want.frontier_nnz;
      s.expect(st.count == want.count, "kernel k-hop differs from the reference BFS");
    }
    s.expect(nnz == ref_nnz, "kernel frontier entries differ from the reference BFS");
    put("graphblas.khop_us", "us", pb::mean(us));
    put("graphblas.frontier_nnz", "count", static_cast<double>(nnz));
  }

  // ---- rg_graph: mutation and flush at the workload's size ---------------
  {
    rg::graph::Graph gg;
    auto& sc = gg.schema();
    const auto label = p.shape->social ? sc.add_label("User") : sc.add_label("N");
    const auto te = sc.add_reltype("E"), tf = sc.add_reltype("F");
    const auto handle = sc.add_attr("handle"), city = sc.add_attr("city");
    const auto tag = sc.add_attr("tag"), status = sc.add_attr("status");
    for (std::size_t v = 0; v < p.g.n; ++v) {
      const auto id = gg.add_node({label});
      if (p.shape->social) {
        gg.set_node_attr(id, handle, rg::graph::Value(p.g.handle[v]));
        gg.set_node_attr(id, city, rg::graph::Value(p.g.city[v]));
      }
    }
    for (const auto& [a, b] : p.g.edges) gg.add_edge(te, a, b);
    gg.flush();
    std::vector<double> mut, fl;
    for (const auto& w : p.writes) {
      auto t0 = Clock::now();
      if (w.create)
        gg.set_edge_attr(gg.add_edge(tf, w.a, w.b), tag, rg::graph::Value(w.value));
      else
        gg.set_node_attr(w.a, status, rg::graph::Value(w.value));
      mut.push_back(since_us(t0));
      t0 = Clock::now();
      gg.flush();
      fl.push_back(since_us(t0));
    }
    put("graph.mutate_us", "us", pb::mean(mut));
    put("graph.flush_us", "us", pb::mean(fl));
    const auto mv = srv->mvcc_info();
    put("mvcc.pins_fast", "count", static_cast<double>(mv.pins_fast));
    put("mvcc.pins_slow", "count", static_cast<double>(mv.pins_slow));
    put("mvcc.epochs_published", "count", static_cast<double>(mv.epochs_published));
  }

  // ---- rg_persist ---------------------------------------------------------
  {
    const std::string wal_dir = o.workdir + "/wal-only";
    std::filesystem::remove_all(wal_dir);
    rg::persist::Options po;
    po.fsync = fsync;
    po.wal_max_bytes = 1ull << 40;  // appends only: no rewrite inside the timing
    {
      rg::persist::DurabilityManager dm(wal_dir, po);
      dm.open_and_replay([](std::uint64_t, const std::vector<std::string>&) { return true; });
      std::vector<double> us;
      for (const auto& w : p.writes) {
        const auto argv = write_argv(w);
        const auto t0 = Clock::now();
        dm.append(argv);
        us.push_back(since_us(t0));
      }
      const auto c = dm.counters();
      put("persist.wal_append_us", "us", pb::mean(us));
      put("persist.wal_bytes_per_write", "B",
          static_cast<double>(c.appended_bytes) / static_cast<double>(std::max<std::uint64_t>(1, c.appends)));
    }
    std::filesystem::remove_all(wal_dir);

    std::ostringstream out;
    auto t0 = Clock::now();
    rg::graph::save_graph(g, out);
    put("persist.snapshot_save_ms", "ms", since_us(t0) / 1000);
    std::istringstream in(out.str());
    rg::graph::Graph loaded;
    t0 = Clock::now();
    rg::graph::load_graph(loaded, in);
    put("persist.snapshot_load_ms", "ms", since_us(t0) / 1000);
    s.expect(loaded.edge_count() == g.edge_count(), "snapshot round trip lost edges");
  }

  // ---- rg_mem -------------------------------------------------------------
  {
    const auto r = srv->execute({"GRAPH.MEMORY", "USAGE", kKey});
    auto field = [&](const std::string& name) {
      for (const auto& row : r.result.rows)
        if (row[0].as_string() == name) return static_cast<double>(row[1].as_int());
      throw std::runtime_error("GRAPH.MEMORY USAGE lacks " + name);
    };
    put("mem.bytes_per_edge", "B", field("BYTES_PER_EDGE"));
    put("mem.dict_bytes", "B", field("DICTIONARY_BYTES"));
  }

  // ---- recovery: reopen the data dir and count the replayed frames -------
  srv.reset();
  srv = std::make_unique<rg::server::Server>(3, dc);
  const auto dcount = srv->durability_counters();
  put("persist.replay_frames", "count", static_cast<double>(dcount.replayed_frames));
  const auto fc = srv->execute({"GRAPH.RO_QUERY", kKey, "MATCH ()-[r:F]->() RETURN count(r)"});
  s.expect(fc.ok() && static_cast<std::size_t>(fc.result.rows.at(0).at(0).as_int()) ==
                          all_edges.size() - p.g.edges.size(),
           "F edges after recovery differ from the creates");
  srv.reset();
  std::filesystem::remove_all(data_dir);

  pb::print_result(s.correct, s.attempted, s.failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}
