// Input generation, operation streams and the reference computations the
// benchmark checks the server's answers against.
//
// Everything here is a pure function of (workload, seed, seconds): the
// end-to-end client (client.cpp) and the traced in-process replay
// (trace.cpp) both call it, so they drive exactly the same inputs.  It
// deliberately depends on nothing under src/ — not even src/datagen — so
// a change to the program cannot change the workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Deterministic randomness (splitmix64: identical on every platform and
// standard library, unlike std::*_distribution).
// ---------------------------------------------------------------------------

struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

enum class Kind { kKhopDeep, kOnehopPoint, kWriteMix };

struct Shape {
  Kind kind;
  const char* name;
  unsigned scale;        // R-MAT scale: 2^scale nodes
  unsigned edge_factor;  // edges = edge_factor * nodes
  bool social;           // nodes carry handle/city and an index on handle
  std::size_t reads_per_round;
  std::size_t writes_per_round;  // write_mix: concurrent; others: interleaved
  double rounds_per_second;      // calibrates the fixed op count to --seconds
};

// Rounds are fixed-size; a run does round(seconds * rounds_per_second)
// of them, so the operation count is a function of --seconds alone
// (never of how fast this particular run happens to go).
inline const Shape& shape_of(const std::string& name) {
  static const Shape shapes[] = {
      {Kind::kKhopDeep, "khop_deep", 13, 16, false, 256, 16, 1.05},
      {Kind::kOnehopPoint, "onehop_point", 13, 8, true, 1024, 8, 8.9},
      {Kind::kWriteMix, "write_mix", 12, 8, true, 512, 128, 7.0},
  };
  for (const auto& s : shapes)
    if (name == s.name) return s;
  throw std::runtime_error("unknown workload '" + name +
                           "' (khop_deep, onehop_point, write_mix)");
}

// Graph500 R-MAT parameters (a, b, c; d = 1 - a - b - c).
constexpr double kRmatA = 0.57, kRmatB = 0.19, kRmatC = 0.19;
constexpr std::size_t kCities = 32;       // low-cardinality `city`
constexpr std::size_t kTags = 64;         // vocabulary of F.tag
constexpr std::size_t kStatuses = 16;     // vocabulary of SET n.status
constexpr std::size_t kHotNodes = 128;    // write_mix: nodes writes touch
constexpr std::size_t kKhopSeeds = 128;   // khop_deep: distinct seeds
constexpr double kKhop3Share = 0.75;      // khop_deep: share of k=3 queries
constexpr double kCreateShare = 0.75;     // writes that CREATE (rest SET)
constexpr std::size_t kLoadNodesPerQuery = 256;   // property batch size
constexpr std::size_t kLoadEdgesPerBulk = 16384;  // GRAPH.BULK batch size
constexpr std::size_t kTailWrites = 257;  // after the forced rewrite: 1 + 256 replayed
constexpr int kRestarts = 11;             // recovery_s is their median

inline std::string word(Rng& r, unsigned min_syl, unsigned max_syl) {
  static const char* syl[] = {"ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo",
                              "be", "da", "fu", "go", "hi", "je", "po", "zu"};
  const unsigned n = min_syl + static_cast<unsigned>(r.below(max_syl - min_syl + 1));
  std::string w;
  for (unsigned i = 0; i < n; ++i) w += syl[r.below(16)];
  return w;
}

inline std::string base36(std::uint64_t v) {
  std::string s;
  do {
    s += "0123456789abcdefghijklmnopqrstuvwxyz"[v % 36];
    v /= 36;
  } while (v);
  return s;
}

/// Distinct words (retrying collisions), so vocabulary sizes are exact.
inline std::vector<std::string> vocabulary(Rng& r, std::size_t n,
                                           unsigned min_syl, unsigned max_syl) {
  std::vector<std::string> out;
  while (out.size() < n) {
    std::string w = word(r, min_syl, max_syl);
    if (std::find(out.begin(), out.end(), w) == out.end()) out.push_back(w);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The base graph
// ---------------------------------------------------------------------------

struct Graph {
  std::size_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // type E
  std::vector<std::string> handle, city;  // social graphs only
  std::vector<std::string> cities, tags, statuses;
};

/// R-MAT edge list with Graph500's parameters: self-loops and multi-edges
/// kept, vertex ids scrambled by a seeded permutation.
inline Graph make_graph(const Shape& sh, std::uint64_t seed) {
  Graph g;
  Rng r(seed);
  g.n = std::size_t{1} << sh.scale;
  std::vector<std::uint32_t> perm(g.n);
  for (std::size_t i = 0; i < g.n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = g.n - 1; i > 0; --i) std::swap(perm[i], perm[r.below(i + 1)]);
  const std::size_t m = g.n * sh.edge_factor;
  g.edges.reserve(m);
  for (std::size_t e = 0; e < m; ++e) {
    std::uint32_t s = 0, d = 0;
    for (unsigned bit = 0; bit < sh.scale; ++bit) {
      const double p = r.unit();
      const unsigned sb = p >= kRmatA + kRmatB;
      const unsigned db = (p >= kRmatA && p < kRmatA + kRmatB) ||
                          p >= kRmatA + kRmatB + kRmatC;
      s = (s << 1) | sb;
      d = (d << 1) | db;
    }
    g.edges.emplace_back(perm[s], perm[d]);
  }
  g.cities = vocabulary(r, kCities, 2, 8);  // 4..16 chars: some interned
  g.tags = vocabulary(r, kTags, 2, 6);
  g.statuses = vocabulary(r, kStatuses, 3, 9);
  if (sh.social) {
    g.handle.resize(g.n);
    g.city.resize(g.n);
    for (std::size_t i = 0; i < g.n; ++i) {
      g.handle[i] = word(r, 2, 5) + "_" + base36(perm[i]);  // unique
      g.city[i] = g.cities[r.below(kCities)];
    }
  }
  return g;
}

/// Out-adjacency (CSR) over any edge list.
struct Adj {
  std::vector<std::uint32_t> off, dst;
  Adj(std::size_t n, const std::vector<std::pair<std::uint32_t, std::uint32_t>>& e) {
    off.assign(n + 1, 0);
    for (const auto& [s, d] : e) ++off[s + 1];
    for (std::size_t i = 0; i < n; ++i) off[i + 1] += off[i];
    dst.resize(e.size());
    std::vector<std::uint32_t> pos(off.begin(), off.end() - 1);
    for (const auto& [s, d] : e) dst[pos[s]++] = d;
  }
  std::size_t degree(std::uint32_t v) const { return off[v + 1] - off[v]; }
};

/// Reference k-hop: distinct vertices reachable by 1..k hops (the seed
/// counts only when a cycle returns to it), plus the frontier entries
/// expanded on the way — the count the GraphBLAS kernel must match.
struct KhopRef {
  std::uint64_t count = 0;
  std::uint64_t frontier_nnz = 0;
};
inline KhopRef khop_ref(const Adj& a, std::uint32_t seed, unsigned k) {
  KhopRef out;
  std::vector<char> seen(a.off.size() - 1, 0);
  std::vector<std::uint32_t> frontier{seed}, next;
  for (unsigned hop = 0; hop < k && !frontier.empty(); ++hop) {
    out.frontier_nnz += frontier.size();
    next.clear();
    for (std::uint32_t u : frontier)
      for (std::uint32_t p = a.off[u]; p < a.off[u + 1]; ++p)
        if (!seen[a.dst[p]]) {
          seen[a.dst[p]] = 1;
          next.push_back(a.dst[p]);
        }
    out.count += next.size();
    std::swap(frontier, next);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Operation streams
// ---------------------------------------------------------------------------

struct Read {
  std::string text;      // GRAPH.RO_QUERY body (maybe with CYPHER header)
  std::uint32_t node = 0;
  unsigned k = 1;        // hops (1 for the 1-hop shapes)
  bool rows = false;     // returns f.handle, f.city rows (index seek)
  std::uint64_t expect_count = 0;
  std::vector<std::string> expect_rows;  // sorted "handle|city"
};

struct Write {
  std::string text;
  bool create = false;
  std::uint32_t a = 0, b = 0;  // create: a -> b; set: node a
  std::string value;           // tag or status
};

struct Plan {
  const Shape* shape = nullptr;
  std::uint64_t seed = 0;
  Graph g;
  std::vector<Read> warmup, reads;  // reads = rounds x round
  std::vector<Write> writes;
  // Written after the measured phase, once a forced WAL rewrite has put
  // everything before them into a snapshot: the first triggers the
  // rewrite and the rest are the WAL tail every restart replays.
  std::vector<Write> tail;
  std::size_t rounds = 0;
};

inline std::string khop_text(std::uint32_t seed, unsigned k) {
  return "CYPHER seed=" + std::to_string(seed) + " MATCH (s)-[:E*1.." +
         std::to_string(k) + "]->(t) WHERE id(s) = $seed RETURN count(DISTINCT t)";
}

inline std::vector<std::uint32_t> nodes_with_out_edges(const Adj& a, Rng& r,
                                                       std::size_t count) {
  std::vector<std::uint32_t> pool;
  for (std::uint32_t v = 0; v + 1 < a.off.size(); ++v)
    if (a.degree(v)) pool.push_back(v);
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(pool[r.below(pool.size())]);
  return out;
}

/// One round of reads.  Every round repeats the same operations; the
/// literal texts of one round (nearly all distinct) outnumber the default
/// plan-cache capacity (256), so they miss the cache in every round.
inline std::vector<Read> make_round(const Shape& sh, const Graph& g,
                                    const Adj& a, std::uint64_t seed) {
  Rng r(seed ^ 0x5EEDull);
  std::vector<Read> out;
  if (sh.kind == Kind::kKhopDeep) {
    const auto seeds = nodes_with_out_edges(a, r, kKhopSeeds);
    for (std::size_t i = 0; i < sh.reads_per_round; ++i) {
      Read q;
      q.node = seeds[i % seeds.size()];
      q.k = r.unit() < kKhop3Share ? 3 : 2;
      q.text = khop_text(q.node, q.k);
      q.expect_count = khop_ref(a, q.node, q.k).count;
      out.push_back(std::move(q));
    }
    return out;
  }
  if (sh.kind == Kind::kWriteMix) {
    for (std::size_t i = 0; i < sh.reads_per_round; ++i) {
      Read q;
      q.node = static_cast<std::uint32_t>(r.below(kHotNodes));
      q.text = "CYPHER s=" + std::to_string(q.node) +
               " MATCH (s)-[]->(t) WHERE id(s) = $s RETURN count(t)";
      q.expect_count = a.degree(q.node);  // lower bound; see client.cpp
      out.push_back(std::move(q));
    }
    return out;
  }
  // onehop_point: four shapes in equal shares, in a shuffled order.
  const auto starts = nodes_with_out_edges(a, r, sh.reads_per_round);
  for (std::size_t i = 0; i < sh.reads_per_round; ++i) {
    Read q;
    q.node = starts[i];
    const bool literal = (i % 4) >= 2;  // a new text to parse and plan
    q.rows = (i % 2) == 1;
    const std::string id = std::to_string(q.node);
    const std::string h = "'" + g.handle[q.node] + "'";
    if (!q.rows) {
      q.text = literal
                   ? "MATCH (u)-[:E]->(f) WHERE id(u) = " + id + " RETURN count(f)"
                   : "CYPHER s=" + id +
                         " MATCH (u)-[:E]->(f) WHERE id(u) = $s RETURN count(f)";
      q.expect_count = a.degree(q.node);
    } else {
      q.text = literal ? "MATCH (u:User {handle: " + h +
                               "})-[:E]->(f) RETURN f.handle, f.city"
                         : "CYPHER h=" + h +
                               " MATCH (u:User {handle: $h})-[:E]->(f) "
                               "RETURN f.handle, f.city";
      for (std::uint32_t p = a.off[q.node]; p < a.off[q.node + 1]; ++p)
        q.expect_rows.push_back(g.handle[a.dst[p]] + "|" + g.city[a.dst[p]]);
      std::sort(q.expect_rows.begin(), q.expect_rows.end());
      q.expect_count = q.expect_rows.size();
    }
    out.push_back(std::move(q));
  }
  for (std::size_t i = out.size() - 1; i > 0; --i) std::swap(out[i], out[r.below(i + 1)]);
  return out;
}

inline std::vector<Write> make_writes(const Shape& sh, const Graph& g,
                                      std::uint64_t seed, std::size_t count) {
  Rng r(seed ^ 0x3A17Eull);
  // write_mix concentrates writes on the nodes its readers read; the
  // others spread them over the whole graph.
  const std::size_t span = sh.kind == Kind::kWriteMix ? kHotNodes : g.n;
  std::vector<Write> out;
  for (std::size_t i = 0; i < count; ++i) {
    Write w;
    w.create = r.unit() < kCreateShare;
    w.a = static_cast<std::uint32_t>(r.below(span));
    if (w.create) {
      w.b = static_cast<std::uint32_t>(r.below(g.n));
      w.value = g.tags[r.below(g.tags.size())];
      w.text = "MATCH (a),(b) WHERE id(a) = " + std::to_string(w.a) +
               " AND id(b) = " + std::to_string(w.b) +
               " CREATE (a)-[:F {tag: '" + w.value + "'}]->(b)";
    } else {
      w.value = g.statuses[r.below(g.statuses.size())];
      w.text = "MATCH (n) WHERE id(n) = " + std::to_string(w.a) +
               " SET n.status = '" + w.value + "'";
    }
    out.push_back(std::move(w));
  }
  return out;
}

inline Plan make_plan(const std::string& workload, std::uint64_t seed,
                      double seconds) {
  Plan p;
  p.shape = &shape_of(workload);
  p.seed = seed;
  p.g = make_graph(*p.shape, seed);
  const Adj a(p.g.n, p.g.edges);
  p.rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds * p.shape->rounds_per_second)));
  const auto round = make_round(*p.shape, p.g, a, seed);
  p.warmup = round;
  for (std::size_t i = 0; i < p.rounds; ++i)
    p.reads.insert(p.reads.end(), round.begin(), round.end());
  p.writes = make_writes(*p.shape, p.g, seed, p.shape->writes_per_round * p.rounds);
  p.tail = make_writes(*p.shape, p.g, seed ^ 0x7A11ull, kTailWrites);
  return p;
}

/// The load: property batches (social graphs) or one GRAPH.BULK NODES
/// section, then GRAPH.BULK EDGES batches, then the index.  Each entry
/// is one command's argv; node ids come out as 0..n-1 in a fresh graph.
inline std::vector<std::vector<std::string>> load_commands(const Plan& p,
                                                           const std::string& key) {
  std::vector<std::vector<std::string>> cmds;
  const Graph& g = p.g;
  if (p.shape->social) {
    for (std::size_t i = 0; i < g.n; i += kLoadNodesPerQuery) {
      std::string q = "CREATE ";
      for (std::size_t v = i; v < std::min(g.n, i + kLoadNodesPerQuery); ++v) {
        if (v != i) q += ", ";
        q += "(:User {handle: '" + g.handle[v] + "', city: '" + g.city[v] + "'})";
      }
      cmds.push_back({"GRAPH.QUERY", key, q});
    }
  } else {
    cmds.push_back({"GRAPH.BULK", key, "NODES", std::to_string(g.n), "N"});
  }
  for (std::size_t i = 0; i < g.edges.size(); i += kLoadEdgesPerBulk) {
    const std::size_t end = std::min(g.edges.size(), i + kLoadEdgesPerBulk);
    std::vector<std::string> c{"GRAPH.BULK", key, "EDGES", "E", std::to_string(end - i)};
    for (std::size_t e = i; e < end; ++e) {
      c.push_back(std::to_string(g.edges[e].first));
      c.push_back(std::to_string(g.edges[e].second));
    }
    cmds.push_back(std::move(c));
  }
  if (p.shape->social)
    cmds.push_back({"GRAPH.QUERY", key, "CREATE INDEX ON :User(handle)"});
  return cmds;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Nearest-rank quantile of unsorted samples (copied, then partially
/// sorted).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

inline double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// The tail percentile reported as *_tail_us (see README: p90 keeps at
/// least ten samples beyond it in every run and repeats within its bound).
constexpr double kTailQuantile = 0.90;

struct Metric {
  std::string name, unit;
  double value;
};

/// The result line: the last line of standard output.
inline void print_result(bool correct, std::uint64_t attempted,
                         std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted) +
       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
