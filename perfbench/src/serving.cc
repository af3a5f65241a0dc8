// Serving-layer probes (net, shard, common): a net::Server with 2 shards
// runs in this process over loopback, fed by a one-thread open-loop
// generator over one connection, so server plus generator fit 4 cores.
// Traffic is Zipf(0.9) over a pool of single-shard patterns, their
// respellings and contained specifics, plus a cross-shard tail; the
// result cache is on and the graph fits each shard's pool.
//
// Rates are absolute (never derived from the run), latency runs from
// each request's scheduled send time, and refused requests count as
// failed. These figures are per-layer only: on a small shared VM,
// sub-millisecond serving latencies are dominated by vCPU preemption,
// too unsteady for an end-to-end bound.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "common/scheduler.h"
#include "core/graph_matcher.h"
#include "graph/generators.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "shard/sharded_matcher.h"

namespace perfbench {
namespace {

using fgpm::net::Client;
using fgpm::net::QueryRequest;
using fgpm::net::QueryResponse;

constexpr uint64_t kGraphSeed = 42;  // fixed graph; the seed draws traffic
constexpr uint32_t kNodes = 8000;
constexpr uint32_t kEdgesPerNode = 2;
constexpr uint32_t kLabels = 32;  // 8 groups of 4 co-located labels
constexpr uint32_t kGroups = 8;
constexpr uint32_t kShards = 2;
constexpr double kZipfTheta = 0.9;
// Absolute offered loads (requests/s); never derived from the run.
constexpr double kFixedRate = 5000;
constexpr double kLadder[] = {2500, 5000, 10000, 20000, 30000, 40000};
constexpr double kSloP99Ms = 10.0;
constexpr double kMaxLagP99Ms = 1.0;

std::string L(uint32_t l) { return "L" + std::to_string(l); }

// Hot-to-cold pool (Zipf rank = index). Group g owns labels 4g..4g+3 and
// lives on shard g % 2; ranks snake across groups so hot patterns land
// on both shards.
std::vector<NamedPattern> BuildPool(Report* r) {
  std::vector<std::pair<std::string, std::string>> texts;
  for (int kind = 0; kind < 5; ++kind) {
    for (uint32_t i = 0; i < kGroups; ++i) {
      uint32_t grp = (kind % 2 == 1) ? kGroups - 1 - i : i;
      uint32_t b = 4 * grp;
      std::string g = std::to_string(grp);
      switch (kind) {
        case 0:  // chain
          texts.push_back({"chain" + g, L(b) + "->" + L(b + 1) + "; " +
                                            L(b + 1) + "->" + L(b + 2)});
          break;
        case 1:  // respelling of the chain
          texts.push_back({"chain" + g + ".respelled",
                           L(b + 1) + "->" + L(b + 2) + "; " + L(b) + "->" +
                               L(b + 1)});
          break;
        case 2:  // star
          texts.push_back({"star" + g, L(b) + "->" + L(b + 1) + "; " + L(b) +
                                           "->" + L(b + 3)});
          break;
        case 3:  // contained in the chain (its closure edge added)
          texts.push_back({"chain" + g + ".closed",
                           L(b) + "->" + L(b + 1) + "; " + L(b + 1) + "->" +
                               L(b + 2) + "; " + L(b) + "->" + L(b + 2)});
          break;
        default:  // single edge
          texts.push_back({"edge" + g, L(b + 2) + "->" + L(b + 3)});
      }
    }
  }
  // Cross-shard tail: every pattern spans both shards.
  texts.push_back({"cross0", L(1) + "->" + L(5)});
  texts.push_back({"cross1", L(9) + "->" + L(13) + "; " + L(13) + "->" + L(17)});
  texts.push_back({"cross2", L(21) + "->" + L(26)});
  texts.push_back({"cross3", L(30) + "->" + L(3)});
  texts.push_back({"cross4", L(6) + "->" + L(10) + "; " + L(6) + "->" + L(14)});
  std::vector<NamedPattern> pool;
  for (auto& [name, text] : texts) {
    auto p = fgpm::Pattern::Parse(text);
    if (!p.ok()) {
      r->Invalidate("pool pattern " + name + ": " + p.status().ToString());
      continue;
    }
    pool.push_back({name, text, *std::move(p)});
  }
  return pool;
}

struct Expected {
  uint64_t checksum = 0;
  uint64_t rows = 0;
  bool cross = false;
};

std::vector<size_t> ZipfSequence(size_t pool, size_t n, uint64_t seed) {
  fgpm::Rng rng(seed);
  fgpm::ZipfDistribution zipf(pool, kZipfTheta);
  std::vector<size_t> seq(n);
  for (size_t& s : seq) s = zipf.Sample(&rng);
  return seq;
}

std::unique_ptr<Client> Connect(uint16_t port, Report* r) {
  auto cl = Client::Connect("127.0.0.1", port);
  if (!cl.ok()) {
    r->Invalidate("connect: " + cl.status().ToString());
    return nullptr;
  }
  return *std::move(cl);
}

// Reads whatever has arrived on the connection, without waiting, and
// hands every complete response to `on_response`. Returns false when the
// connection failed.
template <typename F>
bool Drain(Client& conn, fgpm::net::FrameDecoder& decoder, F&& on_response) {
  pollfd fd = {conn.fd(), POLLIN, 0};
  int n = poll(&fd, 1, 0);
  if (n <= 0) return n == 0 || errno == EINTR;
  char buf[1 << 16];
  ssize_t got = read(fd.fd, buf, sizeof(buf));
  if (got <= 0) return got < 0 && errno == EINTR;
  decoder.Append({buf, static_cast<size_t>(got)});
  std::string payload;
  while (true) {
    auto ready = decoder.Next(&payload);
    if (!ready.ok()) return false;
    if (!*ready) return true;
    QueryResponse resp;
    if (!fgpm::net::DecodeQueryResponse(payload, &resp).ok()) return false;
    on_response(resp);
  }
}

struct Phase {
  uint64_t sent = 0, answered = 0, refused = 0, mismatched = 0;
  double wall_s = 0;  // first due time to last response
  std::vector<double> lat_ms, lag_ms;
  // Per request (traced phase only): due, sent and received times.
  std::vector<int64_t> due_ns, sent_ns, recv_ns;

  // Refused, mismatched or never answered.
  uint64_t failed() const { return sent - answered; }
  double achieved() const { return wall_s > 0 ? answered / wall_s : 0; }
};

// Checks one checksum-only response against the direct-Match reference.
// Returns false when it must count as failed.
bool Judge(const QueryResponse& resp, const Expected& e, Phase* ph) {
  if (resp.code == fgpm::StatusCode::kResourceExhausted) {
    ++ph->refused;
    return false;
  }
  if (!resp.ok() || resp.checksum != e.checksum || resp.row_count != e.rows) {
    ++ph->mismatched;
    return false;
  }
  return true;
}

// Open loop: request k is due at t0 + k / rate and is sent then, whether
// or not earlier ones have completed; its latency runs from that due
// time. One thread sends when a request is due and reads responses in
// between, without sleeping (a sleeping generator adds its own wake-up
// delay to every latency).
Phase OpenLoop(uint16_t port, const std::vector<NamedPattern>& pool,
               const std::vector<Expected>& expect, double rate,
               double seconds, uint64_t seed, bool keep_times, Report* r) {
  Phase ph;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  const std::vector<size_t> seq = ZipfSequence(pool.size(), n, seed);
  std::unique_ptr<Client> conn = Connect(port, r);
  if (conn == nullptr) return ph;
  fgpm::net::FrameDecoder decoder;
  const double gap_ns = 1e9 / rate;
  const int64_t t0 = NowNs() + 5'000'000;
  auto due = [&](uint64_t k) { return t0 + static_cast<int64_t>(k * gap_ns); };
  if (keep_times) {
    ph.due_ns.resize(n);
    ph.sent_ns.resize(n);
    ph.recv_ns.resize(n, 0);
  }
  int64_t last_recv = t0;
  auto on_response = [&](const QueryResponse& resp) {
    int64_t now = NowNs();
    uint64_t k = resp.id;
    if (k >= n) {
      ++ph.mismatched;
      return;
    }
    last_recv = now;
    if (keep_times) ph.recv_ns[k] = now;
    if (!Judge(resp, expect[seq[k]], &ph)) return;
    double ms = (now - due(k)) / 1e6;
    ph.lat_ms.push_back(ms);
    ++ph.answered;
  };

  QueryRequest req;
  req.flags = fgpm::net::kFlagChecksumOnly;
  ph.lag_ms.reserve(n);
  const int64_t give_up = due(n) + 5'000'000'000;
  uint64_t k = 0;
  while (k < n || ph.answered + ph.refused + ph.mismatched < ph.sent) {
    const int64_t now = NowNs();
    if (k < n && now >= due(k)) {
      ph.lag_ms.push_back((now - due(k)) / 1e6);
      req.id = k;
      req.pattern = pool[seq[k]].text;
      if (keep_times) {
        ph.due_ns[k] = due(k);
        ph.sent_ns[k] = now;
      }
      if (!conn->Send(req).ok()) break;
      ++ph.sent;
      ++k;
      continue;
    }
    if (now > give_up || !Drain(*conn, decoder, on_response)) break;
  }
  ph.wall_s = (last_recv - t0) / 1e9;
  return ph;
}

fgpm::net::ServerOptions MakeServerOptions() {
  fgpm::net::ServerOptions o;
  o.num_shards = kShards;
  o.matcher.num_shards = kShards;  // for the wire-less ShardedMatcher
  o.matcher.label_to_shard.resize(kLabels);
  for (uint32_t l = 0; l < kLabels; ++l) {
    o.matcher.label_to_shard[l] = (l / 4) % kShards;
  }
  o.matcher.exec.use_result_cache = true;
  return o;
}

fgpm::obs::Histogram::Snapshot QueueSnap() {
  return fgpm::obs::MetricsRegistry::Default()
      .GetHistogram("fgpm_server_queue_us")
      ->Snap();
}

uint64_t RejectedTotal() {
  return fgpm::obs::MetricsRegistry::Default()
      .GetCounter("fgpm_server_rejected_total")
      ->Value();
}

void AddPhaseOutcome(const Phase& ph, const std::string& what, Report* r) {
  r->CountAttempts(ph.sent);
  for (uint64_t i = 0; i < ph.failed(); ++i) {
    r->Fail(what + ": request refused, unanswered or mismatched");
  }
}

// Server-side counters over one phase: registry queue-wait histogram,
// admission sheds and scheduler activity of the server workers.
struct ServerDelta {
  fgpm::obs::Histogram::Snapshot queue0;
  uint64_t rejected0 = 0;
  fgpm::Scheduler::Stats sched0;

  void Begin() {
    queue0 = QueueSnap();
    rejected0 = RejectedTotal();
    sched0 = fgpm::Scheduler::Global().GetStats();
  }

  void Emit(const Phase& ph, Report* r) const {
    fgpm::obs::Histogram::Snapshot q = QueueSnap();
    for (size_t b = 0; b < q.counts.size(); ++b) q.counts[b] -= queue0.counts[b];
    q.count -= queue0.count;
    q.sum -= queue0.sum;
    r->Add("net.queue_wait_p99_ms", Unit::kMillis, q.Percentile(0.99) / 1e3,
           q.count);
    r->AddRatio("net.shed_share",
                static_cast<double>(RejectedTotal() - rejected0),
                static_cast<double>(ph.sent));
    fgpm::Scheduler::Stats s = fgpm::Scheduler::Global().GetStats();
    double busy = 0, wall = static_cast<double>(s.wall_ns - sched0.wall_ns);
    uint64_t workers = 0, tasks = 0, steals = 0;
    for (size_t i = 0; i < s.workers.size(); ++i) {
      const auto& w = s.workers[i];
      fgpm::Scheduler::WorkerStats w0;
      if (i < sched0.workers.size()) w0 = sched0.workers[i];
      tasks += w.tasks - w0.tasks;
      steals += w.steals - w0.steals;
      if (w.tag.rfind("srv", 0) == 0) {
        busy += static_cast<double>(w.busy_ns - w0.busy_ns);
        ++workers;
        r->Fact("common.sched_busy_frac." + w.tag,
                wall > 0 ? (w.busy_ns - w0.busy_ns) / wall : 0);
      }
    }
    r->AddRatio("common.sched_busy_frac", busy, wall * std::max<uint64_t>(1, workers));
    r->Annotate("common.sched_busy_frac",
                "morsel-only: busy_ns counts morsel bodies, not inline work");
    r->AddRatio("common.sched_steals_per_task", static_cast<double>(steals),
                static_cast<double>(tasks));
    r->AddRatio("common.sched_tasks_per_query", static_cast<double>(tasks),
                static_cast<double>(ph.answered));
  }
};

}  // namespace

void ProbeServing(uint64_t seed, double seconds, fgpm::QueryTrace* spans, Report* r) {
  fgpm::Graph g = fgpm::gen::ScaleFree(kNodes, kEdgesPerNode, kLabels, kGraphSeed);
  r->Fact("serving.nodes", static_cast<double>(g.NumNodes()));
  const std::vector<NamedPattern> pool = BuildPool(r);
  if (!r->correct()) return;

  // Reference answers from a direct, unsharded, cache-less matcher.
  auto reference = fgpm::GraphMatcher::Create(&g);
  if (!reference.ok()) {
    r->Fail("reference build: " + reference.status().ToString());
    return;
  }
  std::vector<fgpm::MatchResult> want;
  for (const NamedPattern& np : pool) {
    auto res = (*reference)->Match(np.pattern);
    if (!res.ok()) {
      r->Fail(np.name + " (direct): " + res.status().ToString());
      return;
    }
    res->SortRows();
    want.push_back(*std::move(res));
  }

  const fgpm::net::ServerOptions options = MakeServerOptions();
  int64_t ts = NowNs();
  auto started = fgpm::net::Server::Start(&g, options);
  if (!started.ok()) {
    r->Fail("server start: " + started.status().ToString());
    return;
  }
  std::unique_ptr<fgpm::net::Server> server = std::move(*started);
  r->Fact("serving.start_s", (NowNs() - ts) / 1e9);
  for (uint32_t s = 0; s < server->matcher()->num_shards(); ++s) {
    AddStorageFacts(server->matcher()->shard(s)->db(),
                    "serving.shard" + std::to_string(s) + ".", r);
  }
  const uint16_t port = server->port();

  // Oracle: full wire rows of every pool pattern equal a direct Match.
  std::vector<Expected> expect(pool.size());
  uint64_t total_rows = 0;
  {
    std::unique_ptr<Client> conn = Connect(port, r);
    if (conn == nullptr) return;
    for (size_t i = 0; i < pool.size(); ++i) {
      QueryRequest req;
      req.id = i;
      req.pattern = pool[i].text;
      auto resp = conn->Query(req);
      r->CountAttempts(1);
      if (!resp.ok() || !resp->ok()) {
        r->Fail(pool[i].name + " (wire): request failed");
        continue;
      }
      std::sort(resp->rows.begin(), resp->rows.end());
      if (resp->rows != want[i].rows) {
        r->Fail(pool[i].name + ": wire rows differ from a direct Match");
      }
      expect[i].checksum = fgpm::net::RowChecksum(want[i].rows);
      expect[i].rows = want[i].rows.size();
      expect[i].cross = !server->matcher()->Route(pool[i].pattern).has_value();
      total_rows += expect[i].rows;
    }
  }
  r->Fact("serving.pool_patterns", static_cast<double>(pool.size()));
  r->Fact("serving.pool_total_rows", static_cast<double>(total_rows));
  if (!r->correct()) return;

  const double t_fixed = seconds * 0.1;
  // The fixed rate untraced, then traced, then the ladder.
  ServerDelta delta;
  delta.Begin();
  Phase plain = OpenLoop(port, pool, expect, kFixedRate, t_fixed,
                         seed * 31 + 1, false, r);
  delta.Emit(plain, r);
  Phase traced = OpenLoop(port, pool, expect, kFixedRate, t_fixed,
                          seed * 31 + 3, true, r);
  for (size_t k = 0; k < traced.recv_ns.size(); ++k) {
    if (traced.recv_ns[k] == 0) continue;
    uint32_t root =
        AddSpan(spans, "req.served", -1, traced.due_ns[k], traced.recv_ns[k]);
    AddSpan(spans, "net.request", static_cast<int32_t>(root),
            traced.sent_ns[k], traced.recv_ns[k]);
  }
  AddPhaseOutcome(plain, "open loop", r);
  AddPhaseOutcome(traced, "traced open loop", r);
  r->Fact("serving.open_loop_p50_ms", Quantile(plain.lat_ms, 0.5));
  r->Fact("serving.open_loop_p99_ms", Quantile(plain.lat_ms, 0.99));
  r->Fact("serving.traced_open_loop_p50_ms", Quantile(traced.lat_ms, 0.5));
  r->Add("net.generator_lag_p99_ms", Unit::kMillis,
         Quantile(plain.lag_ms, 0.99), plain.lag_ms.size());
  // A generator that sent late offered less than the fixed rate: the
  // serving figures of such a run are not comparable.
  r->Fact("serving.generator_lagged",
          Quantile(plain.lag_ms, 0.99) > kMaxLagP99Ms ? 1 : 0);

  double slo_qps = 0;
  const double step_s = std::max(0.5, seconds / 20);
  for (double rate : kLadder) {
    Phase step = OpenLoop(port, pool, expect, rate, step_s,
                          seed * 31 + static_cast<uint64_t>(rate), false, r);
    double p99 = Quantile(step.lat_ms, 0.99);
    bool kept_up = step.failed() == 0 && step.achieved() >= 0.97 * rate;
    r->Fact("ladder." + std::to_string(static_cast<int>(rate)) + ".p99_ms", p99);
    r->Fact("ladder." + std::to_string(static_cast<int>(rate)) + ".achieved_qps",
            step.achieved());
    r->CountAttempts(step.sent);
    if (p99 <= kSloP99Ms && kept_up) slo_qps = step.achieved();
  }
  r->Add("net.served_slo_qps", Unit::kPerSecond, slo_qps);
  r->Fact("slo_p99_limit_ms", kSloP99Ms);

  // One request in flight: wire round trip per pool pattern.
  std::vector<double> roundtrip_ms(pool.size());
  {
    std::unique_ptr<Client> conn = Connect(port, r);
    if (conn == nullptr) return;
    for (size_t i = 0; i < pool.size(); ++i) {
      std::vector<double> t;
      for (int rep = 0; rep < 5; ++rep) {
        QueryRequest req;
        req.id = i;
        req.flags = fgpm::net::kFlagChecksumOnly;
        req.pattern = pool[i].text;
        int64_t t0 = NowNs();
        auto resp = conn->Query(req);
        t.push_back(MsSince(t0));
        r->CountAttempts(1);
        if (!resp.ok() || !resp->ok() || resp->checksum != expect[i].checksum) {
          r->Fail(pool[i].name + ": round trip failed");
        }
      }
      roundtrip_ms[i] = Median(t);
    }
  }

  // Cache and pool counters of the shards, read once the workers have
  // been joined (facts: the host workload reports core.* and storage.*).
  server->Stop();
  double hits = 0, lookups = 0, pool_hits = 0, pool_accesses = 0;
  fgpm::ShardedMatcher* sm = server->matcher();
  for (uint32_t s = 0; s < sm->num_shards(); ++s) {
    fgpm::GraphMatcher* m = sm->shard(s);
    fgpm::IoSnapshot io = m->db().Io();
    pool_hits += io.pool_hits;
    pool_accesses += io.pool_hits + io.pool_misses;
    if (const fgpm::ResultCache* rc = m->result_cache()) {
      hits += rc->hits_exact() + rc->hits_containment();
      lookups += rc->hits_exact() + rc->hits_containment() + rc->misses();
    }
  }
  r->Fact("serving.result_cache_hit_ratio", lookups > 0 ? hits / lookups : 0);
  r->Fact("serving.pool_hit_ratio",
          pool_accesses > 0 ? pool_hits / pool_accesses : 0);
  server.reset();

  // The same sharded matcher without the wire: shard.* and the
  // round-trip overhead (wire time minus direct time, same pattern).
  auto direct = fgpm::ShardedMatcher::Create(&g, options.matcher);
  if (!direct.ok()) {
    r->Fail("sharded matcher: " + direct.status().ToString());
    return;
  }
  std::vector<double> shard_ms, overhead_us;
  fgpm::CrossShardStats cross;
  uint64_t cross_calls = 0;
  double cross_requests = 0;
  for (const size_t k : ZipfSequence(pool.size(), 2000, seed * 31 + 1)) {
    cross_requests += expect[k].cross ? 1 : 0;
  }
  for (size_t i = 0; i < pool.size(); ++i) {
    std::vector<double> t;
    for (int rep = 0; rep < 6; ++rep) {
      ScopedSpan root(spans, "req.direct", -1);
      fgpm::CrossShardStats st;
      int64_t t0 = NowNs();
      auto res = [&] {
        ScopedSpan s(spans, "shard.match", root.id());
        return (*direct)->Match(pool[i].pattern, {}, &st);
      }();
      double ms = MsSince(t0);
      r->CountAttempts(1);
      if (!res.ok() || res->rows.size() != expect[i].rows) {
        r->Fail(pool[i].name + ": direct sharded match differs");
        continue;
      }
      if (rep > 0) t.push_back(ms);  // warm: the serving caches are warm too
      if (rep == 0 && expect[i].cross) {
        cross.filter_ids += st.filter_ids;
        ++cross_calls;
      }
    }
    shard_ms.push_back(Median(t));
    overhead_us.push_back((roundtrip_ms[i] - Median(t)) * 1e3);
  }
  r->Add("shard.match_ms", Unit::kMillis, Median(shard_ms), shard_ms.size());
  r->AddRatio("shard.cross_share", cross_requests, 2000);
  r->AddRatio("shard.filter_ids_per_cross", static_cast<double>(cross.filter_ids),
              static_cast<double>(cross_calls));
  r->Add("net.roundtrip_overhead_us", Unit::kMicros, Median(overhead_us),
         overhead_us.size());
}

}  // namespace perfbench
