// Sharded execution (ctest label `net`): label partitioning, the
// owned-labels database filter, single-shard routing, and the
// scatter-gather cross-shard join — every path checked row-identical
// against a direct (unsharded) GraphMatcher::Match across shard counts,
// engines and join strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "shard/partition.h"
#include "shard/sharded_matcher.h"
#include "workload/patterns.h"

namespace fgpm {
namespace {

Pattern P(std::string_view text) {
  auto p = Pattern::Parse(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status();
  return *p;
}

std::vector<std::vector<NodeId>> SortedRows(Result<MatchResult> r) {
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return {};
  r->SortRows();
  return std::move(r->rows);
}

TEST(PartitionTest, BalancedDeterministicCoversAllShards) {
  Graph g = gen::ScaleFree(500, 3, 8, 17);
  auto a = PartitionLabelsByExtent(g, 4);
  auto b = PartitionLabelsByExtent(g, 4);
  EXPECT_EQ(a, b);  // deterministic
  ASSERT_EQ(a.size(), g.NumLabels());
  std::vector<uint64_t> load(4, 0);
  for (LabelId l = 0; l < g.NumLabels(); ++l) {
    ASSERT_LT(a[l], 4u);
    load[a[l]] += g.Extent(l).size();
  }
  for (uint64_t ld : load) EXPECT_GT(ld, 0u);  // every shard owns work
  // Greedy bound: max load <= min load + largest extent.
  size_t largest = 0;
  for (LabelId l = 0; l < g.NumLabels(); ++l) {
    largest = std::max(largest, g.Extent(l).size());
  }
  auto [mn, mx] = std::minmax_element(load.begin(), load.end());
  EXPECT_LE(*mx, *mn + largest);
}

TEST(PartitionTest, OwnedLabelFilterMatchesPlacement) {
  std::vector<uint32_t> placement = {0, 1, 2, 1, 0};
  auto f1 = OwnedLabelFilter(placement, 1);
  EXPECT_EQ(f1, (std::vector<uint8_t>{0, 1, 0, 1, 0}));
  auto f2 = OwnedLabelFilter(placement, 2);
  EXPECT_EQ(f2, (std::vector<uint8_t>{0, 0, 1, 0, 0}));
}

TEST(OwnedLabelsTest, FilteredBuildServesOwnedAndRejectsForeignCodes) {
  Graph g = gen::ScaleFree(300, 3, 6, 5);
  auto placement = PartitionLabelsByExtent(g, 2);
  GraphDatabaseOptions dbo;
  dbo.owned_labels = OwnedLabelFilter(placement, 0);
  auto filtered = GraphMatcher::Create(&g, dbo, {});
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  auto full = GraphMatcher::Create(&g, {}, {});
  ASSERT_TRUE(full.ok());

  // Find one owned and one foreign label with nodes.
  LabelId owned = kInvalidLabel, foreign = kInvalidLabel;
  for (LabelId l = 0; l < g.NumLabels(); ++l) {
    if (g.Extent(l).empty()) continue;
    (placement[l] == 0 ? owned : foreign) = l;
  }
  ASSERT_NE(owned, kInvalidLabel);
  ASSERT_NE(foreign, kInvalidLabel);

  GraphCodeRecord rec;
  NodeId own_node = g.Extent(owned).front();
  ASSERT_TRUE((*filtered)->db().GetCodes(own_node, owned, &rec).ok());
  NodeId foreign_node = g.Extent(foreign).front();
  Status st = (*filtered)->db().GetCodes(foreign_node, foreign, &rec);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);

  // A query over owned labels only is row-identical to the full build.
  std::string owned_name = g.LabelName(owned);
  for (LabelId l = 0; l < g.NumLabels(); ++l) {
    if (l == owned || placement[l] != 0 || g.Extent(l).empty()) continue;
    Pattern p = P(g.LabelName(l) + "->" + owned_name);
    EXPECT_EQ(SortedRows((*filtered)->Match(p)),
              SortedRows((*full)->Match(p)));
    break;
  }
}

TEST(RouteTest, SingleShardCrossShardAndUnknownLabels) {
  Graph g = gen::ScaleFree(200, 3, 4, 9);
  ShardedMatcherOptions opts;
  opts.num_shards = 2;
  opts.label_to_shard = {0, 0, 1, 1};
  auto sm = ShardedMatcher::Create(&g, opts);
  ASSERT_TRUE(sm.ok()) << sm.status();
  EXPECT_EQ((*sm)->Route(P("L0->L1")), std::optional<uint32_t>(0));
  EXPECT_EQ((*sm)->Route(P("L2->L3")), std::optional<uint32_t>(1));
  EXPECT_EQ((*sm)->Route(P("L0->L2")), std::nullopt);
  // Unknown labels never pin a query to a shard.
  EXPECT_EQ((*sm)->Route(P("L0->Nope")), std::optional<uint32_t>(0));
  EXPECT_EQ((*sm)->Route(P("Nope->Huh")), std::optional<uint32_t>(0));
}

TEST(ShardedMatcherTest, UnknownLabelGivesEmptyResult) {
  Graph g = gen::ScaleFree(100, 3, 4, 3);
  ShardedMatcherOptions opts;
  opts.num_shards = 2;
  auto sm = ShardedMatcher::Create(&g, opts);
  ASSERT_TRUE(sm.ok());
  auto r = (*sm)->Match(P("L0->Nope"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->rows.empty());
}

// The core differential: ShardedMatcher::Match (routing + cross-shard
// scatter-gather) is row-identical to an unsharded GraphMatcher across
// shard counts, engines and join strategies. With 8 shards over 8
// labels every label lives alone, so almost every multi-label pattern
// exercises the cross-shard join.
TEST(ShardedMatcherTest, DifferentialAcrossShardsEnginesStrategies) {
  Graph g = gen::ScaleFree(400, 3, 8, 23);
  auto direct = GraphMatcher::Create(&g, {}, {});
  ASSERT_TRUE(direct.ok());
  auto patterns = workload::RandomPatterns(g, 12, 3, 1, 77);
  auto more = workload::RandomPatterns(g, 6, 4, 1, 78);
  patterns.insert(patterns.end(), more.begin(), more.end());
  ASSERT_FALSE(patterns.empty());

  for (uint32_t shards : {1u, 4u, 8u}) {
    for (Engine engine : {Engine::kDps, Engine::kDp, Engine::kCanonical}) {
      for (JoinStrategy js : {JoinStrategy::kBinary, JoinStrategy::kHybrid}) {
        ShardedMatcherOptions opts;
        opts.num_shards = shards;
        opts.exec.join_strategy = js;
        auto sm = ShardedMatcher::Create(&g, opts);
        ASSERT_TRUE(sm.ok()) << sm.status();
        for (const Pattern& p : patterns) {
          MatchOptions mo;
          mo.engine = engine;
          CrossShardStats stats;
          auto got = SortedRows((*sm)->Match(p, mo, &stats));
          auto want = SortedRows((*direct)->Match(p, mo));
          EXPECT_EQ(got, want)
              << "shards=" << shards << " engine=" << EngineName(engine)
              << " pattern=" << p.ToString();
        }
      }
    }
  }
}

// Force specific cross-shard shapes with an adversarial placement:
// every edge of a chain crosses shards (all-cross seed + expansion) and
// a diamond splits into two shard-local components joined by two cross
// edges (merge + both-bound filter).
TEST(ShardedMatcherTest, CrossShardShapesMatchDirect) {
  Graph g = gen::ScaleFree(350, 3, 6, 31);
  auto direct = GraphMatcher::Create(&g, {}, {});
  ASSERT_TRUE(direct.ok());
  ShardedMatcherOptions opts;
  opts.num_shards = 2;
  opts.label_to_shard = {0, 1, 0, 1, 0, 1};  // alternating: chains all-cross
  auto sm = ShardedMatcher::Create(&g, opts);
  ASSERT_TRUE(sm.ok()) << sm.status();

  for (const char* text : {
           "L0->L1",                               // all-cross single edge
           "L0->L1; L1->L2",                       // expand through isolated
           "L0->L1; L1->L2; L2->L3",               // longer all-cross chain
           "L0->L2; L1->L3; L2->L3",               // two local comps, one link
           "L0->L2; L1->L3; L0->L1; L2->L3",       // merge + filter edge
           "L0->L2; L2->L4; L4->L5; L1->L5",       // mixed local + cross
       }) {
    Pattern p = P(text);
    CrossShardStats stats;
    auto got = SortedRows((*sm)->Match(p, {}, &stats));
    auto want = SortedRows((*direct)->Match(p));
    EXPECT_EQ(got, want) << text;
  }
}

TEST(ShardedMatcherTest, CrossShardStatsAccountShipping) {
  Graph g = gen::ScaleFree(300, 3, 4, 41);
  ShardedMatcherOptions opts;
  opts.num_shards = 2;
  opts.label_to_shard = {0, 1, 0, 1};
  auto sm = ShardedMatcher::Create(&g, opts);
  ASSERT_TRUE(sm.ok());
  CrossShardStats stats;
  auto r = (*sm)->Match(P("L0->L1; L1->L2"), {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(stats.cross_edges, 0u);
  EXPECT_GT(stats.filters_shipped + stats.probe_pairs, 0u);

  // Every edge of the chain crosses shards, so the join seeds from
  // L0->L1 (F and T subclusters of every W(L0, L1) center) and binds L2
  // by expanding the distinct L1 values through W(L1, L2): one read per
  // distinct (center, side).
  auto direct = GraphMatcher::Create(&g);
  ASSERT_TRUE(direct.ok());
  const GraphDatabase& db = (*direct)->db();
  const LabelId l0 = *db.catalog().FindLabel("L0");
  const LabelId l1 = *db.catalog().FindLabel("L1");
  const LabelId l2 = *db.catalog().FindLabel("L2");
  std::vector<CenterId> w01, w12;
  ASSERT_TRUE(db.wtable().Lookup(l0, l1, &w01).ok());
  ASSERT_TRUE(db.wtable().Lookup(l1, l2, &w12).ok());
  auto seeded = (*direct)->Match("L0->L1");
  ASSERT_TRUE(seeded.ok());
  ASSERT_FALSE(seeded->rows.empty());
  std::vector<CenterId> expanded;
  for (const auto& row : seeded->rows) {
    GraphCodeRecord rec;
    ASSERT_TRUE(db.GetCodes(row[1], l1, &rec).ok());
    for (CenterId w : rec.out) {
      if (std::binary_search(w12.begin(), w12.end(), w)) {
        expanded.push_back(w);
      }
    }
  }
  std::sort(expanded.begin(), expanded.end());
  expanded.erase(std::unique(expanded.begin(), expanded.end()),
                 expanded.end());
  ASSERT_FALSE(expanded.empty());
  EXPECT_EQ(stats.cluster_fetches, 2 * w01.size() + expanded.size());
  EXPECT_EQ(SortedRows(std::move(r)),
            SortedRows((*direct)->Match("L0->L1; L1->L2")));
}

TEST(ShardedMatcherTest, SingleShardPathSupportsBatchAndCaches) {
  Graph g = gen::ScaleFree(250, 3, 4, 51);
  ShardedMatcherOptions opts;
  opts.num_shards = 2;
  opts.label_to_shard = {0, 0, 1, 1};
  opts.exec.use_result_cache = true;
  auto sm = ShardedMatcher::Create(&g, opts);
  ASSERT_TRUE(sm.ok());
  // Routed queries land on the shard matcher, composing with its result
  // cache: the repeat is an exact hit.
  auto r1 = (*sm)->Match(P("L0->L1"));
  ASSERT_TRUE(r1.ok());
  auto r2 = (*sm)->Match(P("L0->L1"));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stats.cache_hit, 1);
  ASSERT_EQ((*sm)->Route(P("L0->L1")), std::optional<uint32_t>(0));

  // MatchBatch against the routed shard is row-identical to Match.
  GraphMatcher* shard0 = (*sm)->shard(0);
  auto batch = shard0->MatchBatch(std::vector<std::string>{"L0->L1", "L1->L0"});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(SortedRows(std::move((*batch)[0])), SortedRows(shard0->Match("L0->L1")));
}

TEST(ShardedMatcherTest, InvalidOptionsRejected) {
  Graph g = gen::ScaleFree(50, 2, 4, 3);
  ShardedMatcherOptions opts;
  opts.num_shards = 2;
  opts.label_to_shard = {0, 1, 2, 0};  // 2 out of range
  EXPECT_FALSE(ShardedMatcher::Create(&g, opts).ok());
  opts.label_to_shard = {0, 1};  // wrong size
  EXPECT_FALSE(ShardedMatcher::Create(&g, opts).ok());
  opts.label_to_shard.clear();
  opts.num_shards = 0;
  EXPECT_FALSE(ShardedMatcher::Create(&g, opts).ok());
}

}  // namespace
}  // namespace fgpm
