#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "gdb/database.h"
#include "gdb/graph_codes.h"
#include "gdb/rjoin_index.h"
#include "gdb/wtable.h"
#include "graph/generators.h"
#include "graph/reach_oracle.h"

namespace fgpm {
namespace {

TEST(GraphCodesTest, EncodeDecodeRoundTrip) {
  GraphCodeRecord rec;
  rec.node = 42;
  rec.in = {1, 5, 9};
  rec.out = {2, 42};
  std::string bytes;
  EncodeGraphCodes(rec, &bytes);
  GraphCodeRecord back;
  ASSERT_TRUE(DecodeGraphCodes({bytes.data(), bytes.size()}, &back).ok());
  EXPECT_EQ(back.node, rec.node);
  EXPECT_EQ(back.in, rec.in);
  EXPECT_EQ(back.out, rec.out);
}

TEST(GraphCodesTest, EmptyCodesAllowed) {
  GraphCodeRecord rec;
  rec.node = 7;
  std::string bytes;
  EncodeGraphCodes(rec, &bytes);
  GraphCodeRecord back;
  ASSERT_TRUE(DecodeGraphCodes({bytes.data(), bytes.size()}, &back).ok());
  EXPECT_TRUE(back.in.empty());
  EXPECT_TRUE(back.out.empty());
}

TEST(GraphCodesTest, CorruptionDetected) {
  GraphCodeRecord rec;
  EXPECT_EQ(DecodeGraphCodes({"abc", 3}, &rec).code(),
            StatusCode::kCorruption);
  GraphCodeRecord good;
  good.node = 1;
  good.in = {2};
  std::string bytes;
  EncodeGraphCodes(good, &bytes);
  bytes.pop_back();
  EXPECT_EQ(DecodeGraphCodes({bytes.data(), bytes.size()}, &rec).code(),
            StatusCode::kCorruption);
}

TEST(NodeListStoreTest, SmallListRoundTrip) {
  DiskManager disk;
  BufferPool pool(&disk);
  NodeListStore store(&pool);
  std::vector<uint32_t> ids{3, 1, 4, 1, 5, 9, 2, 6};
  auto handle = store.Put(ids);
  ASSERT_TRUE(handle.ok());
  std::vector<uint32_t> back;
  ASSERT_TRUE(store.Get(*handle, &back).ok());
  EXPECT_EQ(back, ids);
}

TEST(NodeListStoreTest, MultiChunkListRoundTrip) {
  DiskManager disk;
  BufferPool pool(&disk);
  NodeListStore store(&pool);
  std::vector<uint32_t> ids(10000);
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i * 3;
  auto handle = store.Put(ids);
  ASSERT_TRUE(handle.ok());
  std::vector<uint32_t> back;
  ASSERT_TRUE(store.Get(*handle, &back).ok());
  EXPECT_EQ(back, ids);
  EXPECT_GE(NodeListStore::PagesFor(ids.size()), 5u);
}

TEST(NodeListStoreTest, EmptyRejected) {
  DiskManager disk;
  BufferPool pool(&disk);
  NodeListStore store(&pool);
  EXPECT_EQ(store.Put({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NodeListStore::PagesFor(0), 0u);
}

class GdbFixture : public ::testing::Test {
 protected:
  void BuildDb(Graph g) {
    graph_ = std::make_unique<Graph>(std::move(g));
    db_ = std::make_unique<GraphDatabase>();
    ASSERT_TRUE(db_->Build(*graph_).ok());
  }
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<GraphDatabase> db_;
};

TEST_F(GdbFixture, BaseTablesMatchExtents) {
  BuildDb(gen::ErdosRenyi(300, 900, 5, 7));
  for (LabelId l = 0; l < graph_->NumLabels(); ++l) {
    EXPECT_EQ(db_->table(l).NumTuples(), graph_->Extent(l).size());
  }
}

TEST_F(GdbFixture, GetRetrievesCorrectCodes) {
  BuildDb(gen::ErdosRenyi(200, 600, 4, 9));
  const TwoHopLabeling& lab = db_->labeling();
  for (NodeId v = 0; v < graph_->NumNodes(); v += 7) {
    GraphCodeRecord rec;
    ASSERT_TRUE(db_->table(graph_->label_of(v)).Get(v, &rec).ok());
    EXPECT_EQ(rec.node, v);
    EXPECT_TRUE(std::ranges::equal(rec.in, lab.InCode(v)));
    EXPECT_TRUE(std::ranges::equal(rec.out, lab.OutCode(v)));
  }
}

TEST_F(GdbFixture, GetMissingNodeIsNotFound) {
  BuildDb(gen::ErdosRenyi(50, 100, 2, 11));
  // A node of label 0 is absent from table 1 (labels are disjoint).
  NodeId v0 = graph_->Extent(0).front();
  GraphCodeRecord rec;
  EXPECT_EQ(db_->table(1).Get(v0, &rec).code(), StatusCode::kNotFound);
}

TEST_F(GdbFixture, ScanVisitsAllTuples) {
  BuildDb(gen::ErdosRenyi(150, 450, 3, 13));
  for (LabelId l = 0; l < graph_->NumLabels(); ++l) {
    std::set<NodeId> seen;
    ASSERT_TRUE(db_->table(l)
                    .Scan([&](const GraphCodeRecord& r) { seen.insert(r.node); })
                    .ok());
    std::set<NodeId> expect(graph_->Extent(l).begin(),
                            graph_->Extent(l).end());
    EXPECT_EQ(seen, expect);
  }
}

// The defining property of the cluster index: (x, y) pairs produced by a
// center are exactly reachable pairs, and every reachable labeled pair
// appears under some W(X,Y) center.
TEST_F(GdbFixture, ClusterPairsAreReachable) {
  BuildDb(gen::ErdosRenyi(120, 360, 3, 17));
  ReachOracle oracle(graph_.get());
  for (LabelId x = 0; x < graph_->NumLabels(); ++x) {
    for (LabelId y = 0; y < graph_->NumLabels(); ++y) {
      std::vector<CenterId> centers;
      ASSERT_TRUE(db_->wtable().Lookup(x, y, &centers).ok());
      for (CenterId w : centers) {
        std::vector<NodeId> fs, ts;
        ASSERT_TRUE(db_->rjoin_index().GetF(w, x, &fs).ok());
        ASSERT_TRUE(db_->rjoin_index().GetT(w, y, &ts).ok());
        ASSERT_FALSE(fs.empty());
        ASSERT_FALSE(ts.empty());
        for (NodeId u : fs) {
          for (NodeId v : ts) {
            EXPECT_TRUE(oracle.Reaches(u, v)) << u << "->" << v;
          }
        }
      }
    }
  }
}

// The batch read returns what per-center GetF/GetT return, absent
// subclusters as empty ones, for dense and sparse center runs.
void ExpectBatchMatchesPointReads(const GraphDatabase& db, const Graph& g) {
  const RJoinIndex& idx = db.rjoin_index();
  std::vector<CenterId> dense, sparse;
  for (CenterId w = 0; w < g.NumNodes() + 3; ++w) {
    dense.push_back(w);
    if (w % 7 == 3) sparse.push_back(w);
  }
  for (const std::vector<CenterId>* centers : {&dense, &sparse}) {
    for (LabelId l = 0; l < g.NumLabels(); ++l) {
      for (RJoinIndex::Side side : {RJoinIndex::Side::kF,
                                    RJoinIndex::Side::kT}) {
        SubclusterRun run;
        ASSERT_TRUE(idx.ReadSubclusters(*centers, side, l, &run).ok());
        ASSERT_EQ(run.size(), centers->size());
        std::vector<NodeId> want;
        for (size_t i = 0; i < centers->size(); ++i) {
          CenterId w = (*centers)[i];
          ASSERT_TRUE((side == RJoinIndex::Side::kF ? idx.GetF(w, l, &want)
                                                    : idx.GetT(w, l, &want))
                          .ok());
          EXPECT_TRUE(std::ranges::equal(run[i], want))
              << "center " << w << " label " << l;
        }
      }
    }
  }
}

TEST_F(GdbFixture, ReadSubclustersMatchesGetFAndGetT) {
  BuildDb(gen::ErdosRenyi(150, 450, 4, 23));
  ExpectBatchMatchesPointReads(*db_, *graph_);
  // Inserts rewrite node lists and repoint their directory handles.
  Rng rng(29);
  int applied = 0;
  while (applied < 25) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(graph_->NumNodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(graph_->NumNodes()));
    if (u == v || db_->labeling().Reaches(v, u)) continue;  // keep SCCs
    ASSERT_TRUE(graph_->AddEdge(u, v).ok());
    graph_->Finalize();
    ASSERT_TRUE(db_->ApplyEdgeInsert(*graph_, u, v).ok());
    ++applied;
  }
  ExpectBatchMatchesPointReads(*db_, *graph_);
}

TEST_F(GdbFixture, EveryReachablePairCoveredBySomeCenter) {
  BuildDb(gen::ErdosRenyi(100, 300, 3, 19));
  ReachOracle oracle(graph_.get());
  for (NodeId u = 0; u < graph_->NumNodes(); u += 3) {
    for (NodeId v = 0; v < graph_->NumNodes(); v += 3) {
      if (!oracle.Reaches(u, v)) continue;
      LabelId x = graph_->label_of(u), y = graph_->label_of(v);
      std::vector<CenterId> centers;
      ASSERT_TRUE(db_->wtable().Lookup(x, y, &centers).ok());
      bool covered = false;
      for (CenterId w : centers) {
        std::vector<NodeId> fs, ts;
        ASSERT_TRUE(db_->rjoin_index().GetF(w, x, &fs).ok());
        ASSERT_TRUE(db_->rjoin_index().GetT(w, y, &ts).ok());
        if (std::count(fs.begin(), fs.end(), u) &&
            std::count(ts.begin(), ts.end(), v)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << u << "->" << v;
    }
  }
}

TEST_F(GdbFixture, WTableAbsentPairIsEmpty) {
  // A two-node graph with an edge A->B: W(B,A) must be empty.
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  g.Finalize();
  BuildDb(std::move(g));
  std::vector<CenterId> centers;
  ASSERT_TRUE(db_->wtable().Lookup(1, 0, &centers).ok());
  EXPECT_TRUE(centers.empty());
  ASSERT_TRUE(db_->wtable().Lookup(0, 1, &centers).ok());
  EXPECT_FALSE(centers.empty());
}

TEST_F(GdbFixture, CatalogStatsMatchGroundTruth) {
  BuildDb(gen::ErdosRenyi(120, 360, 3, 23));
  ReachOracle oracle(graph_.get());
  const Catalog& cat = db_->catalog();
  EXPECT_EQ(cat.NumNodes(), graph_->NumNodes());
  for (LabelId x = 0; x < graph_->NumLabels(); ++x) {
    EXPECT_EQ(cat.ExtentSize(x), graph_->Extent(x).size());
    for (LabelId y = 0; y < graph_->NumLabels(); ++y) {
      // est_pairs is an upper bound on the true distinct join size.
      uint64_t truth = 0;
      for (NodeId u : graph_->Extent(x)) {
        for (NodeId v : graph_->Extent(y)) {
          if (oracle.Reaches(u, v)) ++truth;
        }
      }
      EXPECT_GE(cat.Stats(x, y).est_pairs, truth);
      if (truth == 0) {
        EXPECT_EQ(cat.Stats(x, y).est_pairs, 0u);
      }
      EXPECT_LE(cat.Selectivity(x, y), 1.0);
    }
  }
}

TEST_F(GdbFixture, CodeCacheHitsAvoidTableAccess) {
  BuildDb(gen::ErdosRenyi(200, 600, 3, 29));
  NodeId v = graph_->Extent(0).front();
  GraphCodeRecord rec;
  ASSERT_TRUE(db_->GetCodes(v, 0, &rec).ok());
  IoSnapshot io1 = db_->Io();
  ASSERT_TRUE(db_->GetCodes(v, 0, &rec).ok());
  IoSnapshot io2 = db_->Io();
  EXPECT_EQ(io2.pool_misses, io1.pool_misses);
  EXPECT_EQ(io2.code_cache_hits, io1.code_cache_hits + 1);
}

TEST_F(GdbFixture, CodeCacheDisableWorks) {
  BuildDb(gen::ErdosRenyi(100, 300, 3, 31));
  db_->set_code_cache_enabled(false);
  NodeId v = graph_->Extent(0).front();
  GraphCodeRecord rec;
  ASSERT_TRUE(db_->GetCodes(v, 0, &rec).ok());
  ASSERT_TRUE(db_->GetCodes(v, 0, &rec).ok());
  EXPECT_EQ(db_->Io().code_cache_hits, 0u);
  EXPECT_EQ(db_->Io().code_cache_misses, 0u);
}

TEST_F(GdbFixture, BuildResetsIoCounters) {
  BuildDb(gen::ErdosRenyi(100, 300, 3, 37));
  IoSnapshot io = db_->Io();
  EXPECT_EQ(io.pool_misses, 0u);
  EXPECT_EQ(io.page_reads, 0u);
}

TEST_F(GdbFixture, GreedyCoverOptionWorks) {
  Graph g = gen::ErdosRenyi(60, 150, 3, 41);
  Graph copy = g.Clone();
  GraphDatabaseOptions opts;
  opts.use_greedy_cover = true;
  GraphDatabase db(opts);
  ASSERT_TRUE(db.Build(copy).ok());
  ReachOracle oracle(&g);
  Rng rng(43);
  for (int i = 0; i < 500; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    EXPECT_EQ(db.labeling().Reaches(u, v), oracle.Reaches(u, v));
  }
}

TEST_F(GdbFixture, DoubleBuildRejected) {
  BuildDb(gen::ErdosRenyi(30, 60, 2, 47));
  EXPECT_EQ(db_->Build(*graph_).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace fgpm
