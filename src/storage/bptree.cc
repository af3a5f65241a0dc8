#include "storage/bptree.h"

#include <cstring>
#include <vector>

#include "common/logging.h"

namespace fgpm {
namespace {

// Node layout (both kinds):
//   0  u8   is_leaf
//   2  u16  num_keys
//   4  u32  leaf: next-leaf page id; internal: unused
// Leaf:      keys u64[kLeafCapacity] at 8, values u64[] at kValuesOff.
// Internal:  keys u64[kInternalCapacity] at 8, children u32[] at kChildOff.
constexpr size_t kIsLeafOff = 0;
constexpr size_t kNumKeysOff = 2;
constexpr size_t kNextOff = 4;
constexpr size_t kKeysOff = 8;
constexpr size_t kValuesOff = kKeysOff + BPTree::kLeafCapacity * 8;
constexpr size_t kChildOff = kKeysOff + BPTree::kInternalCapacity * 8;

bool IsLeaf(const Page& p) { return p.Read<uint8_t>(kIsLeafOff) != 0; }
uint16_t NumKeys(const Page& p) { return p.Read<uint16_t>(kNumKeysOff); }
void SetNumKeys(Page& p, uint16_t n) { p.Write<uint16_t>(kNumKeysOff, n); }
uint64_t KeyAt(const Page& p, size_t i) {
  return p.Read<uint64_t>(kKeysOff + i * 8);
}
void SetKeyAt(Page& p, size_t i, uint64_t k) {
  p.Write<uint64_t>(kKeysOff + i * 8, k);
}
uint64_t ValueAt(const Page& p, size_t i) {
  return p.Read<uint64_t>(kValuesOff + i * 8);
}
void SetValueAt(Page& p, size_t i, uint64_t v) {
  p.Write<uint64_t>(kValuesOff + i * 8, v);
}
PageId ChildAt(const Page& p, size_t i) {
  return p.Read<PageId>(kChildOff + i * 4);
}
void SetChildAt(Page& p, size_t i, PageId c) {
  p.Write<PageId>(kChildOff + i * 4, c);
}

// First index >= lo with keys[i] >= key.
size_t LowerBound(const Page& p, uint64_t key, size_t lo = 0) {
  size_t hi = NumKeys(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (KeyAt(p, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child to descend into: number of keys <= key.
size_t ChildIndex(const Page& p, uint64_t key) {
  size_t lo = 0, hi = NumKeys(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (KeyAt(p, mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void ShiftRight(Page& p, size_t from, size_t n, bool leaf) {
  for (size_t i = n; i > from; --i) {
    SetKeyAt(p, i, KeyAt(p, i - 1));
    if (leaf) {
      SetValueAt(p, i, ValueAt(p, i - 1));
    }
  }
}

}  // namespace

BPTree::BPTree(BufferPool* pool) : pool_(pool) {
  Result<PageGuard> g = pool_->New();
  FGPM_CHECK(g.ok());
  Page& p = g->MutablePage();
  p.Write<uint8_t>(kIsLeafOff, 1);
  SetNumKeys(p, 0);
  p.Write<PageId>(kNextOff, kInvalidPage);
  root_ = g->id();
}

Result<PageGuard> BPTree::FindLeaf(uint64_t key) const {
  PageId cur = root_;
  for (;;) {
    FGPM_ASSIGN_OR_RETURN(PageGuard g, pool_->Fetch(cur));
    const Page& p = g.page();
    if (IsLeaf(p)) return g;
    cur = ChildAt(p, ChildIndex(p, key));
  }
}

Result<uint64_t> BPTree::Lookup(uint64_t key) const {
  std::optional<uint64_t> value;
  FGPM_RETURN_IF_ERROR(LookupSorted(
      {&key, 1}, [&](size_t, uint64_t v) { value = v; }));
  if (!value) return Status::NotFound("key not in tree");
  return *value;
}

Status BPTree::LookupSorted(
    std::span<const uint64_t> keys,
    const std::function<void(size_t, uint64_t)>& found) const {
  // Leaves hold consecutive runs of the key order, so a key above the
  // pinned leaf's last key lies in a later leaf (or nowhere).
  auto past = [](const Page& p, uint64_t key) {
    uint16_t n = NumKeys(p);
    return n == 0 || key > KeyAt(p, n - 1);
  };
  PageGuard leaf;
  size_t pos = 0;  // keys ascend, so each search resumes here
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t key = keys[i];
    if (leaf.valid() && past(leaf.page(), key)) {
      PageId next = leaf.page().Read<PageId>(kNextOff);
      if (next != kInvalidPage) {
        leaf.Release();
        FGPM_ASSIGN_OR_RETURN(leaf, pool_->Fetch(next));
        pos = 0;
        // Past the next leaf too: descend rather than walk the chain.
        if (past(leaf.page(), key) &&
            leaf.page().Read<PageId>(kNextOff) != kInvalidPage) {
          leaf.Release();
        }
      }
    }
    if (!leaf.valid()) {
      FGPM_ASSIGN_OR_RETURN(leaf, FindLeaf(key));
      pos = 0;
    }
    const Page& p = leaf.page();
    pos = LowerBound(p, key, pos);
    if (pos < NumKeys(p) && KeyAt(p, pos) == key) found(i, ValueAt(p, pos));
  }
  return Status::OK();
}

Result<std::optional<BPTree::SplitInfo>> BPTree::InsertRec(
    PageId node, uint64_t key, uint64_t value, bool overwrite,
    bool* inserted) {
  FGPM_ASSIGN_OR_RETURN(PageGuard g, pool_->Fetch(node));

  if (IsLeaf(g.page())) {
    Page& p = g.MutablePage();
    size_t pos = LowerBound(p, key);
    uint16_t n = NumKeys(p);
    if (pos < n && KeyAt(p, pos) == key) {
      if (!overwrite) return Status::AlreadyExists("duplicate key");
      SetValueAt(p, pos, value);
      *inserted = false;
      return std::optional<SplitInfo>{};
    }
    if (n < kLeafCapacity) {
      ShiftRight(p, pos, n, /*leaf=*/true);
      SetKeyAt(p, pos, key);
      SetValueAt(p, pos, value);
      SetNumKeys(p, n + 1);
      *inserted = true;
      return std::optional<SplitInfo>{};
    }
    // Split the leaf: upper half moves to a fresh right sibling.
    FGPM_ASSIGN_OR_RETURN(PageGuard ng, pool_->New());
    Page& np = ng.MutablePage();
    np.Write<uint8_t>(kIsLeafOff, 1);
    size_t mid = n / 2;
    uint16_t right_n = static_cast<uint16_t>(n - mid);
    for (size_t i = 0; i < right_n; ++i) {
      SetKeyAt(np, i, KeyAt(p, mid + i));
      SetValueAt(np, i, ValueAt(p, mid + i));
    }
    SetNumKeys(np, right_n);
    SetNumKeys(p, static_cast<uint16_t>(mid));
    np.Write<PageId>(kNextOff, p.Read<PageId>(kNextOff));
    p.Write<PageId>(kNextOff, ng.id());
    // Insert into the proper half.
    Page& target = (key >= KeyAt(np, 0)) ? np : p;
    size_t tpos = LowerBound(target, key);
    uint16_t tn = NumKeys(target);
    ShiftRight(target, tpos, tn, /*leaf=*/true);
    SetKeyAt(target, tpos, key);
    SetValueAt(target, tpos, value);
    SetNumKeys(target, tn + 1);
    *inserted = true;
    return std::optional<SplitInfo>{SplitInfo{KeyAt(np, 0), ng.id()}};
  }

  // Internal node: descend, then absorb a child split if any.
  size_t ci = ChildIndex(g.page(), key);
  PageId child = ChildAt(g.page(), ci);
  // Release our pin during recursion to keep the pinned set ~O(1).
  g.Release();
  FGPM_ASSIGN_OR_RETURN(std::optional<SplitInfo> split,
                        InsertRec(child, key, value, overwrite, inserted));
  if (!split) return std::optional<SplitInfo>{};

  FGPM_ASSIGN_OR_RETURN(PageGuard g2, pool_->Fetch(node));
  Page& p = g2.MutablePage();
  uint16_t n = NumKeys(p);
  if (n < kInternalCapacity) {
    for (size_t i = n; i > ci; --i) {
      SetKeyAt(p, i, KeyAt(p, i - 1));
      SetChildAt(p, i + 1, ChildAt(p, i));
    }
    SetKeyAt(p, ci, split->separator);
    SetChildAt(p, ci + 1, split->new_page);
    SetNumKeys(p, n + 1);
    return std::optional<SplitInfo>{};
  }

  // Split this internal node. Build the key/child sequence with the new
  // separator inserted, then cut at the middle and promote it.
  std::vector<uint64_t> keys(n + 1);
  std::vector<PageId> children(n + 2);
  for (size_t i = 0; i < ci; ++i) keys[i] = KeyAt(p, i);
  keys[ci] = split->separator;
  for (size_t i = ci; i < n; ++i) keys[i + 1] = KeyAt(p, i);
  for (size_t i = 0; i <= ci; ++i) children[i] = ChildAt(p, i);
  children[ci + 1] = split->new_page;
  for (size_t i = ci + 1; i <= n; ++i) children[i + 1] = ChildAt(p, i);

  size_t total = n + 1;
  size_t mid = total / 2;
  uint64_t promote = keys[mid];

  FGPM_ASSIGN_OR_RETURN(PageGuard ng, pool_->New());
  Page& np = ng.MutablePage();
  np.Write<uint8_t>(kIsLeafOff, 0);
  uint16_t right_n = static_cast<uint16_t>(total - mid - 1);
  for (size_t i = 0; i < right_n; ++i) SetKeyAt(np, i, keys[mid + 1 + i]);
  for (size_t i = 0; i <= right_n; ++i) SetChildAt(np, i, children[mid + 1 + i]);
  SetNumKeys(np, right_n);

  for (size_t i = 0; i < mid; ++i) SetKeyAt(p, i, keys[i]);
  for (size_t i = 0; i <= mid; ++i) SetChildAt(p, i, children[i]);
  SetNumKeys(p, static_cast<uint16_t>(mid));

  return std::optional<SplitInfo>{SplitInfo{promote, ng.id()}};
}

Status BPTree::Insert(uint64_t key, uint64_t value) {
  bool inserted = false;
  FGPM_ASSIGN_OR_RETURN(std::optional<SplitInfo> split,
                        InsertRec(root_, key, value, false, &inserted));
  if (inserted) ++num_entries_;
  if (split) {
    FGPM_ASSIGN_OR_RETURN(PageGuard g, pool_->New());
    Page& p = g.MutablePage();
    p.Write<uint8_t>(kIsLeafOff, 0);
    SetNumKeys(p, 1);
    SetKeyAt(p, 0, split->separator);
    SetChildAt(p, 0, root_);
    SetChildAt(p, 1, split->new_page);
    root_ = g.id();
    ++height_;
  }
  return Status::OK();
}

Status BPTree::Upsert(uint64_t key, uint64_t value) {
  bool inserted = false;
  FGPM_ASSIGN_OR_RETURN(std::optional<SplitInfo> split,
                        InsertRec(root_, key, value, true, &inserted));
  if (inserted) ++num_entries_;
  if (split) {
    FGPM_ASSIGN_OR_RETURN(PageGuard g, pool_->New());
    Page& p = g.MutablePage();
    p.Write<uint8_t>(kIsLeafOff, 0);
    SetNumKeys(p, 1);
    SetKeyAt(p, 0, split->separator);
    SetChildAt(p, 0, root_);
    SetChildAt(p, 1, split->new_page);
    root_ = g.id();
    ++height_;
  }
  return Status::OK();
}

Status BPTree::Delete(uint64_t key) {
  FGPM_ASSIGN_OR_RETURN(PageGuard g, FindLeaf(key));
  Page& p = g.MutablePage();
  size_t i = LowerBound(p, key);
  uint16_t n = NumKeys(p);
  if (i >= n || KeyAt(p, i) != key) return Status::NotFound("key not in tree");
  for (size_t j = i; j + 1 < n; ++j) {
    SetKeyAt(p, j, KeyAt(p, j + 1));
    SetValueAt(p, j, ValueAt(p, j + 1));
  }
  SetNumKeys(p, n - 1);
  --num_entries_;
  return Status::OK();
}

void BPTree::SaveMeta(BinaryWriter* w) const {
  w->U32(root_);
  w->U64(num_entries_);
  w->U32(height_);
}

Result<BPTree> BPTree::AttachMeta(BufferPool* pool, BinaryReader* r) {
  uint32_t root = 0, height = 0;
  uint64_t entries = 0;
  FGPM_RETURN_IF_ERROR(r->U32(&root));
  FGPM_RETURN_IF_ERROR(r->U64(&entries));
  FGPM_RETURN_IF_ERROR(r->U32(&height));
  return BPTree(pool, AttachTag{}, root, entries, height);
}

Status BPTree::ScanRange(
    uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, uint64_t)>& fn) const {
  FGPM_ASSIGN_OR_RETURN(PageGuard g, FindLeaf(lo));
  size_t start = LowerBound(g.page(), lo);
  for (;;) {
    const Page& p = g.page();
    uint16_t n = NumKeys(p);
    for (size_t i = start; i < n; ++i) {
      uint64_t k = KeyAt(p, i);
      if (k > hi) return Status::OK();
      if (!fn(k, ValueAt(p, i))) return Status::OK();
    }
    PageId next = p.Read<PageId>(kNextOff);
    if (next == kInvalidPage) return Status::OK();
    g.Release();
    FGPM_ASSIGN_OR_RETURN(g, pool_->Fetch(next));
    start = 0;
  }
}

}  // namespace fgpm
