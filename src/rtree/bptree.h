#ifndef COLR_RTREE_BPTREE_H_
#define COLR_RTREE_BPTREE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace colr {

/// In-memory B+-tree: sorted keys in internal nodes, values only in
/// linked leaves, O(log n) point lookups and ordered range scans.
/// This is the temporal index the aRB-tree (paper ref [9]) hangs off
/// every spatial node — "the temporal dimension is indexed with a
/// standard B-Tree".
///
/// Keys are unique; Insert overwrites an existing key's value.
template <typename Key, typename Value, int kOrder = 32>
class BPlusTree {
  static_assert(kOrder >= 4, "order must be at least 4");

 public:
  BPlusTree() = default;
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept = default;
  BPlusTree& operator=(BPlusTree&&) noexcept = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int height() const { return root_ == nullptr ? 0 : root_->height(); }

  /// Inserts or overwrites.
  void Insert(const Key& key, Value value) {
    if (root_ == nullptr) {
      auto leaf = std::make_unique<Leaf>();
      leaf->keys.push_back(key);
      leaf->values.push_back(std::move(value));
      root_ = std::move(leaf);
      size_ = 1;
      return;
    }
    SplitResult split = InsertInto(root_.get(), key, std::move(value));
    if (split.right != nullptr) {
      auto new_root = std::make_unique<Internal>();
      new_root->keys.push_back(split.separator);
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(split.right));
      root_ = std::move(new_root);
    }
  }

  /// nullptr if absent. The pointer is invalidated by mutations.
  const Value* Find(const Key& key) const {
    const Node* node = root_.get();
    if (node == nullptr) return nullptr;
    while (!node->is_leaf()) {
      const auto* internal = static_cast<const Internal*>(node);
      node = internal->children[internal->ChildIndex(key)].get();
    }
    const auto* leaf = static_cast<const Leaf*>(node);
    const auto it =
        std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
    if (it == leaf->keys.end() || *it != key) return nullptr;
    return &leaf->values[it - leaf->keys.begin()];
  }

  bool Contains(const Key& key) const { return Find(key) != nullptr; }

  /// Removes a key; returns true if it was present. (Simple scheme:
  /// leaves may underflow; structure invariants on key ordering and
  /// reachability are preserved, which is sufficient for this
  /// repository's append-mostly workloads.)
  bool Erase(const Key& key) {
    Node* node = root_.get();
    if (node == nullptr) return false;
    while (!node->is_leaf()) {
      auto* internal = static_cast<Internal*>(node);
      node = internal->children[internal->ChildIndex(key)].get();
    }
    auto* leaf = static_cast<Leaf*>(node);
    const auto it =
        std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
    if (it == leaf->keys.end() || *it != key) return false;
    const size_t idx = it - leaf->keys.begin();
    leaf->keys.erase(leaf->keys.begin() + idx);
    leaf->values.erase(leaf->values.begin() + idx);
    --size_;
    return true;
  }

  /// Visits entries with lo <= key <= hi in ascending key order;
  /// return false from the visitor to stop.
  template <typename Visitor>
  void Scan(const Key& lo, const Key& hi, Visitor&& visit) const {
    const Node* node = root_.get();
    if (node == nullptr) return;
    while (!node->is_leaf()) {
      const auto* internal = static_cast<const Internal*>(node);
      node = internal->children[internal->ChildIndex(lo)].get();
    }
    const auto* leaf = static_cast<const Leaf*>(node);
    while (leaf != nullptr) {
      for (size_t i = 0; i < leaf->keys.size(); ++i) {
        if (leaf->keys[i] < lo) continue;
        if (hi < leaf->keys[i]) return;
        if (!visit(leaf->keys[i], leaf->values[i])) return;
      }
      leaf = leaf->next;
    }
  }

  /// Structural invariants: key ordering within and across nodes, leaf
  /// chain completeness, size consistency, uniform leaf depth.
  Status CheckInvariants() const {
    if (root_ == nullptr) {
      return size_ == 0 ? Status::OK()
                        : Status::Internal("empty tree with size > 0");
    }
    size_t counted = 0;
    int leaf_depth = -1;
    COLR_RETURN_IF_ERROR(
        CheckNode(root_.get(), 0, &counted, &leaf_depth, nullptr,
                  nullptr));
    if (counted != size_) return Status::Internal("size mismatch");
    // Leaf chain covers everything in order.
    const Node* node = root_.get();
    while (!node->is_leaf()) {
      node = static_cast<const Internal*>(node)->children[0].get();
    }
    size_t chained = 0;
    const Key* prev = nullptr;
    for (const auto* leaf = static_cast<const Leaf*>(node);
         leaf != nullptr; leaf = leaf->next) {
      for (const Key& k : leaf->keys) {
        if (prev != nullptr && !(*prev < k)) {
          return Status::Internal("leaf chain out of order");
        }
        prev = &k;
        ++chained;
      }
    }
    if (chained != size_) return Status::Internal("leaf chain incomplete");
    return Status::OK();
  }

 private:
  struct Node {
    virtual ~Node() = default;
    virtual bool is_leaf() const = 0;
    virtual int height() const = 0;
  };

  struct Leaf : Node {
    std::vector<Key> keys;
    std::vector<Value> values;
    Leaf* next = nullptr;

    bool is_leaf() const override { return true; }
    int height() const override { return 1; }
  };

  struct Internal : Node {
    /// keys[i] is the smallest key reachable under children[i+1].
    std::vector<Key> keys;
    std::vector<std::unique_ptr<Node>> children;

    bool is_leaf() const override { return false; }
    int height() const override { return 1 + children[0]->height(); }

    size_t ChildIndex(const Key& key) const {
      return std::upper_bound(keys.begin(), keys.end(), key) -
             keys.begin();
    }
  };

  struct SplitResult {
    Key separator{};
    std::unique_ptr<Node> right;
  };

  SplitResult InsertInto(Node* node, const Key& key, Value value) {
    if (node->is_leaf()) {
      auto* leaf = static_cast<Leaf*>(node);
      const auto it =
          std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
      const size_t idx = it - leaf->keys.begin();
      if (it != leaf->keys.end() && *it == key) {
        leaf->values[idx] = std::move(value);  // overwrite
        return {};
      }
      leaf->keys.insert(leaf->keys.begin() + idx, key);
      leaf->values.insert(leaf->values.begin() + idx, std::move(value));
      ++size_;
      if (static_cast<int>(leaf->keys.size()) <= kOrder) return {};
      // Split the leaf in half.
      auto right = std::make_unique<Leaf>();
      const size_t mid = leaf->keys.size() / 2;
      right->keys.assign(leaf->keys.begin() + mid, leaf->keys.end());
      right->values.assign(std::make_move_iterator(leaf->values.begin() +
                                                   mid),
                           std::make_move_iterator(leaf->values.end()));
      leaf->keys.resize(mid);
      leaf->values.resize(mid);
      right->next = leaf->next;
      leaf->next = right.get();
      SplitResult result;
      result.separator = right->keys.front();
      result.right = std::move(right);
      return result;
    }

    auto* internal = static_cast<Internal*>(node);
    const size_t child = internal->ChildIndex(key);
    SplitResult split =
        InsertInto(internal->children[child].get(), key, std::move(value));
    if (split.right == nullptr) return {};
    internal->keys.insert(internal->keys.begin() + child,
                          split.separator);
    internal->children.insert(internal->children.begin() + child + 1,
                              std::move(split.right));
    if (static_cast<int>(internal->children.size()) <= kOrder) return {};
    // Split the internal node; the middle key moves up.
    auto right = std::make_unique<Internal>();
    const size_t mid = internal->keys.size() / 2;
    SplitResult result;
    result.separator = internal->keys[mid];
    right->keys.assign(internal->keys.begin() + mid + 1,
                       internal->keys.end());
    right->children.assign(
        std::make_move_iterator(internal->children.begin() + mid + 1),
        std::make_move_iterator(internal->children.end()));
    internal->keys.resize(mid);
    internal->children.resize(mid + 1);
    result.right = std::move(right);
    return result;
  }

  Status CheckNode(const Node* node, int depth, size_t* counted,
                   int* leaf_depth, const Key* lower,
                   const Key* upper) const {
    if (node->is_leaf()) {
      if (*leaf_depth < 0) *leaf_depth = depth;
      if (*leaf_depth != depth) {
        return Status::Internal("leaves at different depths");
      }
      const auto* leaf = static_cast<const Leaf*>(node);
      for (size_t i = 0; i < leaf->keys.size(); ++i) {
        if (i > 0 && !(leaf->keys[i - 1] < leaf->keys[i])) {
          return Status::Internal("unsorted leaf");
        }
        if (lower != nullptr && leaf->keys[i] < *lower) {
          return Status::Internal("key below lower bound");
        }
        if (upper != nullptr && !(leaf->keys[i] < *upper)) {
          return Status::Internal("key above upper bound");
        }
        ++*counted;
      }
      return Status::OK();
    }
    const auto* internal = static_cast<const Internal*>(node);
    if (internal->children.size() != internal->keys.size() + 1) {
      return Status::Internal("internal node arity mismatch");
    }
    for (size_t i = 0; i + 1 < internal->keys.size(); ++i) {
      if (!(internal->keys[i] < internal->keys[i + 1])) {
        return Status::Internal("unsorted internal keys");
      }
    }
    for (size_t i = 0; i < internal->children.size(); ++i) {
      const Key* lo = i == 0 ? lower : &internal->keys[i - 1];
      const Key* hi =
          i == internal->keys.size() ? upper : &internal->keys[i];
      COLR_RETURN_IF_ERROR(CheckNode(internal->children[i].get(),
                                     depth + 1, counted, leaf_depth, lo,
                                     hi));
    }
    return Status::OK();
  }

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace colr

#endif  // COLR_RTREE_BPTREE_H_
