// Intrusive red-black tree, the data structure backing CFS runqueues (§2.1):
// "Threads are organized in a runqueue, implemented as a red-black tree, in
// which the threads are sorted in the increasing order of their vruntime."
//
// The tree caches its leftmost node so that picking the next thread to run
// (the one with the smallest vruntime) is O(1), like the kernel's
// rb_leftmost cache. It also caches the rightmost node; together the two
// let Insert() short-circuit the descent for boundary keys — the common
// case on a runqueue, where a preempted thread re-enqueues near the
// minimum and long-running threads enqueue at the maximum. A hinted insert
// links at exactly the position a full descent would choose, so the tree
// shape (and thus every traversal) is bit-identical either way.
//
// Usage:
//   struct Entity { uint64_t key; RbNode node; };
//   struct ByKey {
//     bool operator()(const Entity& a, const Entity& b) const { return a.key < b.key; }
//   };
//   RbTree<Entity, &Entity::node, ByKey> tree;
//   tree.Insert(&e);
//   Entity* min = tree.Leftmost();
//   tree.Erase(&e);
#ifndef SRC_CORE_RBTREE_H_
#define SRC_CORE_RBTREE_H_

#include <cstddef>

namespace wcores {

struct RbNode {
  RbNode* parent = nullptr;
  RbNode* left = nullptr;
  RbNode* right = nullptr;
  bool red = false;
  // Distinguishes "not in any tree" from "root with no children".
  bool linked = false;
};

// Key-agnostic balancing machinery. The typed wrapper below performs the
// comparisons during descent; the fixup logic only manipulates links/colors.
class RbTreeBase {
 public:
  RbTreeBase() = default;
  RbTreeBase(const RbTreeBase&) = delete;
  RbTreeBase& operator=(const RbTreeBase&) = delete;

  bool Empty() const { return root_ == nullptr; }
  size_t Size() const { return size_; }
  RbNode* LeftmostNode() const { return leftmost_; }
  RbNode* RightmostNode() const { return rightmost_; }

  // Links `node` as a child of `parent` at `*link` and rebalances.
  // `link` must be &parent->left or &parent->right (or &root_ when empty).
  void InsertAt(RbNode* node, RbNode* parent, RbNode** link);

  void Erase(RbNode* node);

  // For descent in the typed wrapper.
  RbNode* root() const { return root_; }
  RbNode** mutable_root() { return &root_; }

  // In-order successor, or nullptr. Inline: ForEach drives every balance
  // fold's entity walk through it, one call per queued entity.
  static RbNode* Next(RbNode* node) {
    if (node->right != nullptr) {
      node = node->right;
      while (node->left != nullptr) {
        node = node->left;
      }
      return node;
    }
    RbNode* parent = node->parent;
    while (parent != nullptr && node == parent->right) {
      node = parent;
      parent = parent->parent;
    }
    return parent;
  }

  // In-order predecessor, or nullptr.
  static RbNode* Prev(RbNode* node) {
    if (node->left != nullptr) {
      node = node->left;
      while (node->right != nullptr) {
        node = node->right;
      }
      return node;
    }
    RbNode* parent = node->parent;
    while (parent != nullptr && node == parent->left) {
      node = parent;
      parent = parent->parent;
    }
    return parent;
  }

  // Validates red-black invariants; returns black height, or -1 on violation.
  // Test-support only; O(n).
  int Validate() const;

 private:
  void RotateLeft(RbNode* x);
  void RotateRight(RbNode* x);
  void InsertFixup(RbNode* z);
  void EraseFixup(RbNode* x, RbNode* x_parent);
  void Transplant(RbNode* u, RbNode* v);
  static int ValidateSubtree(const RbNode* node, bool parent_red);

  RbNode* root_ = nullptr;
  RbNode* leftmost_ = nullptr;
  RbNode* rightmost_ = nullptr;
  size_t size_ = 0;
};

template <typename T, RbNode T::*Member, typename Less>
class RbTree {
 public:
  bool Empty() const { return base_.Empty(); }
  size_t Size() const { return base_.Size(); }

  static bool Linked(const T* item) { return (item->*Member).linked; }

  void Insert(T* item) {
    RbNode* node = &(item->*Member);
    RbNode* root = base_.root();
    if (root == nullptr) {
      base_.InsertAt(node, nullptr, base_.mutable_root());
      return;
    }
    // Single descent with a folded boundary hint. The first comparison —
    // against the root, which a full descent performs anyway — decides
    // which boundary is still reachable: an item below the root can never
    // sit at-or-above the maximum, and one at-or-above the root can never
    // sit below the minimum. Only that one hint is then checked, so an
    // interior insert pays one hint comparison instead of two pre-checks.
    // The hints link where a full descent would end: an item below the
    // minimum descends left at every node, ending at leftmost->left; an
    // item not below the maximum (Less is a strict weak order made total
    // by the tid tiebreak) descends right along the rightmost spine,
    // ending at rightmost->right. Tree shape is bit-identical either way.
    RbNode* parent = root;
    RbNode** link;
    if (less_(*item, *FromNode(root))) {
      RbNode* leftmost = base_.LeftmostNode();
      if (less_(*item, *FromNode(leftmost))) {
        base_.InsertAt(node, leftmost, &leftmost->left);
        return;
      }
      link = &root->left;
    } else {
      RbNode* rightmost = base_.RightmostNode();
      if (!less_(*item, *FromNode(rightmost))) {
        base_.InsertAt(node, rightmost, &rightmost->right);
        return;
      }
      link = &root->right;
    }
    while (*link != nullptr) {
      parent = *link;
      if (less_(*item, *FromNode(parent))) {
        link = &parent->left;
      } else {
        link = &parent->right;
      }
    }
    base_.InsertAt(node, parent, link);
  }

  void Erase(T* item) {
    RbNode* node = &(item->*Member);
    base_.Erase(node);
  }

  // Smallest element or nullptr.
  T* Leftmost() const {
    RbNode* node = base_.LeftmostNode();
    return node != nullptr ? FromNode(node) : nullptr;
  }

  // In-order traversal; `visit` returns false to stop early.
  template <typename Visitor>
  void ForEach(Visitor&& visit) const {
    for (RbNode* n = base_.LeftmostNode(); n != nullptr; n = RbTreeBase::Next(n)) {
      if (!visit(FromNode(n))) {
        return;
      }
    }
  }

  int Validate() const { return base_.Validate(); }

 private:
  static T* FromNode(RbNode* node) {
    return reinterpret_cast<T*>(reinterpret_cast<char*>(node) - MemberOffset());
  }
  static const T* FromNode(const RbNode* node) {
    return reinterpret_cast<const T*>(reinterpret_cast<const char*>(node) - MemberOffset());
  }
  static size_t MemberOffset() {
    alignas(T) static char dummy_storage[sizeof(T)];
    const T* dummy = reinterpret_cast<const T*>(dummy_storage);
    return reinterpret_cast<const char*>(&(dummy->*Member)) -
           reinterpret_cast<const char*>(dummy);
  }

  RbTreeBase base_;
  Less less_;
};

}  // namespace wcores

#endif  // SRC_CORE_RBTREE_H_
