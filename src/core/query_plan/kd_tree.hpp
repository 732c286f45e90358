#pragma once

/// \file kd_tree.hpp
/// An immutable balanced k-d tree (bounding-volume flavour) over the
/// partition bounding boxes of one dataset. Built once at `Dataset::open`
/// (or parsed from the metadata footer, format v3), it answers the two
/// spatial planning questions in O(log F + hits) instead of the linear
/// metadata scan:
///
///   - `query`         open-overlap box search (`Box3::overlaps`), the
///                     exact candidate set of `files_intersecting`;
///   - `visit_nearest` best-first traversal by minimum distance, driving
///                     the kNN expanding-ball search.
///
/// The build is deterministic (median split on the widest centroid axis,
/// ties broken by file index), so the serialized footer is a pure
/// function of the file records and golden-byte tests stay frozen.

#include <cstdint>
#include <functional>
#include <vector>

#include "util/box.hpp"

namespace spio {

class BinaryReader;
class BinaryWriter;

class BoxKdTree {
 public:
  BoxKdTree() = default;

  /// Deterministic balanced build over `boxes` (one per file, indices are
  /// preserved as the leaf payload). Every box must be non-empty.
  static BoxKdTree build(const std::vector<Box3>& boxes);

  bool empty() const { return nodes_.empty(); }
  /// Number of file boxes the tree indexes.
  std::size_t file_count() const { return leaf_files_.size(); }
  /// Union of every indexed box. Precondition: !empty().
  const Box3& root_bounds() const;

  /// Indices of the files whose boxes share volume with `box`
  /// (`Box3::overlaps`), ascending — identical to the linear
  /// `files_intersecting` scan.
  std::vector<int> query(const Box3& box) const;

  /// Best-first traversal: `visit(file, min_dist)` is called for every
  /// file in ascending order of its box's minimum distance to `p`;
  /// return false to stop the search.
  void visit_nearest(
      const Vec3d& p,
      const std::function<bool(int file, double min_dist)>& visit) const;

  /// Footer encoding (docs/FORMAT.md): node and leaf arrays, preorder.
  void serialize(BinaryWriter& w) const;

  /// Parse and structurally validate a footer against the dataset's file
  /// boxes: child links must form a preorder tree, every file index must
  /// appear in exactly one leaf, and every node's box must equal the
  /// exact union of its files' boxes. Throws `FormatError` on violation.
  static BoxKdTree deserialize(BinaryReader& r,
                               const std::vector<Box3>& boxes);

  bool operator==(const BoxKdTree&) const = default;

 private:
  struct Node {
    Box3 bounds;             // union of the member file boxes
    std::int32_t left = -1;  // children (preorder ids); -1 = leaf
    std::int32_t right = -1;
    std::uint32_t first = 0;  // leaf: [first, first+count) into leaf_files_
    std::uint32_t count = 0;

    bool is_leaf() const { return left < 0; }
    bool operator==(const Node&) const = default;
  };

  std::vector<Node> nodes_;           // preorder; [0] is the root
  std::vector<std::int32_t> leaf_files_;  // file indices grouped per leaf
  std::vector<Box3> boxes_;  // the indexed file boxes (not serialized)
};

}  // namespace spio
