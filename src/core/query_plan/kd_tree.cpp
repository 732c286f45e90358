#include "core/query_plan/kd_tree.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/error.hpp"
#include "util/serialize.hpp"

namespace spio {

namespace {

/// Leaves hold up to this many boxes: small enough that the per-member
/// exact tests stay cheap, large enough to keep the node count (and the
/// metadata footer) around F/2 entries.
constexpr std::uint32_t kLeafSize = 4;

double axis_of(const Vec3d& v, int a) {
  return a == 0 ? v.x : a == 1 ? v.y : v.z;
}

double min_dist_sq(const Vec3d& p, const Box3& b) {
  const auto clamp_gap = [](double v, double lo, double hi) {
    return v < lo ? lo - v : v > hi ? v - hi : 0.0;
  };
  const double dx = clamp_gap(p.x, b.lo.x, b.hi.x);
  const double dy = clamp_gap(p.y, b.lo.y, b.hi.y);
  const double dz = clamp_gap(p.z, b.lo.z, b.hi.z);
  return dx * dx + dy * dy + dz * dz;
}

}  // namespace

BoxKdTree BoxKdTree::build(const std::vector<Box3>& boxes) {
  BoxKdTree t;
  t.boxes_ = boxes;
  if (boxes.empty()) return t;
  for (const Box3& b : boxes) SPIO_EXPECTS(!b.is_empty());

  std::vector<std::int32_t> order(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i)
    order[i] = static_cast<std::int32_t>(i);

  t.nodes_.reserve(2 * boxes.size() / kLeafSize + 2);
  t.leaf_files_.reserve(boxes.size());

  // Recursive preorder build over order[lo, hi). Splits at the median of
  // the widest centroid axis; the (centroid, file index) comparator is a
  // strict total order, so both sides — and therefore the serialized
  // footer — are deterministic across standard libraries.
  const std::function<void(std::size_t, std::size_t)> rec =
      [&](std::size_t lo, std::size_t hi) {
        const auto id = static_cast<std::size_t>(t.nodes_.size());
        t.nodes_.emplace_back();
        Box3 merged = Box3::empty();
        for (std::size_t i = lo; i < hi; ++i)
          merged.extend(boxes[static_cast<std::size_t>(order[i])]);
        t.nodes_[id].bounds = merged;

        if (hi - lo <= kLeafSize) {
          Node& n = t.nodes_[id];
          n.first = static_cast<std::uint32_t>(t.leaf_files_.size());
          n.count = static_cast<std::uint32_t>(hi - lo);
          for (std::size_t i = lo; i < hi; ++i)
            t.leaf_files_.push_back(order[i]);
          return;
        }

        Box3 centroids = Box3::empty();
        for (std::size_t i = lo; i < hi; ++i)
          centroids.extend(boxes[static_cast<std::size_t>(order[i])].center());
        const Vec3d spread = centroids.size();
        int axis = 0;
        if (spread.y > axis_of(spread, axis)) axis = 1;
        if (spread.z > axis_of(spread, axis)) axis = 2;

        const auto by_centroid = [&](std::int32_t a, std::int32_t b) {
          const double ca =
              axis_of(boxes[static_cast<std::size_t>(a)].center(), axis);
          const double cb =
              axis_of(boxes[static_cast<std::size_t>(b)].center(), axis);
          return ca != cb ? ca < cb : a < b;
        };
        const std::size_t mid = lo + (hi - lo) / 2;
        std::nth_element(order.begin() + static_cast<std::ptrdiff_t>(lo),
                         order.begin() + static_cast<std::ptrdiff_t>(mid),
                         order.begin() + static_cast<std::ptrdiff_t>(hi),
                         by_centroid);

        t.nodes_[id].left = static_cast<std::int32_t>(t.nodes_.size());
        rec(lo, mid);
        t.nodes_[id].right = static_cast<std::int32_t>(t.nodes_.size());
        rec(mid, hi);
      };
  rec(0, boxes.size());
  return t;
}

const Box3& BoxKdTree::root_bounds() const {
  SPIO_EXPECTS(!empty());
  return nodes_[0].bounds;
}

std::vector<int> BoxKdTree::query(const Box3& box) const {
  const auto overlap = [&](const Box3& b) { return b.overlaps(box); };
  std::vector<int> out;
  if (empty() || !overlap(nodes_[0].bounds)) return out;
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const Node& n = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    if (n.is_leaf()) {
      // The node box is a union; each member still needs its exact test.
      for (std::uint32_t i = 0; i < n.count; ++i) {
        const std::int32_t fi = leaf_files_[n.first + i];
        if (overlap(boxes_[static_cast<std::size_t>(fi)])) out.push_back(fi);
      }
      continue;
    }
    if (overlap(nodes_[static_cast<std::size_t>(n.left)].bounds))
      stack.push_back(n.left);
    if (overlap(nodes_[static_cast<std::size_t>(n.right)].bounds))
      stack.push_back(n.right);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BoxKdTree::visit_nearest(
    const Vec3d& p,
    const std::function<bool(int file, double min_dist)>& visit) const {
  SPIO_EXPECTS(visit != nullptr);
  if (empty()) return;
  struct Entry {
    double dist_sq;
    std::int32_t node;  // -1: `file` is a resolved member, ready to visit
    std::int32_t file;
    bool operator>(const Entry& o) const { return dist_sq > o.dist_sq; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  heap.push({min_dist_sq(p, nodes_[0].bounds), 0, -1});
  while (!heap.empty()) {
    const Entry e = heap.top();
    heap.pop();
    if (e.node < 0) {
      if (!visit(e.file, std::sqrt(e.dist_sq))) return;
      continue;
    }
    const Node& n = nodes_[static_cast<std::size_t>(e.node)];
    if (n.is_leaf()) {
      // Re-rank each member by its own box: the leaf's union distance is
      // only a lower bound.
      for (std::uint32_t i = 0; i < n.count; ++i) {
        const std::int32_t fi = leaf_files_[n.first + i];
        heap.push(
            {min_dist_sq(p, boxes_[static_cast<std::size_t>(fi)]), -1, fi});
      }
      continue;
    }
    heap.push({min_dist_sq(p, nodes_[static_cast<std::size_t>(n.left)].bounds),
               n.left, -1});
    heap.push(
        {min_dist_sq(p, nodes_[static_cast<std::size_t>(n.right)].bounds),
         n.right, -1});
  }
}

void BoxKdTree::serialize(BinaryWriter& w) const {
  w.write<std::uint32_t>(static_cast<std::uint32_t>(nodes_.size()));
  w.write<std::uint32_t>(static_cast<std::uint32_t>(leaf_files_.size()));
  for (const Node& n : nodes_) {
    w.write<double>(n.bounds.lo.x);
    w.write<double>(n.bounds.lo.y);
    w.write<double>(n.bounds.lo.z);
    w.write<double>(n.bounds.hi.x);
    w.write<double>(n.bounds.hi.y);
    w.write<double>(n.bounds.hi.z);
    w.write<std::int32_t>(n.left);
    w.write<std::int32_t>(n.right);
    w.write<std::uint32_t>(n.first);
    w.write<std::uint32_t>(n.count);
  }
  for (const std::int32_t fi : leaf_files_) w.write<std::int32_t>(fi);
}

BoxKdTree BoxKdTree::deserialize(BinaryReader& r,
                                 const std::vector<Box3>& boxes) {
  BoxKdTree t;
  t.boxes_ = boxes;
  const auto node_count = r.read<std::uint32_t>();
  const auto leaf_count = r.read<std::uint32_t>();
  SPIO_CHECK(leaf_count == boxes.size(), FormatError,
             "k-d footer indexes " << leaf_count << " files but metadata has "
                                   << boxes.size());
  SPIO_CHECK(node_count <= 2 * boxes.size() + 1, FormatError,
             "k-d footer claims " << node_count << " nodes for "
                                  << boxes.size() << " files");
  SPIO_CHECK((node_count == 0) == boxes.empty(), FormatError,
             "k-d footer node count inconsistent with the file table");
  t.nodes_.reserve(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    Node n;
    n.bounds.lo.x = r.read<double>();
    n.bounds.lo.y = r.read<double>();
    n.bounds.lo.z = r.read<double>();
    n.bounds.hi.x = r.read<double>();
    n.bounds.hi.y = r.read<double>();
    n.bounds.hi.z = r.read<double>();
    n.left = r.read<std::int32_t>();
    n.right = r.read<std::int32_t>();
    n.first = r.read<std::uint32_t>();
    n.count = r.read<std::uint32_t>();
    SPIO_CHECK(!n.bounds.is_empty(), FormatError,
               "k-d footer node " << i << " has an empty box");
    if (n.left >= 0 || n.right >= 0) {
      // Preorder: the left child directly follows its parent, the right
      // child follows the whole left subtree.
      SPIO_CHECK(n.left == static_cast<std::int32_t>(i) + 1 &&
                     n.right > n.left &&
                     static_cast<std::uint32_t>(n.right) < node_count,
                 FormatError,
                 "k-d footer node " << i << " has malformed child links");
      SPIO_CHECK(n.count == 0, FormatError,
                 "k-d footer node " << i << " is both leaf and internal");
    } else {
      SPIO_CHECK(n.count >= 1 &&
                     std::uint64_t{n.first} + n.count <= leaf_count,
                 FormatError,
                 "k-d footer node " << i << " has an invalid leaf range");
    }
    t.nodes_.push_back(n);
  }
  std::vector<bool> seen(boxes.size(), false);
  t.leaf_files_.reserve(leaf_count);
  for (std::uint32_t i = 0; i < leaf_count; ++i) {
    const auto fi = r.read<std::int32_t>();
    SPIO_CHECK(fi >= 0 && static_cast<std::size_t>(fi) < boxes.size() &&
                   !seen[static_cast<std::size_t>(fi)],
               FormatError,
               "k-d footer leaf table repeats or exceeds the file indices");
    seen[static_cast<std::size_t>(fi)] = true;
    t.leaf_files_.push_back(fi);
  }

  // Semantic validation: every recorded box must be the exact union of
  // its subtree's file boxes, or pruning would silently drop hits.
  if (!t.nodes_.empty()) {
    std::vector<bool> reached(t.nodes_.size(), false);
    const std::function<Box3(std::int32_t)> check =
        [&](std::int32_t id) -> Box3 {
      reached[static_cast<std::size_t>(id)] = true;
      const Node& n = t.nodes_[static_cast<std::size_t>(id)];
      Box3 merged = Box3::empty();
      if (n.is_leaf()) {
        for (std::uint32_t i = 0; i < n.count; ++i)
          merged.extend(
              boxes[static_cast<std::size_t>(t.leaf_files_[n.first + i])]);
      } else {
        merged.extend(check(n.left));
        merged.extend(check(n.right));
      }
      SPIO_CHECK(merged == n.bounds, FormatError,
                 "k-d footer node " << id
                                    << " box disagrees with its subtree");
      return merged;
    };
    check(0);
    for (std::size_t i = 0; i < t.nodes_.size(); ++i)
      SPIO_CHECK(reached[i], FormatError,
                 "k-d footer node " << i << " is unreachable from the root");
  }
  return t;
}

}  // namespace spio
