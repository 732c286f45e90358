#pragma once

/// \file reduce_ops.hpp
/// Common reduction functors for `Comm::allreduce`, mirroring the
/// predefined MPI_Op set.

#include <algorithm>

namespace simmpi::op {

/// MPI_SUM
struct Sum {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};

/// MPI_MIN
struct Min {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return std::min(a, b);
  }
};

/// MPI_MAX
struct Max {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return std::max(a, b);
  }
};

/// MPI_LOR
struct LogicalOr {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a || b;
  }
};

/// MPI_LAND
struct LogicalAnd {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a && b;
  }
};

inline constexpr Sum sum{};
inline constexpr Min min{};
inline constexpr Max max{};
inline constexpr LogicalOr logical_or{};
inline constexpr LogicalAnd logical_and{};

}  // namespace simmpi::op
