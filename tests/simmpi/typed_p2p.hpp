#pragma once

/// \file typed_p2p.hpp
/// Typed point-to-point for the simmpi tests. `Comm` moves byte payloads
/// only (the library frames its own messages); these two helpers pack and
/// unpack a vector of trivially-copyable values around it.

#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <vector>

#include "simmpi/comm.hpp"

namespace simmpi {

template <typename T>
void send_as(Comm& comm, int dst, int tag, const std::vector<T>& data) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(data.data());
  comm.send_bytes(dst, tag,
                  std::vector<std::byte>(p, p + data.size() * sizeof(T)));
}

template <typename T>
std::vector<T> recv_as(Comm& comm, int src, int tag,
                       int* actual_src = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  const Message m = comm.recv_message(src, tag);
  if (actual_src) *actual_src = m.src;
  EXPECT_EQ(m.payload.size() % sizeof(T), 0u);
  std::vector<T> out(m.payload.size() / sizeof(T));
  if (!out.empty())
    std::memcpy(out.data(), m.payload.data(), out.size() * sizeof(T));
  return out;
}

}  // namespace simmpi
