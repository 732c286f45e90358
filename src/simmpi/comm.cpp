#include "simmpi/comm.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace simmpi {

namespace {

/// Transport metrics (naming scheme: docs/OBSERVABILITY.md). References
/// are resolved once; when observability is off, the call sites skip
/// them entirely behind the single `obs::enabled()` load.
struct TransportMetrics {
  spio::obs::Counter& msg_count;
  spio::obs::Counter& bytes_sent;
  spio::obs::Counter& recv_count;
  spio::obs::Counter& recv_wait_us;
  spio::obs::Counter& collectives;
  spio::obs::Counter& collective_wait_us;
  spio::obs::Histogram& msg_bytes;

  static TransportMetrics& get() {
    auto& reg = spio::obs::MetricsRegistry::global();
    static TransportMetrics m{reg.counter("simmpi.msg_count"),
                              reg.counter("simmpi.bytes_sent"),
                              reg.counter("simmpi.recv_count"),
                              reg.counter("simmpi.recv_wait_us"),
                              reg.counter("simmpi.collectives"),
                              reg.counter("simmpi.collective_wait_us"),
                              reg.histogram("simmpi.msg_bytes")};
    return m;
  }
};

}  // namespace

namespace detail {

CommState::CommState(int sz, std::shared_ptr<std::atomic<bool>> abort_flag)
    : size(sz),
      abort(std::move(abort_flag)),
      mailboxes(static_cast<std::size_t>(sz)),
      arena(sz, abort),
      delayed(static_cast<std::size_t>(sz)) {}

void CommState::interrupt_all() {
  for (auto& mb : mailboxes) mb.interrupt();
}

}  // namespace detail

void Comm::send_bytes(int dst, int tag, std::vector<std::byte> payload) {
  check_rank(dst);
  SPIO_EXPECTS(tag >= 0);
  // Always-on black box: the last sends before a failure show up in
  // postmortem bundles (a = destination, b = bytes, detail = tag low
  // byte) even with tracing off.
  spio::obs::flight_record(spio::obs::FlightType::kSend, "p2p",
                           static_cast<std::uint64_t>(dst), payload.size(),
                           static_cast<std::uint8_t>(tag & 0xff));
  if (spio::obs::enabled()) {
    auto& m = TransportMetrics::get();
    m.msg_count.add(1);
    m.bytes_sent.add(payload.size());
    m.msg_bytes.observe(payload.size());
  }

  if (st_->hooks) {
    switch (st_->hooks->on_send(rank_, dst, tag, payload.size())) {
      case SendAction::kDrop:
        return;
      case SendAction::kDelay:
        st_->delayed[static_cast<std::size_t>(rank_)].push_back(
            {dst, Message{rank_, tag, std::move(payload)}});
        return;
      case SendAction::kDuplicate:
        deliver(dst, Message{rank_, tag, payload});
        deliver(dst, Message{rank_, tag, std::move(payload)});
        flush_delayed();
        return;
      case SendAction::kDeliver:
        break;
    }
    deliver(dst, Message{rank_, tag, std::move(payload)});
    // Stashed messages arrive *after* this newer one: the observable
    // reordering a delay fault exists to produce.
    flush_delayed();
    return;
  }
  deliver(dst, Message{rank_, tag, std::move(payload)});
}

void Comm::deliver(int dst, Message&& m) {
  st_->mailboxes[static_cast<std::size_t>(dst)].deliver(std::move(m));
}

void Comm::flush_delayed() {
  auto& stash = st_->delayed[static_cast<std::size_t>(rank_)];
  for (auto& d : stash) deliver(d.dst, std::move(d.msg));
  stash.clear();
}

Message Comm::recv_message(int src, int tag) {
  SPIO_EXPECTS(src == kAnySource || (src >= 0 && src < size()));
  if (spio::obs::enabled()) {
    // Wait-time accounting: everything between entry and delivery is
    // time this rank spent blocked on the transport.
    const double t0 = spio::obs::now_us();
    Message m = st_->mailboxes[static_cast<std::size_t>(rank_)].receive(
        src, tag, *st_->abort);
    auto& tm = TransportMetrics::get();
    tm.recv_count.add(1);
    tm.recv_wait_us.add(
        static_cast<std::uint64_t>(spio::obs::now_us() - t0));
    spio::obs::flight_record(spio::obs::FlightType::kRecv, "p2p",
                             static_cast<std::uint64_t>(m.src),
                             m.payload.size(),
                             static_cast<std::uint8_t>(m.tag & 0xff));
    return m;
  }
  Message m = st_->mailboxes[static_cast<std::size_t>(rank_)].receive(
      src, tag, *st_->abort);
  spio::obs::flight_record(spio::obs::FlightType::kRecv, "p2p",
                           static_cast<std::uint64_t>(m.src),
                           m.payload.size(),
                           static_cast<std::uint8_t>(m.tag & 0xff));
  return m;
}

bool Comm::iprobe(int src, int tag, int* out_src, std::size_t* out_bytes) {
  return st_->mailboxes[static_cast<std::size_t>(rank_)].probe(
      src, tag, out_src, nullptr, out_bytes);
}

void Comm::barrier() {
  collective({}, nullptr);
}

void Comm::collective(std::vector<std::byte> contribution,
                      const CollectiveArena::Reader& reader) {
  // A collective is a delivery horizon for delayed messages: everything
  // stashed must be visible to peers that synchronize with us here.
  if (st_->hooks) flush_delayed();
  if (spio::obs::enabled()) {
    const double t0 = spio::obs::now_us();
    st_->arena.run(rank_, round_++, std::move(contribution), reader);
    auto& tm = TransportMetrics::get();
    tm.collectives.add(1);
    tm.collective_wait_us.add(
        static_cast<std::uint64_t>(spio::obs::now_us() - t0));
    return;
  }
  st_->arena.run(rank_, round_++, std::move(contribution), reader);
}

}  // namespace simmpi
