#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace mot3d::noc {

NocNetwork::NocNetwork(const NocConfig& cfg)
    : cfg_(cfg), endpoints_(cfg.num_endpoints()), busy_nis_(cfg.num_endpoints()) {}

std::uint32_t NocNetwork::add_router(std::size_t num_ports) {
  // Input sets are 32-bit masks (OutPort::head_req).
  if (num_ports > 32) throw std::invalid_argument("router has more than 32 ports");
  Router r;
  r.in.resize(num_ports);
  r.out.resize(num_ports);
  r.route.assign(cfg_.num_endpoints(), 0);
  routers_.push_back(std::move(r));
  busy_routers_.resize(routers_.size());
  return static_cast<std::uint32_t>(routers_.size() - 1);
}

void NocNetwork::set_output(std::uint32_t router, std::uint32_t port, Target target) {
  routers_.at(router).out.at(port).target = target;
  if (target.kind == Target::Kind::kRouterPort) total_link_mm_ += target.wire_mm;
}

std::uint32_t NocNetwork::add_bus(double wire_mm, unsigned cycles_per_flit) {
  Bus b;
  b.wire_mm = wire_mm;
  b.cycles_per_flit = cycles_per_flit == 0 ? 1 : cycles_per_flit;
  b.route.assign(cfg_.num_endpoints(), Target{});
  buses_.push_back(std::move(b));
  busy_buses_.resize(buses_.size());
  return static_cast<std::uint32_t>(buses_.size() - 1);
}

std::uint32_t NocNetwork::add_bus_attachment(std::uint32_t bus) {
  Bus& b = buses_.at(bus);
  b.slots.emplace_back();
  return static_cast<std::uint32_t>(b.slots.size() - 1);
}

void NocNetwork::set_bus_route(std::uint32_t bus, NodeId e, Target target) {
  buses_.at(bus).route.at(e) = target;
}

void NocNetwork::set_endpoint_injection(NodeId e, Target target,
                                        std::optional<std::uint32_t> bus_slot) {
  endpoints_.at(e).injection = target;
  endpoints_.at(e).bus_slot = bus_slot;
}

void NocNetwork::set_route(std::uint32_t router, NodeId dst, std::uint32_t out_port) {
  routers_.at(router).route.at(dst) = out_port;
}

void NocNetwork::set_router_throttle(std::uint32_t router, unsigned extra_cycles) {
  routers_.at(router).throttle += extra_cycles;
}

bool NocNetwork::try_inject(const Packet& p, Cycle now) {
  EndpointNi& ni = endpoints_.at(p.src);
  if (p.dst >= endpoints_.size()) throw std::out_of_range("packet to a non-endpoint");
  if (ni.inject_q.size() + p.length_flits > EndpointNi::kMaxInjectQ) return false;
  packets_.emplace(p.id, p);
  if (p.length_flits > 0) busy_nis_.set(p.src);
  for (std::size_t f = 0; f < p.length_flits; ++f) {
    Flit flit;
    flit.packet = p.id;
    flit.dst = p.dst;
    flit.head = (f == 0);
    flit.tail = (f + 1 == p.length_flits);
    flit.vc = p.kind == PacketKind::kRequest ? kRequestVc : kResponseVc;
    flit.ready_at = now;
    ni.inject_q.push_back(flit);
  }
  return true;
}

void NocNetwork::note_front(Router& r, std::uint32_t port, const Flit& front) {
  if (!front.head) return;  // body flits follow their packet's lock
  const std::uint32_t po = r.route[front.dst];
  r.in[port].head_out[front.vc] = static_cast<std::uint8_t>(po);
  r.out[po].head_req[front.vc] |= std::uint32_t{1} << port;
}

bool NocNetwork::router_push(std::uint32_t ri, std::uint32_t port, Flit flit,
                             Cycle ready_at) {
  Router& r = routers_[ri];
  RingBuffer<Flit>& q = r.in[port].q[flit.vc];
  if (q.size() >= cfg_.buffer_flits) return false;
  flit.ready_at = ready_at;
  if (q.empty()) note_front(r, port, flit);
  q.push_back(flit);
  if (r.flits++ == 0) busy_routers_.set(ri);
  return true;
}

void NocNetwork::router_pop(std::uint32_t ri, std::uint32_t port, std::uint8_t vc) {
  Router& r = routers_[ri];
  InPort& ip = r.in[port];
  if (ip.q[vc].front().head) {
    r.out[ip.head_out[vc]].head_req[vc] &= ~(std::uint32_t{1} << port);
  }
  ip.q[vc].pop_front();
  if (!ip.q[vc].empty()) note_front(r, port, ip.q[vc].front());
  if (--r.flits == 0) busy_routers_.reset(ri);
}

bool NocNetwork::bus_push(std::uint32_t bi, std::uint32_t slot, Flit flit,
                          Cycle ready_at) {
  Bus& bus = buses_[bi];
  RingBuffer<Flit>& q = bus.slots[slot];
  if (q.size() >= cfg_.buffer_flits) return false;
  flit.ready_at = ready_at;
  q.push_back(flit);
  if (bus.flits++ == 0) busy_buses_.set(bi);
  return true;
}

void NocNetwork::eject(const Flit& flit, Cycle now) {
  if (!flit.tail) return;
  auto it = packets_.find(flit.packet);
  assert(it != packets_.end());
  stats_.packet_latency.add(now - it->second.created);
  ++stats_.packets_delivered;
  if (delivery_) delivery_(it->second, now);
  packets_.erase(it);
}

bool NocNetwork::deliver_to_target(const Target& t, const Flit& flit, Cycle now) {
  switch (t.kind) {
    case Target::Kind::kRouterPort:
      if (!router_push(t.index, t.port, flit,
                       now + cfg_.link_cycles + cfg_.router_pipeline_cycles)) {
        return false;
      }
      stats_.flit_link_mm += t.wire_mm;
      return true;
    case Target::Kind::kEndpoint:
      eject(flit, now);
      stats_.flit_link_mm += t.wire_mm;
      return true;
    case Target::Kind::kBus:
      return bus_push(t.index, t.port, flit, now + 1);  // bus request/arbitration setup
    case Target::Kind::kNone:
      break;
  }
  assert(false && "flit sent into an unwired target");
  return false;
}

bool NocNetwork::router_output_step(std::uint32_t ri, std::uint32_t po,
                                    std::uint8_t vc, Cycle now) {
  Router& r = routers_[ri];
  OutPort& op = r.out[po];

  int chosen = -1;
  if (op.locked_in[vc] >= 0) {
    // Wormhole: within this virtual network only the owning input sends.
    const RingBuffer<Flit>& q = r.in[static_cast<std::size_t>(op.locked_in[vc])].q[vc];
    if (!q.empty() && q.front().ready_at <= now) chosen = op.locked_in[vc];
  } else {
    // Round-robin from `rr` over the inputs whose front is a head routed
    // here: requesters at or above rr ascending, then those below it.
    const std::uint32_t req = op.head_req[vc];
    const std::uint32_t from_rr = req & (~std::uint32_t{0} << op.rr);
    for (std::uint32_t bits : {from_rr, req & ~from_rr}) {
      for (; bits != 0 && chosen < 0; bits &= bits - 1) {
        const int pi = std::countr_zero(bits);
        if (r.in[static_cast<std::size_t>(pi)].q[vc].front().ready_at <= now) chosen = pi;
      }
    }
  }
  if (chosen < 0) return false;

  const auto pi = static_cast<std::uint32_t>(chosen);
  const Flit flit = r.in[pi].q[vc].front();
  if (!deliver_to_target(op.target, flit, now)) return false;  // back-pressure
  router_pop(ri, pi, vc);
  ++stats_.flit_router_traversals;
  if (flit.head && !flit.tail) {
    op.locked_in[vc] = chosen;
  } else if (flit.tail) {
    op.locked_in[vc] = -1;
    op.rr = (pi + 1) % static_cast<std::uint32_t>(r.in.size());
  }
  return true;
}

void NocNetwork::bus_step(std::uint32_t bi, Cycle now) {
  // One flit per bus per slot time, wormhole-locked to the granted slot so
  // multi-flit packets stay contiguous at the receiving router.  The lock
  // is *hard*: even if the owning slot has no flit ready this cycle, no
  // other slot may use the bus — otherwise two packets interleave into one
  // router input queue and break worm framing.
  Bus& bus = buses_[bi];
  if (bus.busy_until > now) return;
  const std::size_t n = bus.slots.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t s = bus.locked_slot >= 0
                              ? static_cast<std::size_t>(bus.locked_slot)
                              : (bus.rr + k) % n;
    RingBuffer<Flit>& slot = bus.slots[s];
    if (bus.locked_slot < 0 &&
        (slot.empty() || slot.front().ready_at > now || !slot.front().head)) {
      continue;  // unlocked bus only grants a fresh head flit
    }
    if (slot.empty() || slot.front().ready_at > now) break;  // hold bus
    const Flit moving = slot.front();
    if (!deliver_to_target(bus.route[moving.dst], moving, now)) break;  // hold
    slot.pop_front();
    if (--bus.flits == 0) busy_buses_.reset(bi);
    ++stats_.flit_bus_transfers;
    bus.busy_until = now + bus.cycles_per_flit;
    if (moving.tail) {
      bus.locked_slot = -1;
      bus.rr = static_cast<std::uint32_t>((s + 1) % n);
    } else {
      bus.locked_slot = static_cast<int>(s);
    }
    break;  // one transfer per bus per slot time
  }
}

void NocNetwork::router_step(std::uint32_t ri, Cycle now) {
  // Every output port moves at most one flit per cycle, alternating fairly
  // between the two virtual networks (requests may never starve
  // responses, and vice versa).  A fault-throttled router is serialised:
  // at most one flit total per window, then it pauses `throttle` cycles
  // (degraded link retrains every transfer).
  Router& r = routers_[ri];
  if (r.throttle > 0 && r.busy_until > now) return;
  bool moved = false;
  for (std::uint32_t po = 0; po < r.out.size(); ++po) {
    OutPort& op = r.out[po];
    if (op.target.kind == Target::Kind::kNone || op.idle()) continue;
    const std::uint8_t first = op.vc_rr;
    for (std::uint8_t i = 0; i < kNumVcs; ++i) {
      const auto vc = static_cast<std::uint8_t>((first + i) % kNumVcs);
      if (router_output_step(ri, po, vc, now)) {
        op.vc_rr = static_cast<std::uint8_t>((vc + 1) % kNumVcs);
        moved = true;
        break;
      }
    }
    if (moved && r.throttle > 0) break;  // serialised crossbar
  }
  if (moved && r.throttle > 0) r.busy_until = now + 1 + r.throttle;
}

void NocNetwork::tick(Cycle now) {
  // Buses, then routers, then NIs, each walked ascending over the
  // components that hold flits.  Skipping an empty one is exactly the
  // dense walk's no-op, and a flit pushed into a component later in the
  // same phase raises its bit above the cursor, which still visits it.
  busy_buses_.for_each([&](std::size_t bi) { bus_step(static_cast<std::uint32_t>(bi), now); });
  busy_routers_.for_each(
      [&](std::size_t ri) { router_step(static_cast<std::uint32_t>(ri), now); });

  // Endpoint NIs: one flit per cycle enters the fabric.
  busy_nis_.for_each([&](std::size_t e) {
    EndpointNi& ni = endpoints_[e];
    const Flit& flit = ni.inject_q.front();
    if (flit.ready_at > now) return;
    const Target& t = ni.injection;
    bool entered = false;
    if (t.kind == Target::Kind::kRouterPort) {
      entered = router_push(t.index, t.port, flit, now + cfg_.router_pipeline_cycles);
    } else if (t.kind == Target::Kind::kBus) {
      entered = bus_push(t.index, *ni.bus_slot, flit, now + 1);
    } else {
      assert(false && "endpoint without injection wiring");
    }
    if (!entered) return;
    ni.inject_q.pop_front();
    if (ni.inject_q.empty()) busy_nis_.reset(e);
  });
}

bool NocNetwork::idle() const { return packets_.empty(); }

Cycle NocNetwork::next_event(Cycle now) const {
  if (packets_.empty()) return kNeverCycle;
  Cycle next = kNeverCycle;
  // Every queued flit sits at the head of exactly one FIFO (NI inject
  // queue, bus slot, or router input buffer); only heads can move, so the
  // earliest head ready_at bounds the next state change.  A head that is
  // already ready may still be blocked by back-pressure or wormhole locks,
  // which this bound conservatively reports as "event now".  Only the
  // occupied components hold heads.
  constexpr std::size_t npos = WordBitset::npos;
  for (std::size_t e = busy_nis_.next(0); e != npos; e = busy_nis_.next(e + 1)) {
    const Cycle ready = endpoints_[e].inject_q.front().ready_at;
    if (ready <= now) return now;
    next = std::min(next, ready);
  }
  for (std::size_t bi = busy_buses_.next(0); bi != npos; bi = busy_buses_.next(bi + 1)) {
    const Bus& bus = buses_[bi];
    for (const RingBuffer<Flit>& slot : bus.slots) {
      if (slot.empty()) continue;
      const Cycle ready = std::max(slot.front().ready_at, bus.busy_until);
      if (ready <= now) return now;
      next = std::min(next, ready);
    }
  }
  for (std::size_t ri = busy_routers_.next(0); ri != npos; ri = busy_routers_.next(ri + 1)) {
    const Router& r = routers_[ri];
    for (const InPort& ip : r.in) {
      for (const RingBuffer<Flit>& q : ip.q) {
        if (q.empty()) continue;
        Cycle ready = q.front().ready_at;
        if (r.throttle > 0) ready = std::max(ready, r.busy_until);
        if (ready <= now) return now;
        next = std::min(next, ready);
      }
    }
  }
  return next;
}

}  // namespace mot3d::noc
