// A non-IP forwarding paradigm, as the paper promises is possible:
//
//   "Our design has no fundamental dependence on IP ... One could
//    implement a new addressing scheme in IIAS, for instance based on
//    DHTs, simply by writing new forwarding and encapsulation table
//    elements."  (Section 4.2.1)
//
// FlatLabelRoute is exactly that pair of elements fused: packets carry a
// 64-bit flat identifier (a DHT key) in their annotation area; the
// element greedily forwards toward the peer whose label is the key's
// successor on the 2^64 ring (Chord-style), mapping the chosen peer
// straight to its UDP tunnel endpoint.  IP headers are ignored entirely
// for the routing decision.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "click/element.h"

namespace vini::click {

class FlatLabelRoute final : public Element {
 public:
  explicit FlatLabelRoute(std::uint64_t own_label) : own_label_(own_label) {}
  std::string className() const override { return "FlatLabelRoute"; }

  /// Register a peer virtual node: its ring label and the underlay
  /// tunnel endpoint that reaches it.
  void addPeer(std::uint64_t label, packet::IpAddress node_addr,
               std::uint16_t port);
  bool removePeer(std::uint64_t label);

  /// The key is carried in meta.flow_id.  Output 0: toward a tunnel
  /// (encap annotations set); output 1: this node owns the key.
  void push(int input_port, packet::Packet&& p) override;

  /// The label that owns `key` from this node's view (itself or a peer).
  std::uint64_t ownerOf(std::uint64_t key) const;

  std::uint64_t ownLabel() const { return own_label_; }
  std::size_t peerCount() const { return peers_.size(); }

 private:
  struct Peer {
    packet::IpAddress node;
    std::uint16_t port = 0;
  };

  std::uint64_t own_label_;
  std::map<std::uint64_t, Peer> peers_;
};

}  // namespace vini::click
