package cluster

import (
	"fmt"
	"strings"
)

// Peer names one cluster member and how to reach it: the corgi-stream
// address is the member's ring identity and the one transport forwards
// ride; the HTTP base URL (optional) is where peer store snapshots are
// fetched from, and what clients routing for themselves dial.
type Peer struct {
	// Name is the member's ring identity — the stream address, which every
	// node's flag list spells identically, so all rings agree.
	Name string
	// StreamAddr is the member's corgi-stream listener (host:port).
	StreamAddr string
	// HTTPURL is the member's HTTP base URL (e.g. http://host:8080); empty
	// disables peer store fetch from this member.
	HTTPURL string
}

// ParsePeers parses the -cluster-peers flag value: comma-separated
// entries of the form "streamAddr" or "streamAddr=httpURL". The full
// member list (including the local node's own entry) must be identical on
// every node — member names are hashed into the ring, so the list IS the
// cluster topology.
func ParsePeers(spec string) ([]Peer, error) {
	var peers []Peer
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p := Peer{}
		if i := strings.IndexByte(part, '='); i >= 0 {
			p.StreamAddr, p.HTTPURL = part[:i], strings.TrimSuffix(part[i+1:], "/")
		} else {
			p.StreamAddr = part
		}
		if p.StreamAddr == "" {
			return nil, fmt.Errorf("cluster: peer entry %q has empty stream address", part)
		}
		if p.HTTPURL != "" && !strings.Contains(p.HTTPURL, "://") {
			p.HTTPURL = "http://" + p.HTTPURL
		}
		p.Name = p.StreamAddr
		if seen[p.Name] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p.Name)
		}
		seen[p.Name] = true
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers in %q", spec)
	}
	return peers, nil
}

// RingOf builds the ring over a member list: what every node, and every
// client that routes for itself, derives from the one -cluster-peers value.
func RingOf(members []Peer) (*Ring, error) {
	names := make([]string, len(members))
	for i, p := range members {
		names[i] = p.Name
	}
	return NewRing(names, 0, 0)
}
