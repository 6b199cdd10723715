package topo

import (
	"fmt"

	"github.com/irnsim/irn/internal/packet"
)

// Star is N hosts attached to a single switch — the minimal fabric for
// incast unit tests and transport development.
type Star struct {
	N int
}

// NewStar returns a star topology with n hosts (IDs 0..n-1) and one
// switch (ID n).
func NewStar(n int) *Star {
	if n < 2 {
		panic("topo: star needs at least 2 hosts")
	}
	return &Star{N: n}
}

// Hosts implements Topology.
func (s *Star) Hosts() int { return s.N }

func (s *Star) swID() packet.NodeID { return packet.NodeID(s.N) }

// Nodes implements Topology.
func (s *Star) Nodes() []Node {
	nodes := make([]Node, 0, s.N+1)
	for h := 0; h < s.N; h++ {
		nodes = append(nodes, Node{ID: packet.NodeID(h), Kind: Host, Pod: 0, Idx: h})
	}
	nodes = append(nodes, Node{ID: s.swID(), Kind: EdgeSwitch, Pod: 0, Idx: 0})
	return nodes
}

// Links implements Topology.
func (s *Star) Links() []Link {
	links := make([]Link, 0, s.N)
	for h := 0; h < s.N; h++ {
		links = append(links, Link{A: packet.NodeID(h), B: s.swID()})
	}
	return links
}

// AppendNextHops implements Topology.
func (s *Star) AppendNextHops(buf []packet.NodeID, from, dst packet.NodeID) []packet.NodeID {
	if from == s.swID() {
		return append(buf, dst)
	}
	return append(buf, s.swID())
}

// LongestPathHops implements Topology.
func (s *Star) LongestPathHops() int { return 2 }

// PathHops implements Topology.
func (s *Star) PathHops(src, dst packet.NodeID) int {
	if src == dst {
		return 0
	}
	return 2
}

var _ Topology = (*Star)(nil)

// Dumbbell is two switches joined by one (bottleneck) link, with half the
// hosts on each side. It produces the classic shared-bottleneck scenarios
// used in PFC head-of-line-blocking unit tests.
type Dumbbell struct {
	PerSide int
}

// NewDumbbell returns a dumbbell with n hosts on each side. Host IDs
// [0, n) sit on the left switch (ID 2n), hosts [n, 2n) on the right
// (ID 2n+1).
func NewDumbbell(n int) *Dumbbell {
	if n < 1 {
		panic("topo: dumbbell needs at least 1 host per side")
	}
	return &Dumbbell{PerSide: n}
}

// Hosts implements Topology.
func (d *Dumbbell) Hosts() int { return 2 * d.PerSide }

func (d *Dumbbell) left() packet.NodeID  { return packet.NodeID(2 * d.PerSide) }
func (d *Dumbbell) right() packet.NodeID { return packet.NodeID(2*d.PerSide + 1) }

// Nodes implements Topology.
func (d *Dumbbell) Nodes() []Node {
	nodes := make([]Node, 0, 2*d.PerSide+2)
	for h := 0; h < 2*d.PerSide; h++ {
		nodes = append(nodes, Node{ID: packet.NodeID(h), Kind: Host, Pod: h / d.PerSide, Idx: h})
	}
	nodes = append(nodes,
		Node{ID: d.left(), Kind: EdgeSwitch, Pod: 0, Idx: 0},
		Node{ID: d.right(), Kind: EdgeSwitch, Pod: 1, Idx: 1},
	)
	return nodes
}

// Links implements Topology.
func (d *Dumbbell) Links() []Link {
	links := make([]Link, 0, 2*d.PerSide+1)
	for h := 0; h < d.PerSide; h++ {
		links = append(links, Link{A: packet.NodeID(h), B: d.left()})
	}
	for h := d.PerSide; h < 2*d.PerSide; h++ {
		links = append(links, Link{A: packet.NodeID(h), B: d.right()})
	}
	links = append(links, Link{A: d.left(), B: d.right()})
	return links
}

// AppendNextHops implements Topology.
func (d *Dumbbell) AppendNextHops(buf []packet.NodeID, from, dst packet.NodeID) []packet.NodeID {
	dstLeft := int(dst) < d.PerSide
	switch from {
	case d.left():
		if dstLeft {
			return append(buf, dst)
		}
		return append(buf, d.right())
	case d.right():
		if dstLeft {
			return append(buf, d.left())
		}
		return append(buf, dst)
	default:
		if int(from) < d.PerSide {
			return append(buf, d.left())
		}
		return append(buf, d.right())
	}
}

// LongestPathHops implements Topology.
func (d *Dumbbell) LongestPathHops() int { return 3 }

// PathHops implements Topology.
func (d *Dumbbell) PathHops(src, dst packet.NodeID) int {
	if src == dst {
		return 0
	}
	if (int(src) < d.PerSide) == (int(dst) < d.PerSide) {
		return 2
	}
	return 3
}

var _ Topology = (*Dumbbell)(nil)

// Validate sanity-checks a topology: every host reaches every other host
// by following AppendNextHops, within a bounded hop count. It returns an
// error describing the first routing loop or dead end found. Tests use it
// for every topology size the experiments touch.
func Validate(t Topology) error {
	hosts := t.Hosts()
	maxHops := t.LongestPathHops() + 2
	var hops []packet.NodeID
	for src := 0; src < hosts; src++ {
		for dst := 0; dst < hosts; dst++ {
			if src == dst {
				continue
			}
			cur := packet.NodeID(src)
			for hop := 0; ; hop++ {
				if cur == packet.NodeID(dst) {
					break
				}
				if hop > maxHops {
					return fmt.Errorf("topo: no route %d→%d within %d hops", src, dst, maxHops)
				}
				hops = t.AppendNextHops(hops[:0], cur, packet.NodeID(dst))
				if len(hops) == 0 {
					return fmt.Errorf("topo: dead end at %d for %d→%d", cur, src, dst)
				}
				// Always take the first choice: if any single consistent
				// choice loops, ECMP would loop too.
				cur = hops[0]
			}
		}
	}
	return nil
}
