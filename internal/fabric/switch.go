package fabric

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// Switch is an input-queued switch with virtual output queues (one FIFO
// per input at every output) scheduled round-robin, per-input-port buffer
// accounting, optional PFC generation, and RED/ECN marking — the switch
// model of §4.1.
type Switch struct {
	id   packet.NodeID
	net  *Network
	part *partition // the shard slice this switch belongs to
	rng  *sim.RNG   // per-switch ECN marking stream

	neighbors []packet.NodeID // port index → neighbor node
	in        []inState       // per input port
	out       []*swOut        // per output port
	salt      uint64          // per-switch ECMP salt
	sprayCtr  uint64          // per-packet path counter (Spray mode)
	shared    int             // shared-buffer occupancy (SharedBuffer mode)

	// Forwarding state. A switch has only a handful of distinct
	// candidate-port lists — a fat-tree edge or aggregation switch k/2+1
	// (one per down port plus the shared up set), a core switch k — so
	// each distinct list is stored once in sets, and routes maps every
	// destination host to its list's index.
	sets   [][]int // interned candidate output ports, in ECMP order
	routes []int32 // dst host → index into sets
}

type inState struct {
	bytes  int  // buffered bytes received on this port, across all VOQs
	paused bool // X-OFF currently asserted upstream
}

type swOut struct {
	sw     *Switch
	port   outPort
	voq    []pktQueue // per input port
	busy   []uint64   // bit i set iff voq[i] is non-empty
	rr     int
	queued int // total bytes queued at this output (for ECN marking)
}

// newSwitch wires a switch shell; ports are attached by the Network.
func newSwitch(id packet.NodeID, net *Network, part *partition) *Switch {
	return &Switch{
		id:   id,
		net:  net,
		part: part,
		rng:  ecnRNG(net.Cfg.Seed, id),
		salt: mix64(uint64(id) + 0x5151_7eb5_c0de),
	}
}

// addPort registers a neighbor and returns the new port index.
func (s *Switch) addPort(neighbor packet.NodeID) int {
	idx := len(s.neighbors)
	s.neighbors = append(s.neighbors, neighbor)
	s.in = append(s.in, inState{})
	o := &swOut{sw: s}
	s.out = append(s.out, o)
	return idx
}

// routeScratch is the working memory finalize reuses across every switch
// of one fabric build, so building the forwarding state allocates only
// the state itself.
type routeScratch struct {
	portOf []int32         // node → port index at the switch being finalized; -1 elsewhere
	hops   []packet.NodeID // one destination's next hops
	ports  []int           // the same hops as port indexes
}

func newRouteScratch(nodes int) *routeScratch {
	rs := &routeScratch{portOf: make([]int32, nodes)}
	for i := range rs.portOf {
		rs.portOf[i] = -1
	}
	return rs
}

// finalize sizes the VOQ matrices and builds the routing table once all
// ports exist: each destination's next hops, mapped to port indexes in
// the topology's ECMP order, are interned into sets.
func (s *Switch) finalize(rs *routeScratch) {
	n := len(s.neighbors)
	words := (n + 63) / 64
	busy := make([]uint64, words*n) // one array for every output's bitmap
	for i, o := range s.out {
		o.voq = make([]pktQueue, n)
		o.busy = busy[i*words : (i+1)*words : (i+1)*words]
	}
	for i, nb := range s.neighbors {
		rs.portOf[nb] = int32(i)
	}
	hosts := s.net.Topo.Hosts()
	s.routes = make([]int32, hosts)
	cur := -1 // the previous destination's set: runs of hosts share one
	for dst := 0; dst < hosts; dst++ {
		rs.hops = s.net.Topo.AppendNextHops(rs.hops[:0], s.id, packet.NodeID(dst))
		rs.ports = rs.ports[:0]
		for _, h := range rs.hops {
			p := rs.portOf[h]
			if p < 0 {
				panic(fmt.Sprintf("fabric: next hop %d of switch %d toward %d is not a neighbor", h, s.id, dst))
			}
			rs.ports = append(rs.ports, int(p))
		}
		if cur < 0 || !slices.Equal(s.sets[cur], rs.ports) {
			cur = s.internSet(rs.ports)
		}
		s.routes[dst] = int32(cur)
	}
	for _, nb := range s.neighbors {
		rs.portOf[nb] = -1
	}
}

// internSet returns the index of ports in sets, adding a copy if absent.
func (s *Switch) internSet(ports []int) int {
	for i, set := range s.sets {
		if slices.Equal(set, ports) {
			return i
		}
	}
	s.sets = append(s.sets, slices.Clone(ports))
	return len(s.sets) - 1
}

// reset returns the switch to its just-built state for a new run: empty
// VOQs, zeroed buffer accounting, PFC deasserted, round-robin pointers and
// the spray counter at their initial positions. Structural state (ports,
// routes, the ECMP salt) is topology-derived and survives.
func (s *Switch) reset() {
	for i := range s.in {
		s.in[i] = inState{}
	}
	for _, o := range s.out {
		o.rr, o.queued = 0, 0
		for i := range o.voq {
			o.voq[i].reset()
		}
		clear(o.busy)
		o.port.reset()
	}
	s.sprayCtr = 0
	s.shared = 0
}

// receive handles a packet arriving on input port inIdx.
func (s *Switch) receive(pkt *packet.Packet, inIdx int) {
	cfg := &s.net.Cfg

	// Injected losses (tests, failure-injection experiments). A drop is
	// a packet death: the packet returns to the pool right here.
	if cfg.LossInject != nil && cfg.LossInject(pkt) {
		s.part.stats.Drops++
		s.part.census.InjectDrops++
		s.part.pool.Release(pkt)
		return
	}

	// Drop-tail on a full buffer. With PFC configured correctly this
	// should not trigger; without PFC it is the loss the transports
	// must recover from. In shared-buffer mode the pool spans all input
	// ports (total = ports × BufferBytes).
	if cfg.SharedBuffer {
		if s.shared+pkt.Wire > cfg.BufferBytes*len(s.in) {
			s.part.stats.Drops++
			s.part.census.OverflowDrops++
			s.part.pool.Release(pkt)
			return
		}
	} else if s.in[inIdx].bytes+pkt.Wire > cfg.BufferBytes {
		s.part.stats.Drops++
		s.part.census.OverflowDrops++
		s.part.pool.Release(pkt)
		return
	}

	outIdx := s.pickOutput(pkt)
	o := s.out[outIdx]

	// RED/ECN marking against this output's backlog.
	if cfg.ECN.Enabled && pkt.ECT && !pkt.CE && s.markECN(o.queued) {
		pkt.CE = true
		s.part.stats.ECNMarked++
	}

	o.voq[inIdx].push(pkt)
	o.busy[inIdx>>6] |= 1 << (inIdx & 63)
	o.queued += pkt.Wire
	s.in[inIdx].bytes += pkt.Wire
	s.shared += pkt.Wire

	// PFC: assert X-OFF upstream when this input crosses the threshold.
	if cfg.PFC && !s.in[inIdx].paused && s.in[inIdx].bytes > cfg.PFCThreshold() {
		s.in[inIdx].paused = true
		s.part.stats.PauseFrames++
		s.net.sendPFC(s, inIdx, true)
	}

	o.port.kick()
}

// pickOutput chooses the output port for pkt: flow-hash ECMP by default,
// or an independent per-packet choice in spray mode. Next-hop selection
// honors link state: output ports whose link is down are skipped while an
// equal-cost alternative is up (the routing reconvergence a real fabric
// performs, collapsed to instantaneous). If every choice is down the
// hashed pick stands — the packet queues at the dead port and its loss is
// recovered like any other.
func (s *Switch) pickOutput(pkt *packet.Packet) int {
	ports := s.sets[s.routes[pkt.Dst]]
	if len(ports) == 1 {
		return ports[0]
	}
	h := uint64(pkt.Hash)
	if s.net.Cfg.Spray {
		s.sprayCtr++
		h ^= s.sprayCtr * 0x9e3779b97f4a7c15
	}
	hv := mix64(h ^ s.salt)
	if s.part.downPorts > 0 {
		up := 0
		for _, p := range ports {
			if !s.out[p].port.down {
				up++
			}
		}
		if up > 0 && up < len(ports) {
			k := int(hv % uint64(up))
			for _, p := range ports {
				if !s.out[p].port.down {
					if k == 0 {
						return p
					}
					k--
				}
			}
		}
	}
	return ports[hv%uint64(len(ports))]
}

// nextPacket is the output port's source callback: round-robin over the
// input VOQs feeding this output, starting at rr.
func (o *swOut) nextPacket() *packet.Packet {
	idx := o.nextBusy()
	if idx < 0 {
		return nil
	}
	q := &o.voq[idx]
	pkt := q.pop()
	if q.empty() {
		o.busy[idx>>6] &^= 1 << (idx & 63)
	}
	o.rr = idx + 1
	o.queued -= pkt.Wire
	o.sw.dequeued(idx, pkt)
	return pkt
}

// nextBusy returns the first non-empty VOQ at or after rr, wrapping, or
// -1 if all are empty: the input a linear scan of the queues from rr
// would pick, found in a few bitmap word reads instead of a pop attempt
// on every empty queue in between.
func (o *swOut) nextBusy() int {
	start := o.rr
	if start >= len(o.voq) {
		start = 0
	}
	w := start >> 6
	if m := o.busy[w] &^ (1<<(start&63) - 1); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	// Past the start word, then wrapped; the wrapped visit of the start
	// word itself can only find bits below start.
	for i := w + 1; i < len(o.busy); i++ {
		if m := o.busy[i]; m != 0 {
			return i<<6 | bits.TrailingZeros64(m)
		}
	}
	for i := 0; i <= w; i++ {
		if m := o.busy[i]; m != 0 {
			return i<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// dequeued updates input accounting after a packet leaves input inIdx's
// buffer, releasing PFC if the buffer drained far enough.
func (s *Switch) dequeued(inIdx int, pkt *packet.Packet) {
	s.in[inIdx].bytes -= pkt.Wire
	s.shared -= pkt.Wire
	cfg := &s.net.Cfg
	if cfg.PFC && s.in[inIdx].paused &&
		s.in[inIdx].bytes <= cfg.PFCThreshold()-cfg.PFCHysteresis {
		s.in[inIdx].paused = false
		s.part.stats.ResumeFrames++
		s.net.sendPFC(s, inIdx, false)
	}
}

// pfcFrame handles an X-OFF/X-ON received on port idx from the downstream
// neighbor: it pauses or resumes this switch's output port on that link.
func (s *Switch) pfcFrame(idx int, pause bool) {
	o := s.out[idx]
	if pause {
		o.port.pause()
	} else {
		o.port.resume()
	}
}

// markECN samples the RED marking decision for an egress backlog of
// queued bytes, against this switch's own deterministic RNG stream.
func (s *Switch) markECN(queued int) bool {
	e := &s.net.Cfg.ECN
	if queued <= e.KMin {
		return false
	}
	if queued >= e.KMax {
		return true
	}
	p := e.PMax * float64(queued-e.KMin) / float64(e.KMax-e.KMin)
	return s.rng.Float64() < p
}

// queuedBytes reports the total bytes buffered at the switch (all inputs).
func (s *Switch) queuedBytes() int {
	total := 0
	for i := range s.in {
		total += s.in[i].bytes
	}
	return total
}

// mix64 is splitmix64's finalizer, used for ECMP hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
