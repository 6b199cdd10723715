package fabric

import (
	"fmt"
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// scanPick is the reference round-robin arbiter: the first non-empty VOQ
// at or after rr, wrapping, found by a linear scan; -1 if all are empty.
func scanPick(o *swOut) int {
	n := len(o.voq)
	idx := o.rr
	if idx >= n {
		idx = 0
	}
	for i := 0; i < n; i++ {
		if !o.voq[idx].empty() {
			return idx
		}
		if idx++; idx == n {
			idx = 0
		}
	}
	return -1
}

// checkBusy fails unless o's occupancy bitmap mirrors its VOQs exactly.
func checkBusy(t *testing.T, o *swOut) {
	t.Helper()
	for i := range o.voq {
		if set := o.busy[i>>6]&(1<<(i&63)) != 0; set == o.voq[i].empty() {
			t.Fatalf("VOQ %d: busy bit %v with %d packets queued", i, set, o.voq[i].len())
		}
	}
	for i := len(o.voq); i < 64*len(o.busy); i++ {
		if o.busy[i>>6]&(1<<(i&63)) != 0 {
			t.Fatalf("busy bit %d set beyond the %d VOQs", i, len(o.voq))
		}
	}
}

// TestVOQArbiterMatchesScan drives random receive/dequeue sequences
// through a star switch's output, at port counts below, at and across
// the 64-bit word boundary, and checks that every bitmap pick is the
// input a linear round-robin scan from rr picks, that the bitmap tracks
// the VOQs, and that reset clears it.
func TestVOQArbiterMatchesScan(t *testing.T) {
	for _, n := range []int{3, 16, 64, 65, 130} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			net := New(sim.NewEngine(), topo.NewStar(n), testConfig())
			sw := net.switches[0]
			for _, o := range sw.out {
				o.port.pause() // keep kick from dequeuing: the test arbitrates
			}
			const dst = 1
			o := sw.out[sw.sets[sw.routes[dst]][0]]
			r := sim.NewRNG(uint64(n))
			psn := 0
			for step := 0; step < 20000; step++ {
				// Bias toward a few inputs so most VOQs stay empty and the
				// pick has gaps to skip, then drain back down now and then.
				if r.Intn(3) != 0 && step%2000 < 1500 {
					in := r.Intn(n)
					if r.Intn(2) == 0 {
						in = r.Intn(min(n, 4)) * (n / 4)
					}
					psn++
					sw.receive(packet.NewData(1, 0, dst, packet.PSN(psn), 100, false), in)
				} else {
					want := scanPick(o)
					var head *packet.Packet
					if want >= 0 {
						head = o.voq[want].peek()
					}
					if got := o.nextPacket(); got != head {
						t.Fatalf("step %d: dequeued %v, want head of VOQ %d (%v)", step, got, want, head)
					}
					if want >= 0 && o.rr != want+1 {
						t.Fatalf("step %d: rr = %d after serving VOQ %d", step, o.rr, want)
					}
				}
				checkBusy(t, o)
			}
			for i := 0; i < n; i++ {
				sw.receive(packet.NewData(1, 0, dst, 0, 100, false), i)
			}
			sw.reset()
			for i, w := range o.busy {
				if w != 0 {
					t.Fatalf("busy word %d = %#x after reset", i, w)
				}
			}
			if o.nextPacket() != nil {
				t.Fatal("reset switch still dequeues a packet")
			}
		})
	}
}

// BenchmarkSwitchForward is the fabric layer's per-hop microbenchmark:
// one packet through a k=16 fat-tree edge switch per iteration —
// receive (admission, route, ECN, VOQ push), round-robin arbitration and
// dequeue — against a standing backlog spread over every input and down
// port. The output ports are held paused so the benchmark drives
// arbitration itself; run it with -benchmem (0 allocs/op).
func BenchmarkSwitchForward(b *testing.B) {
	net := New(sim.NewEngine(), topo.NewFatTree(16), testConfig())
	var sw *Switch
	var hosts []packet.NodeID // hosts below sw, one per down port
	for _, s := range net.switches {
		for _, nb := range s.neighbors {
			if int(nb) < net.Topo.Hosts() {
				hosts = append(hosts, nb)
			}
		}
		if len(hosts) > 0 {
			sw = s
			break
		}
	}
	for _, o := range sw.out {
		o.port.pause()
	}
	ins := len(sw.in)
	// Backlog: four packets per down port, from inputs spread across the
	// switch.
	for i := 0; i < 4*len(hosts); i++ {
		dst := hosts[i%len(hosts)]
		sw.receive(packet.NewData(1, 0, dst, packet.PSN(i), 1000, false), (i*7)%ins)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := hosts[i%len(hosts)]
		pkt := sw.out[sw.sets[sw.routes[dst]][0]].nextPacket()
		pkt.Dst = dst
		sw.receive(pkt, (i*5)%ins)
	}
}
