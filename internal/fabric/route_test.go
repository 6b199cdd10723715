package fabric

import (
	"fmt"
	"slices"
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// TestRouteSetsMatchNextHops is the routing differential test for the
// interned forwarding state: on every switch, for every destination host,
// the interned candidate-port list must equal the direct construction —
// the topology's next hops mapped through the switch's neighbor table to
// port indexes, in order. Order matters: pickOutput hashes over it, so
// any permutation would move flows to other paths. On fat-trees it also
// pins the interning itself: an edge or aggregation switch holds exactly
// k/2+1 distinct lists (one per down port plus the shared up set) and a
// core switch exactly k (one down port per pod).
func TestRouteSetsMatchNextHops(t *testing.T) {
	topos := map[string]topo.Topology{"star5": topo.NewStar(5), "dumbbell3": topo.NewDumbbell(3)}
	for _, k := range []int{2, 4, 6, 8, 16} {
		topos[fmt.Sprintf("fattree-k%d", k)] = topo.NewFatTree(k)
	}
	for name, tp := range topos {
		t.Run(name, func(t *testing.T) {
			net := New(sim.NewEngine(), tp, testConfig())
			kinds := make(map[packet.NodeID]topo.Kind)
			for _, n := range tp.Nodes() {
				kinds[n.ID] = n.Kind
			}
			var hops []packet.NodeID
			for _, sw := range net.switches {
				portOf := make(map[packet.NodeID]int, len(sw.neighbors))
				for i, nb := range sw.neighbors {
					portOf[nb] = i
				}
				for dst := 0; dst < tp.Hosts(); dst++ {
					hops = tp.AppendNextHops(hops[:0], sw.id, packet.NodeID(dst))
					want := make([]int, len(hops))
					for i, h := range hops {
						p, ok := portOf[h]
						if !ok {
							t.Fatalf("switch %d: next hop %d toward %d is not a neighbor", sw.id, h, dst)
						}
						want[i] = p
					}
					if got := sw.sets[sw.routes[dst]]; !slices.Equal(got, want) {
						t.Fatalf("switch %d → host %d: ports %v, want %v", sw.id, dst, got, want)
					}
				}
				for i := range sw.sets {
					for j := i + 1; j < len(sw.sets); j++ {
						if slices.Equal(sw.sets[i], sw.sets[j]) {
							t.Fatalf("switch %d: sets %d and %d are duplicates %v", sw.id, i, j, sw.sets[i])
						}
					}
				}
				ft, ok := tp.(*topo.FatTree)
				if !ok {
					continue
				}
				want := ft.K/2 + 1
				if kinds[sw.id] == topo.CoreSwitch {
					want = ft.K
				}
				if len(sw.sets) != want {
					t.Errorf("k=%d %v switch %d: %d distinct route sets, want %d",
						ft.K, kinds[sw.id], sw.id, len(sw.sets), want)
				}
			}
		})
	}
}
