package packet

import "testing"

// TestPoolRoundTripZeroAllocs is the allocation-regression guard for the
// pooled packet lifecycle: once the free list is warm, a full
// construct → release round trip (one data packet and its ACK, the
// steady-state send/receive pattern) allocates nothing.
func TestPoolRoundTripZeroAllocs(t *testing.T) {
	p := NewPool()

	// Warm the free list and its backing array.
	warm := []*Packet{p.NewData(1, 0, 1, 0, 1000, false), p.NewAck(1, 1, 0, 1)}
	for _, pkt := range warm {
		p.Release(pkt)
	}

	allocs := testing.AllocsPerRun(200, func() {
		d := p.NewData(1, 0, 1, 7, 1000, false)
		a := p.NewAck(1, 1, 0, 8)
		p.Release(d)
		p.Release(a)
	})
	if allocs != 0 {
		t.Fatalf("pooled send/receive round trip allocates %.1f/op, want 0", allocs)
	}
	if p.Allocs != 2 {
		t.Fatalf("pool heap-allocated %d packets, want only the 2 warm-up ones", p.Allocs)
	}
}

// TestPoolReuseIsClean: a recycled packet must carry no state from its
// previous life.
func TestPoolReuseIsClean(t *testing.T) {
	p := NewPool()
	d := p.NewData(9, 3, 4, 100, 1000, true)
	d.CE = true
	d.ECT = true
	d.SentAt = 12345
	p.Release(d)

	a := p.NewAck(2, 4, 3, 5)
	if a != d {
		t.Fatal("expected LIFO reuse of the released packet")
	}
	if a.Type != TypeAck || a.CE || a.ECT || a.SentAt != 0 || a.PSN != 0 || a.Payload != 0 || a.Last {
		t.Fatalf("recycled packet carries stale state: %+v", a)
	}
	if a.CumAck != 5 || a.Flow != 2 || a.Wire != ControlFrame {
		t.Fatalf("recycled packet misconstructed: %+v", a)
	}
}

// TestPoolDoubleReleasePanics: releasing the same packet twice must fail
// loudly rather than corrupt the free list.
func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	d := p.NewData(1, 0, 1, 0, 100, false)
	p.Release(d)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.Release(d)
}

// TestNilPoolDegradesGracefully: package-level constructors and nil pools
// allocate plainly; Release is a no-op.
func TestNilPoolDegradesGracefully(t *testing.T) {
	var p *Pool
	d := p.NewData(1, 0, 1, 0, 500, false)
	if d.Wire != 500+DataHeader {
		t.Fatalf("nil-pool NewData wire = %d", d.Wire)
	}
	p.Release(d) // must not panic
	if p.FreeLen() != 0 {
		t.Fatal("nil pool grew a free list")
	}
	if got := NewCNP(3, 1, 2); got.Type != TypeCNP || got.Wire != ControlFrame {
		t.Fatalf("package-level NewCNP = %+v", got)
	}
}

// TestPoolAbsorbsForeignPackets: packets built by the package-level
// constructors (tests, injected traffic) may die inside a pooled fabric;
// the pool adopts them.
func TestPoolAbsorbsForeignPackets(t *testing.T) {
	p := NewPool()
	d := NewData(1, 0, 1, 0, 100, false)
	p.Release(d)
	if p.FreeLen() != 1 || p.Releases != 1 {
		t.Fatalf("foreign packet not adopted: free=%d releases=%d", p.FreeLen(), p.Releases)
	}
	if got := p.NewCNP(1, 0, 1); got != d {
		t.Fatal("adopted packet not reused")
	}
}

// TestBalanceDealsFreePacketsEvenly: Balance splits the pools' free
// packets evenly, the first pools taking the remainder, moves every
// packet exactly once, drops the references it moved out of a free list,
// and leaves the counters alone.
func TestBalanceDealsFreePacketsEvenly(t *testing.T) {
	for _, tc := range []struct{ have, want []int }{
		{[]int{7, 0, 2}, []int{3, 3, 3}},
		{[]int{0, 5}, []int{3, 2}},
		{[]int{5, 0}, []int{3, 2}},
		{[]int{0, 0, 10, 1}, []int{3, 3, 3, 2}},
		{[]int{4}, []int{4}},
	} {
		pools := make([]*Pool, len(tc.have))
		seen := map[*Packet]bool{}
		for i, n := range tc.have {
			pools[i] = NewPool()
			for j := 0; j < n; j++ {
				pkt := &Packet{}
				seen[pkt] = false
				pools[i].Release(pkt)
			}
		}
		Balance(pools)
		for i, p := range pools {
			if p.FreeLen() != tc.want[i] {
				t.Errorf("%v: pool %d holds %d free packets after Balance, want %d", tc.have, i, p.FreeLen(), tc.want[i])
			}
			if p.Releases != uint64(tc.have[i]) || p.Live() != -tc.have[i] {
				t.Errorf("%v: Balance changed pool %d's counters: releases %d live %d", tc.have, i, p.Releases, p.Live())
			}
			for _, pkt := range p.free {
				if done, ok := seen[pkt]; !ok || done {
					t.Fatalf("%v: pool %d holds a packet that is foreign or held twice", tc.have, i)
				}
				seen[pkt] = true
			}
			for _, pkt := range p.free[len(p.free):cap(p.free)] {
				if pkt != nil {
					t.Errorf("%v: pool %d keeps a reference to a packet it gave away", tc.have, i)
				}
			}
		}
		for _, done := range seen {
			if !done {
				t.Fatalf("%v: Balance lost a packet", tc.have)
			}
		}
	}
}
