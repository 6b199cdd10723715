package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// drainOnce loads evs into level-0 slot 7 of w and drains it the way the
// cursor does, returning the resulting frontier.
func drainOnce(w *timingWheel, evs []event) []event {
	w.bucket[0][7] = append(w.takeSpare(0), evs...)
	w.occ[0][0] |= 1 << 7
	w.drainSlot(7)
	return w.ready[w.head:]
}

// interleavedRuns returns n events with distinct times in one tick, laid
// out as k ascending runs: the sorted sequence dealt round-robin to k
// runs, concatenated. Ranks ascend in slice order, as the wheel's push
// order gives them.
func interleavedRuns(n, k int) []event {
	evs := make([]event, 0, n)
	for j := 0; j < k; j++ {
		for key := j; key < n; key += k {
			evs = append(evs, event{at: Time(key)})
		}
	}
	for i := range evs {
		evs[i].rank = uint64(i + 1)
	}
	return evs
}

// TestMergeRunsMatchesSort: a drained slot comes out exactly as a
// comparison sort by (at, rank) orders it, whatever the slot's shape —
// sizes from empty to a few hundred, presorted, 2–8 interleaved runs
// (both parities of the merge pass count), fully reversed, and one shared
// time with shuffled ranks. One wheel serves every case, so the reused
// run scratch and arrays are exercised across sizes.
func TestMergeRunsMatchesSort(t *testing.T) {
	r := NewRNG(17)
	cases := map[string][]event{
		"empty":     nil,
		"one":       {{at: 5, rank: 1}},
		"two-asc":   {{at: 5, rank: 1}, {at: 6, rank: 2}},
		"two-desc":  {{at: 6, rank: 1}, {at: 5, rank: 2}},
		"two-ranks": {{at: 5, rank: 2}, {at: 5, rank: 1}},
	}
	for _, n := range []int{3, 7, 31, 32, 33, 64, 100, 299, 300} {
		evs := make([]event, n)
		for i := range evs {
			evs[i] = event{at: Time(r.Intn(n/2 + 1)), rank: uint64(i + 1)}
		}
		r.Shuffle(n, func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		cases[fmt.Sprintf("random-%d", n)] = evs
		cases[fmt.Sprintf("presorted-%d", n)] = interleavedRuns(n, 1)
		for k := 2; k <= 8; k++ {
			cases[fmt.Sprintf("runs%d-%d", k, n)] = interleavedRuns(n, k)
		}
		rev := interleavedRuns(n, 1)
		slices.Reverse(rev)
		cases[fmt.Sprintf("reversed-%d", n)] = rev
		same := make([]event, n)
		for i := range same {
			same[i] = event{at: 9, rank: uint64(i + 1)}
		}
		r.Shuffle(n, func(i, j int) { same[i], same[j] = same[j], same[i] })
		cases[fmt.Sprintf("same-time-%d", n)] = same
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)

	var w timingWheel
	for _, name := range names {
		evs := cases[name]
		for i := range evs {
			evs[i].arg = evs[i].rank * 3 // payload must travel with its key
		}
		want := slices.Clone(evs)
		slices.SortFunc(want, func(a, b event) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.rank, b.rank))
		})
		got := drainOnce(&w, evs)
		if len(got) != len(want) {
			t.Fatalf("%s: drained %d events, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].at != want[i].at || got[i].rank != want[i].rank || got[i].arg != want[i].arg {
				t.Fatalf("%s: position %d = (at=%d rank=%d arg=%d), want (at=%d rank=%d arg=%d)",
					name, i, got[i].at, got[i].rank, got[i].arg, want[i].at, want[i].rank, want[i].arg)
			}
		}
	}
}

// pushSlots schedules slots consecutive level-0 slots after now, each
// holding size events laid out as runs interleaved ascending runs, and
// returns the next rank.
func pushSlots(w *timingWheel, now Time, rank uint64, slots, size, runs int) uint64 {
	base := (tickOf(now) + 1) << wheelTickShift
	for s := 0; s < slots; s++ {
		at := Time(base + uint64(s)<<wheelTickShift)
		for j := 0; j < runs; j++ { // the layout of interleavedRuns
			for key := j; key < size; key += runs {
				rank++
				w.push(event{at: at + Time(key), rank: rank})
			}
		}
	}
	return rank
}

// TestSlotDrainZeroAllocs: once warmed, a wheel that drains multi-run
// slots allocates nothing — the frontier, the bucket arrays and the
// merge's run-boundary scratch are all reused.
func TestSlotDrainZeroAllocs(t *testing.T) {
	var w timingWheel
	var now Time
	var rank uint64
	cycle := func() {
		rank = pushSlots(&w, now, rank, 4, 40, 3)
		for w.size > 0 {
			ev := w.pop()
			if ev.at < now {
				t.Fatalf("pop went back in time: %d after %d", ev.at, now)
			}
			now = ev.at
		}
	}
	cycle() // warm
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warmed wheel allocates %.1f per multi-run drain cycle, want 0", allocs)
	}
}

// BenchmarkWheelSlotDrain is the scheduler's layer microbenchmark: push
// and pop through level-0 slots of the shape a loaded k=16 fabric makes —
// 28 events on average (sizes cycling 10/19/28/55) in three interleaved
// ascending (at, rank) runs. It reports ns/event.
func BenchmarkWheelSlotDrain(b *testing.B) {
	sizes := [...]int{10, 19, 28, 55}
	var w timingWheel
	var now Time
	var rank uint64
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size := sizes[i%len(sizes)]
		rank = pushSlots(&w, now, rank, 1, size, 3)
		for w.size > 0 {
			now = w.pop().at
		}
		events += size
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
