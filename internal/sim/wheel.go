package sim

import (
	"math/bits"
	"slices"
)

// The engine's event queue is a hierarchical timing wheel. A binary heap
// pays O(log n) sift cost per push and pop against the whole pending
// population (measured ~2300 standing events in a loaded fabric, ~12
// levels of 56-byte swaps each way); the wheel pays O(1) bucket placement
// per push and a bitmap scan per clock advance, because discrete-event
// time lets events be bucketed by firing tick and only the slot at the
// cursor ever needs exact ordering.
//
// Geometry: wheelLevels levels of wheelSlots power-of-two buckets. One
// level-0 slot is one tick (2^wheelTickShift ps), and level 0 *slides*:
// any event within wheelSlots ticks of the cursor maps to slot
// tick mod wheelSlots, so the datapath's short-horizon events (packet
// serialization at ~200 ns, propagation at 2 µs ≈ 134 ticks) always place
// directly at level 0, never through a cascade. Each level above is
// window-aligned and covers wheelSlots× the span below it; an event lands
// at the lowest level whose current window (the aligned range of ticks
// sharing the cursor's upper bits) contains its tick, and events beyond
// the top level's window go to a far-future overflow heap that refills
// the wheels when the cursor rolls into their window. With a 16.4 ns tick
// the spans are ~4.2 µs (sliding) / 1.1 ms / 275 ms / 70 s:
// retransmission timers resolve at level 1, flow arrivals at levels 1–2,
// and the overflow heap is touched only by pathological schedules.
//
// Determinism: pop order is exactly the canonical (at, rank) key —
// bit-identical to the reference heap the wheel is differentially tested
// against. Three facts make this exact rather than approximate: (1) the
// frontier (`ready` plus the `late` heap) holds every pending event with
// tick <= cur, fully ordered by full key, so same-tick events and late
// arrivals interleave exactly; (2) wheels hold only ticks > cur, and the
// cursor visits occupied slots in strictly increasing tick order — the
// sliding level-0 scan goes ahead-then-wrapped, and an aligned cascade due
// at the block boundary merges its bucket into the same sliding slots
// before any wrapped slot drains; (3) a higher-level bucket's window
// start is pinned strictly above the cursor's index at that level, so a
// forward bitmap scan never skips an occupied bucket. TestWheelMatchesHeap
// and FuzzEventOrder drive the wheel and a reference heap side by side on
// randomized schedules to enforce this.
const (
	wheelTickShift = 14 // tick granularity: 2^14 ps ≈ 16.4 ns
	wheelLevelBits = 8
	wheelSlots     = 1 << wheelLevelBits
	wheelSlotMask  = wheelSlots - 1
	wheelLevels    = 4
	wheelSpanBits  = wheelLevels * wheelLevelBits // tick bits the wheels cover
)

// timingWheel is the hierarchical event queue. The zero value is ready for
// use.
type timingWheel struct {
	// cur is the cursor tick: ready holds every pending event with
	// tick <= cur, wheel buckets and the overflow heap everything after.
	cur  uint64
	size int

	// ready[head:] is the execution frontier, sorted ascending by
	// (at, rank): pop reads sequentially and a drained level-0 slot (whose
	// events share one tick) replaces it as one sorted batch.
	// Consumed entries before head are not zeroed — the next drain
	// overwrites them, and the handlers they pin outlive the engine's
	// queue anyway (reset clears everything for the cross-run case).
	ready []event
	head  int

	// late holds stragglers: events scheduled at a tick the cursor has
	// already reached or passed (~0.4% of traffic in a loaded fabric).
	// They cannot join ready without a mid-run memmove, so they sit in a
	// small (at, rank) heap that pop/peek merge against the frontier; on
	// pathological all-same-tick schedules this degrades to exactly the
	// old global heap's O(log n), never worse.
	late eventHeap

	// bucket[lvl][idx] holds events whose tick maps to slot idx of level
	// lvl's current window; occ mirrors non-emptiness as a bitmap so the
	// cursor skips runs of empty slots in a few word reads.
	bucket [wheelLevels][wheelSlots][]event
	occ    [wheelLevels][wheelSlots / 64]uint64

	// spare[lvl] recycles drained bucket arrays. Slot indexes at the
	// upper levels are visited about once per run (a level-1 slot's
	// window recurs only every full level-1 rotation), so arrays pinned
	// per slot would re-grow from nothing at almost every visit — tens of
	// MB of doubling copies per run. Handing a drained array to the next
	// slot that activates instead caps the pool at the peak number of
	// concurrently occupied slots, and growth stops once the circulating
	// arrays reach the peak slot population.
	spare [wheelLevels][][]event

	// overflow holds events beyond the top level's window.
	overflow eventHeap

	// runs is drainSlot's run-boundary scratch, reused across drains.
	runs []int
}

// tickOf maps an absolute time to its wheel tick.
func tickOf(at Time) uint64 { return uint64(at) >> wheelTickShift }

// eventBefore is the engine's total event order.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.rank < b.rank
}

// push enqueues ev.
func (w *timingWheel) push(ev event) {
	w.size++
	w.place(ev)
}

// pushBatch enqueues a batch of pre-ranked events for one handler in a
// single call: one size update and a tight placement loop, the bulk
// counterpart of push for barrier drains of cross-shard channels.
func (w *timingWheel) pushBatch(h Handler, evs []RankedEvent) {
	w.size += len(evs)
	for i := range evs {
		w.place(event{at: evs[i].At, rank: evs[i].Rank, h: h, kind: evs[i].Kind, arg: evs[i].Arg})
	}
}

// place routes ev to ready, a wheel bucket, or the overflow heap. Events
// at or before the cursor go to ready — that is what keeps late arrivals
// (scheduled mid-window after the cursor advanced past their tick) ahead
// of every wheel event, in exact (at, rank) order.
func (w *timingWheel) place(ev event) {
	t := tickOf(ev.at)
	if t <= w.cur {
		w.late.push(ev)
		return
	}
	lvl := 0
	var idx uint64
	if t-w.cur < wheelSlots {
		// Sliding level 0: any tick within wheelSlots of the cursor maps
		// to slot t mod wheelSlots, regardless of window alignment. This
		// is what keeps the datapath's short-horizon events (packet
		// serialization, propagation) out of the cascade path entirely —
		// with aligned windows, every event scheduled past the window
		// edge would detour through a level-1 bulk bucket.
		idx = t & wheelSlotMask
	} else {
		x := t ^ w.cur
		lvl = (bits.Len64(x) - 1) / wheelLevelBits
		if lvl >= wheelLevels {
			w.overflow.push(ev)
			return
		}
		idx = (t >> (lvl * wheelLevelBits)) & wheelSlotMask
	}
	b := w.bucket[lvl][idx]
	if b == nil {
		b = w.takeSpare(lvl)
	}
	w.bucket[lvl][idx] = append(b, ev)
	w.occ[lvl][idx>>6] |= 1 << (idx & 63)
}

// pop removes and returns the earliest pending event. Caller guarantees
// size > 0. Late events hold ticks at or before the cursor and wheel
// events ticks after it, so merging the two orderings is a single
// comparison — and the branch is free whenever late is empty.
func (w *timingWheel) pop() event {
	if w.head == len(w.ready) && len(w.late) == 0 {
		w.refill()
	}
	w.size--
	if len(w.late) > 0 &&
		(w.head == len(w.ready) || eventBefore(&w.late[0], &w.ready[w.head])) {
		return w.late.pop()
	}
	ev := w.ready[w.head]
	w.head++
	return ev
}

// peekAt returns the earliest pending event's firing time without
// removing it. Caller guarantees size > 0. Peeking may advance the
// cursor, which is safe: events scheduled afterwards at a tick the cursor
// already passed are placed into late, not a stale bucket.
func (w *timingWheel) peekAt() Time {
	if w.head == len(w.ready) && len(w.late) == 0 {
		w.refill()
	}
	if len(w.late) > 0 &&
		(w.head == len(w.ready) || eventBefore(&w.late[0], &w.ready[w.head])) {
		return w.late[0].at
	}
	return w.ready[w.head].at
}

// refill advances the cursor until an event is executable.
func (w *timingWheel) refill() {
	for w.head == len(w.ready) && len(w.late) == 0 {
		if !w.advanceOnce() {
			panic("sim: refill on an empty event queue")
		}
	}
}

// advanceOnce moves the cursor to the next occupied slot: draining a
// level-0 slot into ready, cascading a higher-level bucket one level
// down, or — when every wheel is empty — jumping to the overflow heap's
// window and refilling from it. Returns false when nothing is pending.
//
// Level 0 slides, so its scan has two parts: slots above the cursor's
// index hold ticks in the cursor's 256-tick block ("ahead"), wrapped
// slots hold ticks just across the next block boundary. A cascade due at
// an aligned boundary must win against a wrapped slot at or after that
// boundary — the cascaded bucket's events merge into the very same
// sliding slots — which is what the tb/ws comparison decides.
func (w *timingWheel) advanceOnce() bool {
	// Ahead part of sliding level 0: strictly increasing ticks up to the
	// next block boundary. Nothing at any higher level can precede these.
	if idx, ok := w.scan(0, w.cur&wheelSlotMask+1); ok {
		w.cur = w.cur&^wheelSlotMask | idx
		w.drainSlot(idx)
		return true
	}
	// Wrapped part: the earliest remaining level-0 tick, if any, lives at
	// boundary + idx.
	boundary := (w.cur &^ wheelSlotMask) + wheelSlots
	tb, okB := uint64(0), false
	if idx, ok := w.scan(0, 0); ok {
		tb, okB = boundary+idx, true
	}
	// The lowest level with an occupied bucket decides the next cascade;
	// its window start ws can only grow with the level, so the first hit
	// is the earliest. Cascade when it is due at or before the wrapped
	// slot (equal means the bucket's events share the slot's block and
	// must merge in before the slot drains).
	for lvl := 1; lvl < wheelLevels; lvl++ {
		shift := lvl * wheelLevelBits
		idx, ok := w.scan(lvl, w.cur>>shift&wheelSlotMask+1)
		if !ok {
			continue
		}
		ws := w.cur&^(1<<(shift+wheelLevelBits)-1) | idx<<shift
		if okB && tb < ws {
			break
		}
		w.cur = ws
		w.cascade(lvl, idx)
		w.drainCurSlot()
		return true
	}
	if okB {
		w.cur = tb
		w.drainSlot(tb & wheelSlotMask)
		return true
	}
	// Rollover: wheels are empty. Jump the cursor to the start of the
	// overflow minimum's top-level window and pull in every overflow
	// event that window now covers.
	if len(w.overflow) == 0 {
		return false
	}
	w.cur = tickOf(w.overflow[0].at) &^ (1<<wheelSpanBits - 1)
	for len(w.overflow) > 0 && tickOf(w.overflow[0].at)^w.cur < 1<<wheelSpanBits {
		w.place(w.overflow.pop())
	}
	w.drainCurSlot()
	return true
}

// drainCurSlot drains the level-0 slot at the cursor's own index if a
// prior placement left events there (tick == cur, possible only right
// after an aligned cursor jump); the forward scans would otherwise skip
// it.
func (w *timingWheel) drainCurSlot() {
	idx := w.cur & wheelSlotMask
	if w.occ[0][idx>>6]&(1<<(idx&63)) != 0 {
		b := w.take(0, idx)
		for i := range b {
			w.late.push(b[i])
		}
		w.giveBack(0, b)
	}
}

// drainSlot moves level-0 slot idx — the cursor's own tick — into ready
// as one sorted batch. The frontier is empty here (refill only advances
// when it is), so the batch replaces it wholesale. The drained array goes
// back to the spare pool, so a warmed-up wheel never allocates.
//
// Slots are large and nearly sorted: on the k=16 dc-hadoop fabric a
// level-0 slot holds 27.6 events on average, 71% of events sit in slots
// of more than 32, and those average 66 events but only ~3 ascending
// (at, rank) runs: events mostly arrive in order, and a few clocks
// interleave. So the batch is built by a natural merge sort: one
// scan finds the runs, then bottom-up passes merge neighbouring runs,
// ping-ponging between the drained array and ready. (at, rank) is a total
// order, so the result is the unique sorted sequence whatever the
// algorithm; a pathological same-tick flood costs O(n log n).
func (w *timingWheel) drainSlot(idx uint64) {
	b := w.take(0, idx)
	w.ready, w.head = w.mergeRuns(w.ready, b), 0
	w.giveBack(0, b)
}

// mergeRuns returns dst holding evs sorted by (at, rank), growing dst's
// array only if it is too small. evs is scratch afterwards. ⌈log₂ runs⌉
// merge passes alternate between the two arrays, so the side the first
// pass reads is chosen by that count's parity for the last pass to write
// dst: an odd count reads evs directly, an even one copies evs into dst
// first. A slot that is one run costs exactly that copy.
func (w *timingWheel) mergeRuns(dst, evs []event) []event {
	n := len(evs)
	dst = slices.Grow(dst[:0], n)[:n]
	runs := append(w.runs[:0], 0)
	for i := 1; i < n; i++ {
		if eventBefore(&evs[i], &evs[i-1]) {
			runs = append(runs, i)
		}
	}
	runs = append(runs, n)
	src, out := evs, dst
	if bits.Len(uint(len(runs)-2))%2 == 0 {
		copy(dst, evs)
		src, out = dst, evs
	}
	// runs holds k+1 boundaries for k runs; each pass merges runs pairwise
	// and keeps every second boundary, carrying an odd last run across.
	for len(runs) > 2 {
		k := 0
		for i := 0; i+1 < len(runs); i += 2 {
			lo := runs[i]
			if i+2 < len(runs) {
				mergeInto(out[lo:runs[i+2]], src[lo:runs[i+1]], src[runs[i+1]:runs[i+2]])
			} else {
				copy(out[lo:], src[lo:])
			}
			runs[k] = lo
			k++
		}
		runs[k] = n
		runs = runs[:k+1]
		src, out = out, src
	}
	w.runs = runs
	return dst
}

// mergeInto merges the sorted runs a and b into out, which has exactly
// their combined length.
func mergeInto(out, a, b []event) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if eventBefore(&b[j], &a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// cascade re-places every event of bucket (lvl, idx) one level down.
func (w *timingWheel) cascade(lvl int, idx uint64) {
	b := w.take(lvl, idx)
	for i := range b {
		w.place(b[i])
	}
	w.giveBack(lvl, b)
}

// take detaches bucket (lvl, idx) for draining and clears its occupancy.
func (w *timingWheel) take(lvl int, idx uint64) []event {
	w.occ[lvl][idx>>6] &^= 1 << (idx & 63)
	b := w.bucket[lvl][idx]
	w.bucket[lvl][idx] = nil
	return b
}

// takeSpare pops the largest-capacity spare array of a level. Largest
// matters: slot populations are bimodal (one bulk slot per window plus a
// scatter of timer slots), and a LIFO pool would keep handing a
// timer-sized array to the bulk slot, re-growing it through its doubling
// chain every window. Taking the max lets every circulating array ratchet
// up to the peak population once, after which growth stops for good. The
// pool holds at most the peak number of concurrently occupied slots
// (a few dozen), so the scan is trivial.
func (w *timingWheel) takeSpare(lvl int) []event {
	s := w.spare[lvl]
	n := len(s)
	if n == 0 {
		return nil
	}
	best := 0
	for i := 1; i < n; i++ {
		if cap(s[i]) > cap(s[best]) {
			best = i
		}
	}
	b := s[best]
	s[best] = s[n-1]
	s[n-1] = nil
	w.spare[lvl] = s[:n-1]
	return b
}

// giveBack returns a drained bucket array to the level's spare pool.
func (w *timingWheel) giveBack(lvl int, b []event) {
	if cap(b) > 0 {
		w.spare[lvl] = append(w.spare[lvl], b[:0])
	}
}

// scan returns the first occupied slot index >= from at the given level.
func (w *timingWheel) scan(lvl int, from uint64) (uint64, bool) {
	for from < wheelSlots {
		word := from >> 6
		if m := w.occ[lvl][word] &^ (1<<(from&63) - 1); m != 0 {
			return word<<6 | uint64(bits.TrailingZeros64(m)), true
		}
		from = (word + 1) << 6
	}
	return 0, false
}

// reset empties the wheel while keeping every backing array warm, so a
// reused engine schedules without re-growing its buckets. Unlike the
// steady-state paths, reset zeroes stale entries up to each array's
// capacity: nothing scheduled in the previous run may keep a handler or
// closure alive across trials.
func (w *timingWheel) reset() {
	w.cur, w.size = 0, 0
	clearEvents(w.ready[:cap(w.ready)])
	w.ready, w.head = w.ready[:0], 0
	clearEvents(w.late)
	w.late = w.late[:0]
	clearEvents(w.overflow)
	w.overflow = w.overflow[:0]
	for lvl := range w.bucket {
		for idx := range w.bucket[lvl] {
			if b := w.bucket[lvl][idx]; cap(b) > 0 {
				clearEvents(b[:cap(b)])
				w.bucket[lvl][idx] = nil
				w.spare[lvl] = append(w.spare[lvl], b[:0])
			}
		}
		for _, b := range w.spare[lvl] {
			clearEvents(b[:cap(b)])
		}
		for i := range w.occ[lvl] {
			w.occ[lvl][i] = 0
		}
	}
}

// clearEvents zeroes a slice of events, dropping handler and closure
// references.
func clearEvents(evs []event) {
	for i := range evs {
		evs[i] = event{}
	}
}
