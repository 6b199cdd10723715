package exp

import (
	"reflect"
	"testing"

	"github.com/irnsim/irn/internal/fault"
)

// TestWorkerReuseBitIdentical pins the zero-rebuild contract: a Worker
// that has already run other scenarios — same structure (reset path, even
// when PFC, ECN or the fault model change) or a different one (rebuild
// path) — must produce byte-identical Results to a fresh construction for
// every subsequent run, and must rebuild only when the structure changes.
func TestWorkerReuseBitIdentical(t *testing.T) {
	seq := []struct {
		s        Scenario
		rebuilds int // the worker's Rebuilds() after this step
	}{
		{Scenario{Name: "irn-a", NumFlows: 120, Seed: 11}, 1},
		{Scenario{Name: "irn-b", NumFlows: 120, Seed: 23}, 1},
		{Scenario{Name: "roce", NumFlows: 120, Seed: 11, PFC: true, // PFC is a run setting: reset path
			Transport: TransportRoCE}, 1},
		{Scenario{Name: "irn-faults", NumFlows: 120, Seed: 7, // fault model is a run setting too
			Faults: fault.Spec{LossRate: 0.002, CorruptRate: 0.001}}, 1},
		{Scenario{Name: "irn-c", NumFlows: 120, Seed: 31}, 1},              // faults cleared again
		{Scenario{Name: "dcqcn", NumFlows: 120, Seed: 11, CC: CCDCQCN}, 1}, // so is the ECN config
		{Scenario{Name: "incast", IncastM: 12, IncastBytes: 400_000, Seed: 5}, 1},
		{Scenario{Name: "irn-k4", NumFlows: 120, Seed: 13, Arity: 4}, 2}, // a new topology: rebuild
		{Scenario{Name: "irn-a", NumFlows: 120, Seed: 11}, 3},            // and back
	}

	w := NewWorker()
	for i, step := range seq {
		fresh := Run(step.s)
		reused := w.Run(step.s)
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("step %d (%s): worker reuse diverged from fresh run\nfresh:  %+v\nreused: %+v",
				i, step.s.Name, fresh, reused)
		}
		if got := w.Rebuilds(); got != step.rebuilds {
			t.Fatalf("step %d (%s): worker has built %d fabrics, want %d", i, step.s.Name, got, step.rebuilds)
		}
	}

	// The same scenario back-to-back on one worker (the trial-sweep
	// shape) must also be self-identical.
	a := w.Run(seq[0].s)
	b := w.Run(seq[0].s)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated run of one scenario on a reused worker diverged")
	}
	if got := w.Rebuilds(); got != 3 {
		t.Fatalf("repeated runs rebuilt the fabric: %d builds, want 3", got)
	}

	// The paper's RoCE+PFC/IRN pair differs only in run settings, so the
	// k=16 datacenter pair run RoCE+PFC → IRN → RoCE+PFC on one worker
	// builds one fabric.
	pair := FigureDC(Scale{Flows: 40}).Scenarios
	roce, irn := pair[0], pair[1]
	if !roce.PFC || irn.PFC {
		t.Fatalf("FigureDC pair is no longer RoCE+PFC then IRN: %+v / %+v", roce, irn)
	}
	w = NewWorker()
	for i, s := range []Scenario{roce, irn, roce} {
		fresh := Run(s)
		reused := w.Run(s)
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("k=16 pair step %d (%s): shared fabric diverged from a fresh one", i, s.Name)
		}
	}
	if got := w.Rebuilds(); got != 1 {
		t.Fatalf("worker built %d fabrics for one k=16 structure, want 1", got)
	}
}

// TestWorkerPoolWarmReuse: the second trial on a worker must serve its
// packets from the pool's warm free list, not the heap — the point of
// keeping the pool across trials.
func TestWorkerPoolWarmReuse(t *testing.T) {
	w := NewWorker()
	s := Scenario{Name: "warm", NumFlows: 150, Seed: 3}
	first := w.Run(s)
	second := w.Run(s)
	if !reflect.DeepEqual(first.Summary, second.Summary) {
		t.Fatal("warm trial changed results")
	}
	// After the first trial the free list holds every packet the run
	// released; the second trial must allocate a small fraction of what
	// the first did.
	// (Allocs counters reset per run, so Result-level comparison works.)
	firstAllocs := first.Census.Injected // proxy: every injected packet was allocated or reused
	if firstAllocs == 0 {
		t.Fatal("no packets injected")
	}
	pool := w.net.Pool()
	if pool.Reuses == 0 {
		t.Fatal("second trial never reused a pooled packet")
	}
	if pool.Allocs*4 > pool.Reuses {
		t.Fatalf("second trial heap-allocated %d packets vs %d reuses; pool warmth lost",
			pool.Allocs, pool.Reuses)
	}
}
