// Command perfbench is the repository's benchmark. It drives the
// experiment harness (internal/exp) from outside, one process and one
// scenario at a time, over a named workload:
//
//	perfbench --workload dc-hadoop --seed 1 --seconds 20 --trace 0
//
// A run times cold set-up, warms one pass up, then repeats passes over
// the workload's scenarios on one exp.Worker for --seconds. Every
// scenario run is checked (see check.go). With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it alternates untraced blocks with
// CPU-profiled, labelled and span-recorded blocks and reports the
// per-layer metrics (see metrics.go). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// run.sh builds and runs it from the root of a checkout, keeping the
// build inside the checkout's .bench_build directory.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/irnsim/irn/internal/exp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// minPasses is the fewest timed passes of an untraced run: the tail
// percentile needs ten passes beyond it.
const minPasses = 11

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	against  string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "seconds of timed passes")
	fs.IntVar(&o.trace, "trace", 0, "1 for the traced run's per-layer metrics, 0 for end-to-end")
	fs.StringVar(&o.out, "out", "", "write this run's box, settings and metrics as JSON here")
	fs.StringVar(&o.against, "against", "", "compare with a run written by -out; refused across boxes")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.seconds < 1 {
		return o, errors.New("-seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, errors.New("-trace must be 0 or 1")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	bx := clampedBox()
	shards := min(w.shards, bx.NProc)
	b := newBench(w, o, shards)
	fmt.Fprintf(stdout, "box cpu=%q nproc=%d gomaxprocs=%d go=%s\n", bx.CPU, bx.NProc, bx.GOMAXPROCS, bx.Go)
	fmt.Fprintf(stdout, "workload %s seed=%d shards=%d input_sets=%d scenarios=%d seconds=%d trace=%d\n",
		w.name, o.seed, shards, len(b.inputs), len(b.inputs[0]), o.seconds, o.trace)

	vals, err := b.measure(stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		path := ".bench_build/perfbench-spans-" + w.name + ".json"
		if err := writeChrome(path, b.tr.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(b.tr.spans), path)
	}
	for _, e := range b.chk.errors {
		fmt.Fprintln(stdout, "FAILED", e)
	}
	fmt.Fprintf(stdout, "failed_share %.6g share (%d of %d scenario runs failed)\n",
		b.chk.failedShare(), b.chk.failed, b.chk.attempted)
	for _, d := range defs {
		note := b.notes[d.name]
		if note == "" && d.moves != "" {
			note = " moves " + d.moves
		}
		fmt.Fprintf(stdout, "metric %-32s %14.6g %-6s%s\n", d.name, vals[d.name], d.unit, note)
	}

	rec := record{Box: bx, Workload: w.name, Seed: o.seed, Trace: o.trace, Metrics: map[string]float64{}}
	for _, d := range defs {
		rec.Metrics[d.name] = vals[d.name]
	}
	if o.against != "" {
		if err := compare(stdout, o.against, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	if o.out != "" {
		if err := writeRecord(o.out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: b.chk.failed == 0, Attempted: b.chk.attempted, Failed: b.chk.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench is one benchmark run's state.
type bench struct {
	w      benchWorkload
	o      options
	shards int
	// inputs holds the workload's input sets; pass i runs inputs[i%len].
	inputs [][]exp.Scenario
	worker *exp.Worker
	tr     *tracer
	chk    *checker
	heap   *heapSampler
	notes  map[string]string // printed beside a metric's value

	setupReps int
	// events[k] is the event count of a pass over inputs[k].
	events []uint64
	// Per untraced pass.
	walls, nsPerEvent, heaps []float64
	allocs                   runtimeDelta
	// Across every timed pass: shard barrier wait against shard time.
	barrierWaitNs, shardNs float64
}

func newBench(w benchWorkload, o options, shards int) *bench {
	inputs := make([][]exp.Scenario, inputSets)
	for k := range inputs {
		inputs[k] = w.scenarios(o.seed, k)
		for i := range inputs[k] {
			inputs[k][i].Shards = shards
		}
	}
	return &bench{
		w: w, o: o, shards: shards, inputs: inputs,
		worker: exp.NewWorker(),
		tr:     newTracer(false),
		notes:  map[string]string{},
	}
}

// digestKey names scenario s of input set k in digest tables.
func digestKey(k int, s string) string { return fmt.Sprintf("%d/%s", k, s) }

// expectedDigests returns the digests every scenario run must match:
// the recorded ones at the default seed; otherwise, for a sharded
// workload, a serial reference run's, since sharding must not change a
// single result bit.
func (b *bench) expectedDigests() (map[string]string, error) {
	if b.o.seed == defaultSeed {
		want, ok := recordedDigests[b.w.digestsOf]
		if !ok || len(want) != len(b.inputs)*len(b.inputs[0]) {
			return nil, fmt.Errorf("no recorded digests for %s", b.w.digestsOf)
		}
		return want, nil
	}
	if b.shards <= 1 {
		return nil, nil
	}
	want := map[string]string{}
	ref := exp.NewWorker()
	for k, ss := range b.inputs {
		for _, s := range ss {
			s.Shards = 1
			want[digestKey(k, s.Name)] = digest(ref.Run(s))
		}
	}
	return want, nil
}

// measure runs set-up, a warm-up round over every input set and the
// timed passes, and returns the metric values of the run's kind.
func (b *bench) measure(stdout io.Writer) (map[string]float64, error) {
	want, err := b.expectedDigests()
	if err != nil {
		return nil, err
	}
	b.chk = newChecker(want)
	traced := b.o.trace == 1
	b.tr.on = traced

	setupTotal, setupParts := b.timeSetup()

	// Warm-up: fills the worker's engines and pools, and yields each
	// input set's deterministic counts and headline outputs.
	b.tr.on = false
	var warm []exp.Result
	for k, ss := range b.inputs {
		var rs []exp.Result
		for _, s := range ss {
			r := b.worker.Run(s)
			b.chk.check(digestKey(k, s.Name), r)
			rs = append(rs, r)
		}
		printHeadlines(stdout, k, rs)
		b.events = append(b.events, countsOf(rs).events)
		warm = append(warm, rs...)
	}
	c := countsOf(warm)
	per := float64(len(b.inputs)) // counts are per pass: averaged over input sets

	b.heap = startHeapSampler()
	defer b.heap.stop()
	prof := newLayerProfile()
	var tracedWalls []float64
	deadline := time.Now().Add(time.Duration(b.o.seconds) * time.Second)
	// Passes run in whole rounds over the input sets, so each set weighs
	// the same in every median.
	round := func(traced bool) []float64 {
		walls := make([]float64, len(b.inputs))
		for k := range b.inputs {
			walls[k] = b.pass(k, traced)
		}
		return walls
	}
	if !traced {
		for len(b.walls) < minPasses || time.Now().Before(deadline) {
			round(false)
		}
	} else {
		// Alternate blocks of at least a second, so host drift hits
		// traced and untraced passes alike; each traced block is one
		// CPU profile.
		for block := 0; block < 4 || time.Now().Before(deadline); block++ {
			on := block%2 == 1
			var buf bytes.Buffer
			if on {
				if err := pprof.StartCPUProfile(&buf); err != nil {
					return nil, fmt.Errorf("start cpu profile: %w", err)
				}
			}
			for start := time.Now(); time.Since(start) < time.Second; {
				walls := round(on)
				if on {
					tracedWalls = append(tracedWalls, walls...)
				}
			}
			if on {
				pprof.StopCPUProfile()
				if err := prof.add(buf.Bytes()); err != nil {
					return nil, err
				}
			}
		}
	}

	vals := map[string]float64{}
	wall := median(b.walls)
	events := float64(c.events) / per
	if !traced {
		tail, pct := tail(b.walls)
		vals["wall_s"] = wall
		vals["wall_s_tail"] = tail
		b.notes["wall_s"] = fmt.Sprintf(" median of %d passes over %d input sets", len(b.walls), len(b.inputs))
		b.notes["wall_s_tail"] = fmt.Sprintf(" p%.1f of %d passes (%d beyond)", pct, len(b.walls), minPasses-1)
		vals["setup_s"] = setupTotal
		b.notes["setup_s"] = fmt.Sprintf(" median of %d cold set-ups", b.setupReps)
		vals["ns_per_event"] = median(b.nsPerEvent)
		vals["peak_heap_mb"] = median(b.heaps) / 1e6
		vals["ok_share"] = 1 - b.chk.failedShare()
		return vals, nil
	}

	passes := float64(len(tracedWalls))
	self := func(l string) float64 { return float64(prof.ns[l]) / 1e9 / passes }
	for l, s := range prof.shares() {
		vals[l+".self_share"] = s
	}
	vals["sim.self_s"] = self("sim")
	vals["sim.events"] = events
	vals["sim.self_ns_per_event"] = self("sim") * 1e9 / events
	vals["sim.barriers"] = float64(c.barriers) / per
	vals["sim.wide_windows"] = float64(c.wideWindows) / per
	vals["sim.events_per_barrier"] = ratio(float64(c.events), float64(c.barriers))
	vals["sim.barrier_wait_share"] = ratio(b.barrierWaitNs, b.shardNs)
	vals["fabric.self_s"] = self("fabric")
	vals["fabric.injected"] = float64(c.injected) / per
	vals["fabric.delivered_share"] = ratio(float64(c.delivered), float64(c.injected))
	vals["fabric.self_ns_per_packet"] = ratio(self("fabric")*1e9*per, float64(c.injected))
	vals["fabric.overflow_drops"] = float64(c.overflowDrops) / per
	vals["fabric.pause_frames"] = float64(c.pauseFrames) / per
	vals["fabric.ecn_marked"] = float64(c.ecnMarked) / per
	vals["fabric.boundary_drains"] = float64(c.drains) / per
	vals["fabric.build_s"] = setupParts["fabric.build"]
	vals["transport.retransmits"] = float64(c.retransmits) / per
	vals["transport.timeouts"] = float64(c.timeouts) / per
	vals["transport.retx_share"] = ratio(float64(c.retransmits), float64(c.injected))
	vals["kv.requests"] = float64(c.kvRequests) / per
	vals["kv.retries"] = float64(c.kvRetries) / per
	vals["kv.giveups"] = float64(c.kvGiveUps) / per
	vals["kv.host_us_per_request"] = ratio(wall*1e6*per, float64(c.kvRequests))
	vals["fault.compile_s"] = setupParts["fault.compile"]
	vals["metrics.bytes"] = float64(c.metricsBytes) / per
	vals["workload.generate_s"] = setupParts["workload.generate"]
	vals["topo.build_s"] = setupParts["topo.build"] + setupParts["topo.partition"]
	n := float64(len(b.walls))
	vals["goruntime.alloc_bytes_per_event"] = b.allocs.bytes / n / events
	vals["goruntime.allocs_per_event"] = b.allocs.objects / n / events
	vals["goruntime.gc_cycles"] = b.allocs.gcCycles / n
	vals["goruntime.gc_cpu_share"] = ratio(b.allocs.gcCPU, b.allocs.totalCPU)
	vals["trace.overhead"] = median(tracedWalls)/wall - 1
	vals["trace.samples"] = float64(prof.samples) / passes
	vals["trace.unlabeled_share"] = ratio(float64(prof.unlabeled), float64(prof.total()))
	b.notes["trace.overhead"] = fmt.Sprintf(" %d traced vs %d untraced passes", len(tracedWalls), len(b.walls))
	return vals, nil
}

// timeSetup times cold set-up of the first input set several times,
// collecting garbage before each, and returns the median total and the
// median of each call kind.
func (b *bench) timeSetup() (float64, map[string]float64) {
	var totals []float64
	parts := map[string][]float64{}
	start := time.Now()
	for rep := 0; rep < 7 || (rep < 201 && time.Since(start) < 1500*time.Millisecond); rep++ {
		runtime.GC()
		t := map[string]time.Duration{}
		d := b.tr.span("setup", 0, func(id int) { setup(b.tr, id, t, b.inputs[0], b.shards) })
		totals = append(totals, d.Seconds())
		b.setupReps++
		for _, k := range []string{"topo.build", "topo.partition", "fabric.build", "workload.generate", "fault.compile"} {
			parts[k] = append(parts[k], t[k].Seconds())
		}
	}
	med := map[string]float64{}
	for k, v := range parts {
		med[k] = median(v)
	}
	return median(totals), med
}

// pass runs every scenario of input set k once and returns its wall
// time in seconds. Untraced passes also record peak heap and runtime
// counters.
func (b *bench) pass(k int, traced bool) float64 {
	b.tr.on = traced
	var before runtimeSample
	if !traced {
		before = readRuntime()
	}
	b.heap.reset()
	d := b.tr.span("pass", 0, func(id int) {
		for _, s := range b.inputs[k] {
			var r exp.Result
			sd := b.tr.span("scenario "+s.Name, id, func(int) {
				if !traced {
					r = b.worker.Run(s)
					return
				}
				labels := pprof.Labels("workload", b.w.name, "scenario", s.Name)
				pprof.Do(context.Background(), labels, func(context.Context) { r = b.worker.Run(s) })
			})
			b.chk.check(digestKey(k, s.Name), r)
			if st := r.ShardStats; st != nil && r.ShardsUsed > 1 {
				for _, sh := range st.Shards {
					b.barrierWaitNs += float64(sh.BarrierWaitNs)
				}
				b.shardNs += float64(sd.Nanoseconds()) * float64(r.ShardsUsed)
			}
		}
	})
	wall := d.Seconds()
	if !traced {
		b.allocs.add(before, readRuntime())
		b.walls = append(b.walls, wall)
		b.nsPerEvent = append(b.nsPerEvent, wall*1e9/float64(b.events[k]))
		b.heaps = append(b.heaps, float64(b.heap.peak()))
	}
	return wall
}

// counts are one pass's deterministic counters, summed over scenarios.
type counts struct {
	events, injected, delivered, overflowDrops, pauseFrames, ecnMarked uint64
	drains, barriers, wideWindows, retransmits, timeouts               uint64
	kvRequests, kvRetries, kvGiveUps                                   uint64
	metricsBytes                                                       int
}

func countsOf(rs []exp.Result) counts {
	var c counts
	for _, r := range rs {
		c.events += r.Events
		c.injected += r.Census.Injected
		c.delivered += r.Census.Delivered
		c.overflowDrops += r.Census.OverflowDrops
		c.pauseFrames += r.Net.PauseFrames
		c.ecnMarked += r.Net.ECNMarked
		c.retransmits += r.Retransmits
		c.timeouts += r.Timeouts
		c.metricsBytes += r.MetricsBytes
		if st := r.ShardStats; st != nil {
			c.barriers += st.Barriers
			c.wideWindows += st.WideWindows
			for _, sh := range st.Shards {
				c.drains += sh.Drained
			}
		}
		if k := r.KV; k != nil {
			c.kvRequests += k.Issued
			c.kvRetries += k.Retries
			c.kvGiveUps += k.GiveUps
		}
	}
	return c
}

// printHeadlines prints each scenario's simulated outputs and, for each
// IRN/RoCE pair, their ratio. They are checked through the digest.
func printHeadlines(w io.Writer, k int, rs []exp.Result) {
	byKey := map[string][2]*exp.Result{}
	var keys []string
	for i := range rs {
		r := &rs[i]
		fmt.Fprintf(w, "result %-38s events=%d avg_fct_ms=%.6g slowdown=%.6g rct_ms=%.6g retx=%d drops=%d pauses=%d",
			digestKey(k, r.Name), r.Events, r.AvgFCT.Millis(), r.AvgSlowdown, r.RCT.Millis(), r.Retransmits, r.Census.OverflowDrops, r.Net.PauseFrames)
		if k := r.KV; k != nil {
			fmt.Fprintf(w, " kv_availability=%.6g commit_p99_ms=%.6g", k.Availability, k.CommitP99.Millis())
		}
		fmt.Fprintf(w, " digest=%s\n", digest(*r))
		side := 0
		key, ok := strings.CutPrefix(r.Name, "RoCE+PFC ")
		if !ok {
			key, _ = strings.CutPrefix(r.Name, "IRN ")
			side = 1
		}
		p, seen := byKey[key]
		if !seen {
			keys = append(keys, key)
		}
		p[side] = r
		byKey[key] = p
	}
	for _, key := range keys {
		p := byKey[key]
		if p[0] == nil || p[1] == nil {
			continue
		}
		roce, irn := p[0], p[1]
		if roce.KV != nil {
			fmt.Fprintf(w, "pair %d/%-30s kv_availability IRN %.6g RoCE %.6g; commit_p99_ms IRN %.6g RoCE %.6g\n",
				k, key, irn.KV.Availability, roce.KV.Availability, irn.KV.CommitP99.Millis(), roce.KV.CommitP99.Millis())
			continue
		}
		fmt.Fprintf(w, "pair %d/%-30s irn_over_roce avg_fct %.6g rct %.6g\n",
			k, key, ratio(float64(irn.AvgFCT), float64(roce.AvgFCT)), ratio(float64(irn.RCT), float64(roce.RCT)))
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest pass time with ten passes beyond it and the
// percentile it sits at.
func tail(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - minPasses
	if i < 0 {
		return math.NaN(), 0
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
