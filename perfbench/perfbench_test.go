package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/topo"
)

// pbuf encodes the protobuf subset a synthetic pprof profile needs.
type pbuf struct{ b []byte }

func (p *pbuf) uint(num int, x uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, x)
}

func (p *pbuf) msg(num int, m []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(m)))
	p.b = append(p.b, m...)
}

func packed(xs ...uint64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// syntheticProfile builds a gzipped CPU profile whose samples each have
// the given stack (function names, leaf first) and CPU nanoseconds.
// Alternate samples use packed and unpacked repeated fields, and every
// stack of two or more frames puts its two innermost frames on one
// location, as the compiler does for an inlined call.
func syntheticProfile(t *testing.T, stacks [][]string, ns []int64) []byte {
	t.Helper()
	var p pbuf
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbuf
		m.uint(1, str(vt[0]))
		m.uint(2, str(vt[1]))
		p.msg(1, m.b)
	}
	funcID := map[string]uint64{}
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var locs []uint64
		for j := 0; j < len(stack); {
			frames := stack[j:min(j+2, len(stack))]
			if j > 0 {
				frames = stack[j : j+1]
			}
			var loc pbuf
			loc.uint(1, nextLoc)
			for _, fn := range frames {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f pbuf
					f.uint(1, id)
					f.uint(2, str(fn))
					p.msg(5, f.b)
				}
				var line pbuf
				line.uint(1, id)
				loc.msg(4, line.b)
			}
			p.msg(4, loc.b)
			locs = append(locs, nextLoc)
			nextLoc++
			j += len(frames)
		}
		var s pbuf
		if i%2 == 0 {
			s.msg(1, packed(locs...))
			s.msg(2, packed(1, uint64(ns[i])))
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
			s.uint(2, 1)
			s.uint(2, uint64(ns[i]))
			var label pbuf
			label.uint(1, str("scenario"))
			label.uint(2, str("x"))
			s.msg(3, label.b)
		}
		p.msg(2, s.b)
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestLayerAttributionSharesSumToOne(t *testing.T) {
	const in = internalPrefix
	stacks := [][]string{
		{"runtime.mallocgc", in + "fabric.(*Switch).forward", in + "exp.(*Worker).Run"},
		{"slices.pdqsortCmpFunc[...]", in + "sim.(*timingWheel).drainSlot", "main.main"},
		{in + "core.(*Sender).NextPacket", in + "fabric.(*NIC).kick", in + "sim.(*Engine).Run"},
		{"main.(*bench).pass"},
		{in + "hwmodel.Cost", "main.main"},
		{in + "sim.siftDownMax[...]", in + "sim.sortEvents"},
	}
	ns := []int64{10e6, 20e6, 30e6, 5e6, 5e6, 30e6}
	p := newLayerProfile()
	if err := p.add(syntheticProfile(t, stacks, ns)); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"goruntime": 10e6, "sim": 50e6, "core": 30e6, "other": 10e6}
	for l, v := range want {
		if p.ns[l] != v {
			t.Errorf("%s self = %d ns, want %d", l, p.ns[l], v)
		}
	}
	if p.samples != int64(len(stacks)) {
		t.Errorf("samples = %d, want %d", p.samples, len(stacks))
	}
	if p.unlabeled != 10e6+30e6+5e6 {
		t.Errorf("unlabeled = %d ns, want %d", p.unlabeled, int64(45e6))
	}
	sum := 0.0
	for _, s := range p.shares() {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

// benchJSON mirrors BENCHMARK.json, which must describe the workloads
// and metrics this program runs and reports.
type benchJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkJSON(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if !validUnit.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, l := range profiledLayers {
		if !seen[l+".self_share"] {
			t.Errorf("profiled layer %s has no self_share metric", l)
		}
	}
	var setupBound float64
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setupBound = d.bound
		}
	}
	for _, d := range endToEnd {
		if d.name != "setup_s" && d.bound >= setupBound {
			t.Errorf("%s bound %v not below setup_s's %v", d.name, d.bound, setupBound)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("BENCHMARK.json workload %d = %+v, want %s: %s", i, got, w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, want %d/%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("BENCHMARK.json end_to_end %d = %+v, want %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("BENCHMARK.json per_layer %d = %+v, want %+v", i, got, d)
		}
	}
}

// smallScenario is a quick run with drops, pauses and completions.
func smallScenario() exp.Scenario {
	return exp.Scenario{Name: "small", NumFlows: 30, Seed: 5, Transport: exp.TransportRoCE, PFC: true}
}

func TestCorruptDigestRaisesFailedShare(t *testing.T) {
	r := exp.Run(smallScenario())
	good := newChecker(map[string]string{"0/small": digest(r)})
	if !good.check("0/small", r) || !good.check("0/small", r) || good.failedShare() != 0 {
		t.Fatalf("matching digest failed: %v", good.errors)
	}
	d := []byte(digest(r))
	d[0] ^= 1
	bad := newChecker(map[string]string{"0/small": string(d)})
	bad.check("0/small", r)
	if bad.failedShare() != 1 {
		t.Fatalf("corrupted digest: failed share %v, want 1", bad.failedShare())
	}
}

func TestDigestIgnoresShardReflections(t *testing.T) {
	s := smallScenario()
	serial := exp.Run(s)
	s.Shards = 2
	sharded := exp.Run(s)
	if sharded.ShardsUsed != 2 {
		t.Fatalf("sharded run used %d shards", sharded.ShardsUsed)
	}
	if digest(serial) != digest(sharded) {
		t.Fatal("2-shard digest differs from serial")
	}
}

func TestInvariantsCatchBrokenResults(t *testing.T) {
	r := exp.Run(smallScenario())
	if errs := invariantErrors(r); len(errs) > 0 {
		t.Fatalf("clean run breaks invariants: %v", errs)
	}
	for name, breakIt := range map[string]func(*exp.Result){
		"conservation": func(r *exp.Result) { r.Census.Injected++ },
		"pool":         func(r *exp.Result) { r.PoolLive++ },
		"incomplete":   func(r *exp.Result) { r.Incomplete = 1 },
		"kv":           func(r *exp.Result) { r.KV = &kv.Report{Stats: kv.Stats{Issued: 3, Resolved: 2}} },
	} {
		b := r
		breakIt(&b)
		if len(invariantErrors(b)) == 0 {
			t.Errorf("%s: broken result passed", name)
		}
	}
}

func TestKVScheduleMatchesPreset(t *testing.T) {
	top := topo.NewFatTree(6)
	for _, s := range kvScenarios(defaultSeed+1, 1) {
		spec, err := kvSchedule(s.Name, top, s.KV.Requests).Compile(top)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, s.Faults) {
			t.Errorf("%s: rebuilt schedule compiles to a different fault spec", s.Name)
		}
	}
}

func TestScenariosAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a := w.scenarios(defaultSeed, 0)
		if !reflect.DeepEqual(a, w.scenarios(defaultSeed, 0)) {
			t.Errorf("%s: same seed gave different scenarios", w.name)
		}
		for _, b := range [][]exp.Scenario{w.scenarios(defaultSeed+1, 0), w.scenarios(defaultSeed, 1)} {
			for i := range a {
				if a[i].Seed == b[i].Seed {
					t.Errorf("%s/%s: seed or input set does not reach the scenario", w.name, a[i].Name)
				}
			}
		}
		want := recordedDigests[w.digestsOf]
		for k := 0; k < inputSets; k++ {
			for _, s := range w.scenarios(defaultSeed, k) {
				if _, ok := want[digestKey(k, s.Name)]; !ok {
					t.Errorf("%s: no recorded digest for %s", w.name, digestKey(k, s.Name))
				}
			}
		}
		for i := 1; i < len(a); i++ {
			if a[i].PFC && !a[i-1].PFC {
				t.Errorf("%s: scenarios not grouped by fabric structure", w.name)
			}
		}
	}
}

func TestCompareRefusesOtherBox(t *testing.T) {
	here := record{Box: box{CPU: "a", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0"}, Workload: "kv-chaos"}
	if err := checkComparable(here, here); err != nil {
		t.Fatalf("same box refused: %v", err)
	}
	other := here
	other.Box.CPU = "b"
	if err := checkComparable(here, other); err == nil || !strings.Contains(err.Error(), "different boxes") {
		t.Fatalf("different CPU compared: %v", err)
	}
	other = here
	other.Box.GOMAXPROCS = 1
	if checkComparable(here, other) == nil {
		t.Fatal("different GOMAXPROCS compared")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "pass", ID: 1, Start: 0, End: 10 * ms},
		{Name: "a", ID: 2, Parent: 1, Start: ms, End: 4 * ms},
		{Name: "b", ID: 3, Parent: 1, Start: 5 * ms, End: 9 * ms},
		{Name: "c", ID: 4, Parent: 3, Start: 6 * ms, End: 7 * ms},
	}
	want := []time.Duration{3 * ms, 3 * ms, 3 * ms, ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	v, pct := tail(xs)
	if v != 30 || pct != 75 {
		t.Fatalf("tail of 1..40 = %v at p%v, want 30 at p75", v, pct)
	}
	if v, _ := tail(xs[:10]); !math.IsNaN(v) {
		t.Fatalf("tail of 10 samples = %v, want NaN", v)
	}
}

func TestParseOptions(t *testing.T) {
	var stderr bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "dc-hadoop", "--seconds", "0"},
		{"--workload", "dc-hadoop", "--trace", "2"},
		{"--workload", "dc-hadoop", "extra"},
	} {
		if _, err := parseOptions(args, &stderr); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
	if code := run([]string{"--workload", "nope"}, &stderr, &stderr); code != 2 {
		t.Errorf("unknown workload exited %d, want 2", code)
	}
}

func TestHeapSamplerSeesPeakAndStops(t *testing.T) {
	h := startHeapSampler()
	h.reset()
	buf := make([]byte, 8<<20)
	if p := h.peak(); p < uint64(len(buf)) {
		t.Errorf("peak %d below a live %d-byte allocation", p, len(buf))
	}
	runtime.KeepAlive(buf)
	h.stop()
}
