package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/workload"
)

// defaultSeed is the seed at which every workload's first input set
// keeps its presets' own scenario seeds, and at which digests are
// compared against digests.go.
const defaultSeed = 1

// inputSets is how many seeded input sets a run cycles through, one per
// pass. Medians over several inputs vary less from seed to seed than
// any single input's pass time does.
const inputSets = 4

// Pass sizes, chosen from a 2-vCPU Xeon where a 1000-flow figdc pass
// takes ~2.3 s: every workload completes well over eleven passes in a
// 20 s run, so the tail percentile has ten passes beyond it.
const (
	// dcFlows sets the dc-hadoop pass volume: the offered bytes of this
	// many mean-sized Hadoop flows (~0.65 s, ~1.85M events a pass).
	dcFlows = 250
	// incastBytes is the Figure 9 request size (~0.25 s, 1.2M events).
	incastBytes = 6_000_000
	// kvFlows scales FigureKV to its 400-request cap (~0.17 s, 0.42M events).
	kvFlows = 4000
)

// benchWorkload is one named set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	// why is the one-sentence reason the workload was chosen; it is
	// BENCHMARK.json's "why" for the same name.
	why string
	// shards is the requested intra-run shard count, clamped to nproc.
	shards int
	// digestsOf names the workload whose recorded digests this one must
	// reproduce (itself unless it is another one's sharded twin).
	digestsOf string
	// scenarios builds the scenarios of a seed's input set k, one pass.
	scenarios func(seed uint64, k int) []exp.Scenario
}

var workloads = []benchWorkload{
	{
		name:      "dc-hadoop",
		why:       "dense k=16 fat-tree under open-loop Hadoop flows at 60% load, serial: scheduler sort and switch hops dominate, the largest fabric build and heap",
		shards:    1,
		digestsOf: "dc-hadoop",
		scenarios: dcScenarios,
	},
	{
		name:      "incast-fanin",
		why:       "Figure 9 incast fan-in 10-50, RoCE+PFC against IRN without PFC: the loss-recovery path (drops, SACK retransmits, RTOs) on a reused fabric",
		shards:    1,
		digestsOf: "incast-fanin",
		scenarios: incastScenarios,
	},
	{
		name:      "kv-chaos",
		why:       "replicated KV under flap-storm, rolling-drain and blackout chaos: the sparse case where verbs, kv and fault do work and slot recycling beats sorting",
		shards:    1,
		digestsOf: "kv-chaos",
		scenarios: kvScenarios,
	},
	{
		name:      "dc-hadoop-2shard",
		why:       "dc-hadoop inputs on two shard engines: the only workload through cross-shard channels and epoch barriers; serial dc-hadoop is its bypass",
		shards:    2,
		digestsOf: "dc-hadoop",
		scenarios: dcScenarios,
	},
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// mixSeed derives a scenario seed from its preset seed, the run's seed
// and the input set; the default seed's first set keeps the preset's.
func mixSeed(preset, seed uint64, k int) uint64 {
	if preset == 0 {
		preset = 1 // exp.Scenario's default
	}
	if seed == defaultSeed && k == 0 {
		return preset
	}
	x := preset ^ (seed * 0x9e3779b97f4a7c15) ^ (uint64(k+1) * 0xd1b54a32d192ed03)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// groupByFabric orders a pass so scenarios sharing a fabric structure
// run back to back and reuse it through Network.Reset, as trials of one
// sweep do; PFC is the only structural difference inside a preset here.
func groupByFabric(ss []exp.Scenario) []exp.Scenario {
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].PFC && !ss[j].PFC })
	return ss
}

// dcScenarios sizes each pass by offered bytes, not flow count: the
// Hadoop size distribution is heavy-tailed, so a fixed flow count makes
// a pass's work swing ±25% from seed to seed, while a fixed byte volume
// holds it within a few percent.
func dcScenarios(seed uint64, k int) []exp.Scenario {
	ss := exp.FigureDC(exp.Scale{Flows: dcFlows}).Scenarios
	for i := range ss {
		ss[i].Seed = mixSeed(ss[i].Seed, seed, k)
		ss[i].NumFlows = dcFlowsFor(ss[i])
	}
	return groupByFabric(ss)
}

// dcFlowsFor returns the shortest prefix of s's Poisson flow sequence
// whose sizes reach dcFlows mean Hadoop flows. workload.Generate draws
// flows in sequence, so a longer draw extends a shorter one.
func dcFlowsFor(s exp.Scenario) int {
	dist := workload.NewHadoop()
	target := float64(dcFlows) * dist.Mean()
	cfg := poissonConfig(s)
	cfg.NumFlows = 16 * dcFlows
	total := 0.0
	for i, f := range workload.Generate(cfg) {
		total += float64(f.Size)
		if total >= target {
			return i + 1
		}
	}
	return cfg.NumFlows
}

func incastScenarios(seed uint64, k int) []exp.Scenario {
	ss := exp.Figure9(exp.Scale{IncastBytes: incastBytes, IncastReps: 1}).Scenarios
	for i := range ss {
		ss[i].Seed = mixSeed(ss[i].Seed, seed, k)
	}
	return groupByFabric(ss)
}

func kvScenarios(seed uint64, k int) []exp.Scenario {
	ss := exp.FigureKV(exp.Scale{Flows: kvFlows}).Scenarios
	for i := range ss {
		ss[i].Seed = mixSeed(ss[i].Seed, seed, k)
	}
	return groupByFabric(ss)
}

// Fabric parameters exp.Worker derives from a default scenario (40 Gbps,
// 2 µs links, 1000-byte MTU, no ECN); set-up timing rebuilds the same.
const (
	gbps = 40
	prop = 2 * sim.Microsecond
	mtu  = 1000
)

// fabricConfig mirrors the fabric.Config exp.Worker.Run builds for a
// scenario without congestion control or header overrides.
func fabricConfig(s exp.Scenario) fabric.Config {
	rate := fabric.Gbps(gbps)
	wire := mtu + packet.DataHeader
	cfg := fabric.Config{
		Rate:          rate,
		Prop:          prop,
		BufferBytes:   2 * fabric.BDPBytes(rate, prop, topo.FatTreeLongestPathHops),
		PFC:           s.PFC,
		PFCHeadroom:   fabric.BDPBytes(rate, prop, 1) + 3*wire,
		PFCHysteresis: 2 * wire,
		MTU:           mtu,
		Seed:          s.Seed,
	}
	if cfg.PFCHeadroom >= cfg.BufferBytes {
		cfg.PFCHeadroom = cfg.BufferBytes / 2
	}
	return cfg
}

// arity is s's fat-tree arity after exp's default of 6.
func arity(s exp.Scenario) int {
	if s.Arity == 0 {
		return 6
	}
	return s.Arity
}

// poissonConfig is the flow generator exp.Worker.Run configures for a
// FigureDC scenario.
func poissonConfig(s exp.Scenario) workload.PoissonConfig {
	return workload.PoissonConfig{
		Hosts:         arity(s) * arity(s) * arity(s) / 4,
		Load:          s.Load,
		RatePsPerByte: int64(fabric.Gbps(gbps)),
		MTU:           mtu,
		HeaderBytes:   packet.DataHeader,
		NumFlows:      s.NumFlows,
		Dist:          workload.NewHadoop(),
		Seed:          s.Seed,
	}
}

// setup performs, cold, the set-up calls one pass of ss makes inside
// exp.Worker.Run — a fat-tree, partitioning and fabric for each change
// of fabric structure, then each scenario's flow list and fault
// schedule — timing each call as a span under parent and adding its
// duration to timings under the span's name.
func setup(tr *tracer, parent int, timings map[string]time.Duration, ss []exp.Scenario, shards int) {
	call := func(name string, fn func()) {
		timings[name] += tr.span(name, parent, func(int) { fn() })
	}
	var top *topo.FatTree
	var built bool
	var pfc bool
	for _, s := range ss {
		if !built || s.PFC != pfc {
			built, pfc = true, s.PFC
			call("topo.build", func() {
				top = topo.NewFatTree(arity(s))
			})
			var assign []int
			var used int
			call("topo.partition", func() {
				assign, used = topo.PartitionNodes(top, shards)
			})
			call("fabric.build", func() {
				engs := make([]*sim.Engine, used)
				for i := range engs {
					engs[i] = sim.NewEngine()
				}
				fabric.NewPartitioned(engs, assign, top, fabricConfig(s))
			})
		}
		switch {
		case s.IncastM > 0:
			call("workload.generate", func() {
				workload.Incast(top.Hosts(), s.IncastM, s.IncastBytes, s.Seed)
			})
		case s.NumFlows > 0:
			call("workload.generate", func() {
				workload.Generate(poissonConfig(s))
			})
		}
		if s.KV.Requests > 0 {
			sched := kvSchedule(s.Name, top, s.KV.Requests)
			call("fault.compile", func() {
				if _, err := sched.Compile(top); err != nil {
					panic(fmt.Sprintf("perfbench: compile %s: %v", sched.Name, err))
				}
			})
		}
	}
}

// kvChaosSeed is exp.FigureKV's fixed chaos link-sampling seed.
const kvChaosSeed = 9001

// kvSchedule rebuilds the chaos schedule exp.FigureKV compiles for the
// named scenario, so set-up can time fault.Schedule.Compile on it; a test
// pins the compiled result to the preset's.
func kvSchedule(name string, t topo.Topology, requests int) *fault.Schedule {
	span := sim.Duration(requests/6) * 50 * sim.Microsecond
	cycles := min(max(int(span/(96*sim.Microsecond)), 2), 24)
	switch {
	case strings.Contains(name, "flap-leader"):
		storm := fault.NewSchedule("kv-flap-leader").At(sim.Time(100 * sim.Microsecond))
		for c := 0; c < cycles; c++ {
			storm.Phase(fmt.Sprintf("storm%d", c), 48*sim.Microsecond,
				fault.Blink(fault.Sample(fault.Uplinks(0), 3, kvChaosSeed+uint64(c)), 3, 6*sim.Microsecond))
			storm.Quiet(fmt.Sprintf("recover%d", c), 48*sim.Microsecond)
		}
		return storm
	case strings.Contains(name, "rolling-drain"):
		suite, ok := fault.SuiteByName("rolling-drain")
		if !ok {
			panic("perfbench: chaos suite rolling-drain missing")
		}
		return suite.Build(t, sim.Time(100*sim.Microsecond), 48*sim.Microsecond, cycles, kvChaosSeed)
	default:
		return fault.NewSchedule("kv-blackout").At(sim.Time(60*sim.Microsecond)).
			Phase("blackout", 1200*sim.Microsecond, fault.Down(fault.Uplinks(0))).
			Quiet("recover", 400*sim.Microsecond)
	}
}
