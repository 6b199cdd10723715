package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/sim"
)

// digest hashes a Result's deterministic outputs. Like the repository's
// shard-determinism tests it leaves out what legitimately varies with
// the shard count or the host — ShardStats (barrier wait is wall-clock),
// MetricsBytes and ShardsUsed — and it names the fields it keeps, so a
// field added to exp.Result later does not change every digest.
func digest(r exp.Result) string {
	b, err := json.Marshal(struct {
		Name         string
		Summary      metrics.Summary
		SinglePktCDF []metrics.CDFPoint
		RCT          sim.Duration
		Net          fabric.Stats
		Census       fabric.Census
		InFlight     int
		PoolLive     int
		CtrlBacklog  int
		Retransmits  uint64
		Timeouts     uint64
		Events       uint64
		SimTime      sim.Time
		FCTSketch    *metrics.Histogram
		KV           *kv.Report
	}{
		r.Name, r.Summary, r.SinglePktCDF, r.RCT, r.Net, r.Census, r.InFlight, r.PoolLive,
		r.CtrlBacklog, r.Retransmits, r.Timeouts, r.Events, r.SimTime, r.FCTSketch, r.KV,
	})
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest %s: %v", r.Name, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// invariantErrors returns every end-of-run invariant r breaks; they hold
// for any seed.
func invariantErrors(r exp.Result) []string {
	var errs []string
	c := r.Census
	if c.Injected != c.Exits()+uint64(r.InFlight) {
		errs = append(errs, fmt.Sprintf("conservation: injected %d != exits %d + in flight %d", c.Injected, c.Exits(), r.InFlight))
	}
	if r.PoolLive != r.InFlight+r.CtrlBacklog {
		errs = append(errs, fmt.Sprintf("pool: live %d != in flight %d + ctrl backlog %d", r.PoolLive, r.InFlight, r.CtrlBacklog))
	}
	if r.Incomplete != 0 {
		errs = append(errs, fmt.Sprintf("%d incomplete flows", r.Incomplete))
	}
	if r.KV != nil && r.KV.Resolved != r.KV.Issued {
		errs = append(errs, fmt.Sprintf("kv: resolved %d != issued %d", r.KV.Resolved, r.KV.Issued))
	}
	return errs
}

// checker validates every scenario run of a benchmark run. Each
// scenario's digest must repeat on every pass; where want holds an
// expected digest (the recorded ones at the default seed, or a serial
// reference run's), it must match that too.
type checker struct {
	want      map[string]string // digest key → expected digest
	first     map[string]string // digest key → digest of its first run
	attempted int
	failed    int
	errors    []string
}

func newChecker(want map[string]string) *checker {
	return &checker{want: want, first: map[string]string{}}
}

// check validates one scenario run, filed under key, and reports
// whether it passed.
func (c *checker) check(key string, r exp.Result) bool {
	c.attempted++
	errs := invariantErrors(r)
	d := digest(r)
	if f, ok := c.first[key]; !ok {
		c.first[key] = d
	} else if f != d {
		errs = append(errs, fmt.Sprintf("digest %s differs from the first pass's %s", d, f))
	}
	if w, ok := c.want[key]; ok && w != d {
		errs = append(errs, fmt.Sprintf("digest %s, want %s", d, w))
	}
	if len(errs) == 0 {
		return true
	}
	c.failed++
	if len(c.errors) < 20 {
		for _, e := range errs {
			c.errors = append(c.errors, key+": "+e)
		}
	}
	return false
}

// failedShare is failed scenario runs over those attempted.
func (c *checker) failedShare() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
