package fabric

import (
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// ectPooledBlaster is a pooledBlaster whose packets are ECN-capable.
type ectPooledBlaster struct{ *pooledBlaster }

func (e ectPooledBlaster) NextPacket(now sim.Time) *packet.Packet {
	p := e.pooledBlaster.NextPacket(now)
	p.ECT = true
	return p
}

// startIncast attaches an 8:1 incast of ECN-capable blasters into host 0
// of a k=4 fat-tree: hosts 1..8 each send pkts packets.
func startIncast(net *Network, pkts int) {
	for src := packet.NodeID(1); src <= 8; src++ {
		f := packet.FlowID(src)
		net.NIC(0).AttachSink(f, sinkFunc(func(*packet.Packet, sim.Time) {}))
		net.NIC(src).AttachSource(ectPooledBlaster{newPooledBlaster(net, f, src, 0, pkts, net.Cfg.MTU)})
	}
}

// maxVOQCap reports the largest VOQ ring capacity across the fabric.
func maxVOQCap(net *Network) int {
	m := 0
	for _, sw := range net.switches {
		for _, o := range sw.out {
			for i := range o.voq {
				m = max(m, cap(o.voq[i].buf))
			}
		}
	}
	return m
}

// TestResetAdoptsRunSettings: Reset takes every per-run setting from its
// config, so one fabric serves a PFC run and then a drop-tail ECN run
// exactly as a fresh build under the second config would, and holds no
// ring storage grown by the first run. Structural fields cannot change.
func TestResetAdoptsRunSettings(t *testing.T) {
	const pkts = 600
	ft := topo.NewFatTree(4)
	pfcCfg := testConfig()
	pfcCfg.PFC = true

	eng := sim.NewEngine()
	net := New(eng, ft, pfcCfg)
	startIncast(net, pkts)
	eng.Run()
	if net.Stats().PauseFrames == 0 {
		t.Fatal("incast under PFC sent no pause frames; test setup broken")
	}
	if c := maxVOQCap(net); c <= queueMinCap {
		t.Fatalf("largest VOQ ring holds %d slots, want > %d; test setup broken", c, queueMinCap)
	}

	ecnCfg := testConfig()
	ecnCfg.Seed = 17
	ecnCfg.ECN = ECNConfig{Enabled: true, KMin: 20_000, KMax: 80_000, PMax: 0.5}
	eng.Reset()
	net.Reset(ecnCfg)
	if c := maxVOQCap(net); c != 0 {
		t.Fatalf("reset fabric keeps a %d-slot VOQ ring, want every ring released", c)
	}
	startIncast(net, pkts)
	eng.Run()
	checkCensus(t, net)

	freshEng := sim.NewEngine()
	fresh := New(freshEng, ft, ecnCfg)
	startIncast(fresh, pkts)
	freshEng.Run()

	got, want := net.Stats(), fresh.Stats()
	if got != want {
		t.Errorf("reset fabric stats differ from a fresh build:\nreset: %+v\nfresh: %+v", got, want)
	}
	if got.PauseFrames != 0 || got.Drops == 0 || got.ECNMarked == 0 {
		t.Errorf("second run did not take the drop-tail ECN config: %+v", got)
	}
	if gc, wc := net.Census(), fresh.Census(); gc != wc {
		t.Errorf("reset fabric census differs from a fresh build:\nreset: %+v\nfresh: %+v", gc, wc)
	}

	for _, tc := range []struct {
		name   string
		change func(*Config)
	}{
		{"rate", func(c *Config) { c.Rate = Gbps(100) }},
		{"prop", func(c *Config) { c.Prop *= 2 }},
		{"mtu", func(c *Config) { c.MTU = 1500 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ecnCfg
			tc.change(&cfg)
			defer func() {
				if recover() == nil {
					t.Errorf("Reset accepted a %s change", tc.name)
				}
			}()
			eng.Reset()
			net.Reset(cfg)
		})
	}
}

// TestResetBalancesShardPools: packets die in the pool of the shard that
// receives them, so Reset deals a sharded fabric's free packets out
// evenly again; otherwise a fabric reused for run after run grows the
// receiving shard's free list without bound while the sending shard
// heap-allocates every run.
func TestResetBalancesShardPools(t *testing.T) {
	tree := topo.NewFatTree(4)
	assign, used := topo.PartitionNodes(tree, 2)
	engs := make([]*sim.Engine, used)
	for i := range engs {
		engs[i] = sim.NewEngine()
	}
	net := NewPartitioned(engs, assign, tree, testConfig())
	if len(net.parts) != 2 {
		t.Fatalf("fabric has %d partitions, want 2; test setup broken", len(net.parts))
	}
	const dead = 101
	for i := 0; i < dead; i++ {
		net.parts[1].pool.Release(net.parts[0].pool.NewData(1, 0, 1, 0, 1000, false))
	}
	for _, e := range engs {
		e.Reset()
	}
	net.Reset(testConfig())
	if a, b := net.parts[0].pool.FreeLen(), net.parts[1].pool.FreeLen(); a != 51 || b != 50 {
		t.Errorf("after Reset the shard pools hold %d and %d free packets, want 51 and 50", a, b)
	}
	if live := net.PoolLive(); live != 0 {
		t.Errorf("after Reset %d packets are live, want 0", live)
	}
}
