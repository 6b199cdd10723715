package fabric

import (
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// ECNConfig is RED-style marking at switch egress queues, the signal DCQCN
// and DCTCP react to. Marking probability rises linearly from 0 at KMin to
// PMax at KMax, then 1 above KMax.
type ECNConfig struct {
	Enabled bool
	KMin    int // bytes
	KMax    int // bytes
	PMax    float64
}

// Config sets the fabric-wide parameters of a simulation. The defaults
// (see DefaultConfig) correspond to the paper's default case scenario:
// 40 Gbps links, 2 µs propagation delay, per-port buffers of twice the
// 120 KB longest-path BDP, and a PFC threshold leaving headroom for one
// upstream-link BDP.
//
// Rate, Prop and MTU are structural: ports and the shard lookahead are
// built from Rate and Prop, MTU is the packet geometry that goes with
// them, and Network.Reset refuses to change any of the three. Every other
// field is a per-run setting, read from Network.Cfg per packet, which
// Reset adopts for the next run on the same fabric.
type Config struct {
	// Rate is the link rate for every link in the fabric (structural).
	Rate Rate
	// Prop is the per-link propagation delay (structural).
	Prop sim.Duration
	// BufferBytes is the per-input-port buffer at switches.
	BufferBytes int
	// PFC enables priority flow control. When false, a full input buffer
	// drops packets (drop-tail).
	PFC bool
	// PFCHeadroom is subtracted from BufferBytes to get the pause
	// threshold: it must absorb the packets in flight on the upstream
	// link after the pause frame is sent (§4.1).
	PFCHeadroom int
	// PFCHysteresis is how far below the threshold the buffer must drain
	// before resuming, limiting pause/resume flapping.
	PFCHysteresis int
	// ECN configures marking.
	ECN ECNConfig
	// MTU is the data payload size per packet (structural).
	MTU int
	// Seed drives ECN marking randomness.
	Seed uint64
	// LossInject, when non-nil, is consulted for every packet arriving
	// at a switch; returning true discards the packet (counted as a
	// drop). Tests and failure-injection experiments use it to create
	// deterministic or random losses independent of buffer pressure.
	LossInject func(pkt *packet.Packet) bool
	// Faults, when non-nil, is the compiled fault model for this run:
	// per-link random loss and corruption rates plus the link flap and
	// degradation schedule. Faults resolve at the arrival end of each
	// link (see outPort); scheduled transitions run as typed engine
	// events. Nil injects nothing.
	Faults *fault.Model
	// Spray selects per-packet (instead of per-flow) multipathing: each
	// packet picks an equal-cost path independently, as fine-grained
	// load balancers do (DRILL, packet spraying — §7 "Reordering due to
	// load-balancing"). It reorders packets within a flow; IRN tolerates
	// this with NackThreshold > 1.
	Spray bool
	// SharedBuffer pools each switch's buffer across its input ports
	// instead of partitioning it per port (§A.5: "We expect to see
	// similar behaviour in shared buffer switches"). BufferBytes then
	// sizes the shared pool per port (total = ports × BufferBytes), and
	// PFC asserts against per-input occupancy of the shared pool.
	SharedBuffer bool
}

// DefaultConfig returns the paper's default-case fabric: 40 Gbps, 2 µs
// links; 6-hop BDP 120 KB; buffer 2×BDP = 240 KB; PFC threshold ≈ 217 KB.
// The headroom is the paper's "upstream link's bandwidth-delay product"
// (one link RTT of in-flight data, 20 KB) plus serialization slack: the
// packet in flight when X-OFF is generated and the packet that may
// overshoot the threshold check.
func DefaultConfig() Config {
	rate := Gbps(40)
	prop := 2 * sim.Microsecond
	bdp := BDPBytes(rate, prop, 6) // 120 KB
	linkBDP := BDPBytes(rate, prop, 1)
	const mtu = 1000
	wire := mtu + packet.DataHeader
	return Config{
		Rate:          rate,
		Prop:          prop,
		BufferBytes:   2 * bdp,
		PFC:           false,
		PFCHeadroom:   linkBDP + 3*wire,
		PFCHysteresis: 2 * wire,
		MTU:           mtu,
		Seed:          1,
	}
}

// PFCThreshold returns the input-buffer occupancy above which a switch
// sends X-OFF upstream.
func (c *Config) PFCThreshold() int { return c.BufferBytes - c.PFCHeadroom }

// Stats aggregates fabric-wide counters for a run.
type Stats struct {
	Delivered    uint64 // data packets delivered to hosts
	CtrlDeliv    uint64 // control packets delivered to hosts
	Drops        uint64 // packets dropped at full input buffers
	FaultDrops   uint64 // packets lost to injected faults (random loss, downed links)
	Corrupted    uint64 // packets dropped by the receiving port's CRC check
	ECNMarked    uint64 // packets CE-marked
	PauseFrames  uint64 // X-OFF frames sent
	ResumeFrames uint64 // X-ON frames sent
	DataBytes    uint64 // data wire bytes delivered at hosts
}
