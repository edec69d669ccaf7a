package workload

import (
	"fmt"

	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/fabric"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
)

// CollectiveConfig parameterizes the §5 evaluation (Fig. 5): synchronized
// collective communication across groups that each span all racks. The
// embedded ClusterConfig describes the fabric (defaults: the paper's 16×16
// leaf-spine at 400 Gbps with 16 hosts per leaf = 256 NICs); it must be a
// leaf-spine, since groups are built from racks.
type CollectiveConfig struct {
	ClusterConfig
	Pattern collective.Pattern
	// MessageBytes is the per-group collective size S (paper: 300 MB).
	MessageBytes int64
	// Groups is the number of communication groups; group g consists of
	// host g of every leaf, so every group spans all racks and GroupSize ==
	// Leaves. Defaults to HostsPerLeaf (every NIC participates).
	Groups  int
	Horizon sim.Duration // simulation cap (default 30 s)
	// LinkFail, if non-nil, takes one switch port down mid-run (§5.3).
	LinkFail *LinkFault
}

// LinkFault declaratively describes a single link failure: switch Switch's
// port Port goes down at time At; Repair > 0 brings it back up at that time.
type LinkFault struct {
	Switch int          `json:"switch"`
	Port   int          `json:"port"`
	At     sim.Duration `json:"at"`
	Repair sim.Duration `json:"repair,omitempty"`
}

func (c CollectiveConfig) withDefaults() CollectiveConfig {
	if c.MessageBytes == 0 {
		c.MessageBytes = 300 << 20
	}
	if c.Leaves == 0 {
		c.Leaves = 16
	}
	if c.Spines == 0 {
		c.Spines = 16
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 16
	}
	if c.Groups == 0 {
		c.Groups = c.HostsPerLeaf
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * sim.Second
	}
	return c
}

// Cluster returns the cluster RunCollective builds: the embedded config with
// the collective defaults applied.
func (c CollectiveConfig) Cluster() ClusterConfig { return c.withDefaults().ClusterConfig }

// CollectiveResult carries one Fig. 5 data point.
type CollectiveResult struct {
	// TailCCT is the completion time of the slowest group — the paper's
	// metric ("the training job's communication bottleneck").
	TailCCT sim.Time
	// GroupCCT is each group's completion time.
	GroupCCT []sim.Time
	// Sender aggregates transport counters over all QPs.
	Sender rnic.SenderStats
	// Middleware aggregates Themis counters (zero unless LB == Themis).
	Middleware core.Stats
	// Net aggregates fabric counters (drops, PFC pauses, ECN marks).
	Net fabric.Counters
	// Engine is the event-loop counter block for this trial's engine.
	Engine sim.Metrics
}

// RetransRatio is the fraction of transmitted data packets that were
// retransmissions.
func (r *CollectiveResult) RetransRatio() float64 {
	if r.Sender.DataPackets == 0 {
		return 0
	}
	return float64(r.Sender.Retransmits) / float64(r.Sender.DataPackets)
}

// GroupHosts returns the members of group g: host g of every leaf, i.e. one
// NIC per rack (§5's group construction).
func GroupHosts(leaves, hostsPerLeaf, g int) []packet.NodeID {
	hosts := make([]packet.NodeID, leaves)
	for l := 0; l < leaves; l++ {
		hosts[l] = packet.NodeID(l*hostsPerLeaf + g)
	}
	return hosts
}

// RunCollective executes one Fig. 5 cell: all groups start the same
// collective simultaneously; the result records per-group and tail CCT.
func RunCollective(cfg CollectiveConfig) (*CollectiveResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Groups > cfg.HostsPerLeaf {
		return nil, fmt.Errorf("workload: %d groups need at most HostsPerLeaf=%d", cfg.Groups, cfg.HostsPerLeaf)
	}
	if cfg.FatTreeK > 0 {
		return nil, fmt.Errorf("workload: collective groups are leaf-spine racks; FatTreeK=%d is not supported", cfg.FatTreeK)
	}
	cl, err := BuildCluster(cfg.ClusterConfig)
	if err != nil {
		return nil, err
	}
	if f := cfg.LinkFail; f != nil {
		f := *f
		cl.Engine.Schedule(f.At, func() { cl.FailLink(f.Switch, f.Port) })
		if f.Repair > 0 {
			cl.Engine.Schedule(f.Repair, func() { cl.RepairLink(f.Switch, f.Port) })
		}
	}

	res := &CollectiveResult{GroupCCT: make([]sim.Time, cfg.Groups)}
	remaining := cfg.Groups
	for g := 0; g < cfg.Groups; g++ {
		g := g
		hosts := GroupHosts(cfg.Leaves, cfg.HostsPerLeaf, g)
		collective.Run(cfg.Pattern, cl.Mesh(hosts), len(hosts), cfg.MessageBytes, func() {
			res.GroupCCT[g] = cl.Engine.Now()
			remaining--
			if remaining == 0 {
				cl.Engine.Stop()
			}
		})
	}
	end := cl.Run(cfg.Horizon)
	cl.Engine.RunAll() // drain in-flight control traffic and timers

	if remaining != 0 {
		return nil, fmt.Errorf("workload: collective incomplete: %d groups unfinished at %v (pattern=%v lb=%v)", remaining, end, cfg.Pattern, cfg.LB)
	}
	res.TailCCT = maxTime(res.GroupCCT)
	res.Sender = cl.AggregateSenderStats()
	res.Middleware = cl.ThemisStats()
	res.Net = cl.Net.Counters()
	res.Engine = cl.Engine.Metrics()
	return res, nil
}

// DCQCNSetting is one (TI, TD) column of Fig. 5.
type DCQCNSetting struct {
	TI, TD sim.Duration
}

// PaperDCQCNSettings returns the five Fig. 5 configurations, in paper order:
// (900,4), (300,4), (10,4), (10,50), (10,200) microseconds.
func PaperDCQCNSettings() []DCQCNSetting {
	us := sim.Microsecond
	return []DCQCNSetting{
		{900 * us, 4 * us},
		{300 * us, 4 * us},
		{10 * us, 4 * us},
		{10 * us, 50 * us},
		{10 * us, 200 * us},
	}
}

// Fig5Arms returns the three compared systems, in paper order.
func Fig5Arms() []LBMode { return []LBMode{ECMP, Adaptive, Themis} }
