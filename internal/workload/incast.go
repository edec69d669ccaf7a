package workload

import (
	"fmt"

	"themis/internal/packet"
	"themis/internal/sim"
)

// IncastConfig parameterizes a many-to-one stress test: every other host
// sends MessageBytes to host 0 simultaneously. Incast is not one of the
// paper's headline workloads but is the regime that stresses two substrate
// properties Themis relies on: PFC's losslessness (drops would turn every
// blocked NACK into a compensation or timeout) and the strict-priority
// control class (NACK return latency bounds the §3.3 ring sizing). The
// embedded ClusterConfig describes everything but the topology, which is
// pinned to one host per rack (Senders+1 leaves and spines, no fat-tree);
// Bandwidth defaults to 100 Gbps.
type IncastConfig struct {
	ClusterConfig
	Senders      int   // fan-in degree (default 15)
	MessageBytes int64 // per sender (default 2 MB)
	Horizon      sim.Duration
}

func (c IncastConfig) withDefaults() IncastConfig {
	if c.Senders == 0 {
		c.Senders = 15
	}
	if c.MessageBytes == 0 {
		c.MessageBytes = 2 << 20
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 100e9
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * sim.Second
	}
	// Pinned: each sender on its own rack so every flow crosses the fabric.
	c.Leaves, c.Spines, c.HostsPerLeaf, c.FatTreeK = c.Senders+1, c.Senders+1, 1, 0
	return c
}

// Cluster returns the cluster RunIncast builds: the embedded config with the
// incast defaults and the pinned one-host-per-rack fabric applied.
func (c IncastConfig) Cluster() ClusterConfig { return c.withDefaults().ClusterConfig }

// IncastResult carries the incast measurements.
type IncastResult struct {
	CCT         sim.Time // when the last sender's message is acknowledged
	Drops       uint64
	Pauses      uint64 // PFC pause frames sent by the destination ToR
	Sender      SenderAgg
	GoodputGbps float64 // receiver goodput over the completion time
	// Engine is the event-loop counter block for this trial's engine.
	Engine sim.Metrics
}

// SenderAgg is the aggregate sender-side counters of an incast run.
type SenderAgg struct {
	Retransmits uint64
	Timeouts    uint64
	NacksRx     uint64
}

// RunIncast places each sender on its own rack (see IncastConfig), then
// blasts them all at host 0.
func RunIncast(cfg IncastConfig) (*IncastResult, error) {
	cfg = cfg.withDefaults()
	cl, err := BuildCluster(cfg.ClusterConfig)
	if err != nil {
		return nil, err
	}
	res := &IncastResult{}
	done := 0
	for h := 1; h <= cfg.Senders; h++ {
		cl.Conn(packet.NodeID(h), 0).Send(cfg.MessageBytes, func() {
			done++
			if cl.Engine.Now() > res.CCT {
				res.CCT = cl.Engine.Now()
			}
			if done == cfg.Senders {
				cl.Engine.Stop()
			}
		})
	}
	end := cl.Run(cfg.Horizon)
	cl.Engine.RunAll()
	if done != cfg.Senders {
		return nil, fmt.Errorf("workload: incast incomplete: %d/%d senders at %v", done, cfg.Senders, end)
	}
	agg := cl.AggregateSenderStats()
	res.Sender = SenderAgg{Retransmits: agg.Retransmits, Timeouts: agg.Timeouts, NacksRx: agg.NacksRx}
	res.Drops = cl.Net.Counters().DataDrops
	res.Pauses, _ = cl.Net.PFCStats(cl.Topo.ToROf(0))
	total := float64(cfg.MessageBytes) * float64(cfg.Senders)
	res.GoodputGbps = total * 8 / res.CCT.Seconds() / 1e9
	res.Engine = cl.Engine.Metrics()
	return res, nil
}
