package workload

import (
	"fmt"

	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/stats"
)

// MotivationConfig parameterizes the §2.2 motivation experiment (Fig. 1):
// eight nodes in two 4-node ring groups over a 100 Gbps leaf-spine fabric,
// random packet spraying, each node sending MessageBytes to the next node of
// its group. The embedded ClusterConfig carries the arms (Transport: NIC-SR
// by default, Ideal for the Fig. 1d bound; LB: RandomSpray when left at
// ECMP) and the transport knobs; the fabric is pinned to the paper's 4×4×2
// leaf-spine at 100 Gbps whatever the embedded topology fields say.
//
// TI/TD default to the classic DCQCN values (55 us fast-recovery timer, 50
// us rate-reduce gate [41]): the Fig. 1c sawtooth (drops to ~50-90% with
// quick recovery, averaging ~86% of line rate) requires cuts to be
// rate-limited and recovery to be fast; Fig. 5 separately sweeps these knobs.
type MotivationConfig struct {
	ClusterConfig
	MessageBytes int64        // default 100 MB (the paper's size)
	Window       sim.Duration // meter window for time series (default 100 us)
	SampleEvery  sim.Duration // rate sampling period (default 10 us)
	Horizon      sim.Duration // simulation cap (default 10 s)
}

func (c MotivationConfig) withDefaults() MotivationConfig {
	// Pinned: the paper's 4×4×2 fabric at 100 Gbps.
	c.Leaves, c.Spines, c.HostsPerLeaf, c.FatTreeK = 4, 4, 2, 0
	c.Bandwidth = 100e9
	if c.LB == ECMP {
		c.LB = RandomSpray // the motivation study's default arm
	}
	if c.MessageBytes == 0 {
		c.MessageBytes = 100 << 20
	}
	if c.Window == 0 {
		c.Window = 100 * sim.Microsecond
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10 * sim.Microsecond
	}
	if c.Horizon == 0 {
		c.Horizon = 10 * sim.Second
	}
	if c.TI == 0 {
		c.TI = 55 * sim.Microsecond
	}
	if c.TD == 0 {
		c.TD = 50 * sim.Microsecond
	}
	return c
}

// Cluster returns the cluster RunMotivation builds: the embedded config with
// the motivation defaults and the pinned fabric applied.
func (c MotivationConfig) Cluster() ClusterConfig { return c.withDefaults().ClusterConfig }

// MotivationResult carries the Fig. 1 measurements.
type MotivationResult struct {
	// RetransRatio is the windowed retransmission ratio of the observed
	// flow (node 0 → node 2), Fig. 1b.
	RetransRatio *stats.Series
	// AvgRetransRatio is retransmitted/total data packets over all flows.
	AvgRetransRatio float64
	// RateGbps is the observed flow's sending rate over time, Fig. 1c.
	RateGbps *stats.Series
	// AvgRateGbps is the time-average of the observed flow's rate while it
	// was active.
	AvgRateGbps float64
	// ThroughputGbps is each flow's goodput over its completion time; the
	// average reproduces Fig. 1d's bar.
	ThroughputGbps []float64
	AvgThroughput  float64
	// CompletionTime is when the last flow finished.
	CompletionTime sim.Time
	// Aggregate transport counters.
	Sender rnic.SenderStats
	// Engine is the event-loop counter block for this trial's engine.
	Engine sim.Metrics
}

// MotivationFlows returns the ring flow pairs of Fig. 1a: two groups
// {0,2,4,6} and {1,3,5,7}, each node sending to the next in its group.
func MotivationFlows() [][2]packet.NodeID {
	var flows [][2]packet.NodeID
	for _, start := range []int{0, 1} {
		for i := 0; i < 4; i++ {
			src := packet.NodeID(start + 2*i)
			dst := packet.NodeID(start + 2*((i+1)%4))
			flows = append(flows, [2]packet.NodeID{src, dst})
		}
	}
	return flows
}

// RunMotivation executes the Fig. 1 experiment and returns its measurements.
func RunMotivation(cfg MotivationConfig) (*MotivationResult, error) {
	cfg = cfg.withDefaults()
	cl, err := BuildCluster(cfg.ClusterConfig)
	if err != nil {
		return nil, err
	}

	flows := MotivationFlows()
	res := &MotivationResult{}
	ratio := stats.NewRatioMeter("retransmission ratio (flow 0->2)", cfg.Window)
	rate := stats.NewSeries("rate Gbps (flow 0->2)")

	remaining := len(flows)
	completions := make([]sim.Time, len(flows))
	conns := make([]*Conn, len(flows))
	for i, f := range flows {
		i := i
		cn := cl.Conn(f[0], f[1])
		conns[i] = cn
		if i == 0 { // the observed flow: node 0 -> node 2
			cn.Sender.OnSend = func(t sim.Time, _ packet.PSN, _ int, retrans bool) {
				r := 0.0
				if retrans {
					r = 1
				}
				ratio.Observe(t, r, 1)
			}
		}
		cn.Send(cfg.MessageBytes, func() {
			completions[i] = cl.Engine.Now()
			remaining--
			if remaining == 0 {
				cl.Engine.Stop()
			}
		})
	}

	// Sample the observed flow's DCQCN rate (Fig. 1c).
	sampler := sim.NewTicker(cl.Engine, cfg.SampleEvery, func() {
		rate.Add(cl.Engine.Now(), float64(conns[0].Sender.Rate())/1e9)
	})
	sampler.Start()
	end := cl.Run(cfg.Horizon)
	sampler.Stop()
	cl.Engine.RunAll() // drain remaining events (acks in flight, timers)

	if remaining != 0 {
		return nil, fmt.Errorf("workload: motivation run incomplete: %d flows unfinished at %v", remaining, end)
	}

	res.RetransRatio = ratio.Finish(completions[0])
	res.RateGbps = rate
	res.CompletionTime = maxTime(completions)
	res.Sender = cl.AggregateSenderStats()
	if res.Sender.DataPackets > 0 {
		res.AvgRetransRatio = float64(res.Sender.Retransmits) / float64(res.Sender.DataPackets)
	}
	// Truncate the rate series to the observed flow's active period before
	// averaging.
	var active []float64
	for _, s := range res.RateGbps.Samples {
		if s.T <= completions[0] {
			active = append(active, s.V)
		}
	}
	res.AvgRateGbps = stats.Mean(active)
	for i := range flows {
		gbps := float64(conns[i].Sender.Stats().GoodputBytes) * 8 / completions[i].Seconds() / 1e9
		res.ThroughputGbps = append(res.ThroughputGbps, gbps)
	}
	res.AvgThroughput = stats.Mean(res.ThroughputGbps)
	res.Engine = cl.Engine.Metrics()
	return res, nil
}

func maxTime(ts []sim.Time) sim.Time {
	var m sim.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
