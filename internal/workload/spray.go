package workload

import (
	"fmt"

	"themis/internal/fabric"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/topo"
)

// streamKeyShardEngine is the sim.StreamSeed key namespace for per-shard
// engine seeds. The sharded fabric never draws from engine RNGs (switches use
// identity-keyed streams, NICs are deterministic), so these seeds only matter
// if a future component forgets that rule — distinct per-shard seeds make such
// a bug show up as shard-count-dependent output instead of silently passing.
func streamKeyShardEngine(shard int) uint64 { return 0xE5<<56 | uint64(shard) }

// SprayConfig parameterizes the space-parallel permutation workload: every
// host on a K-ary fat-tree sends one message to the host half the cluster
// away (dst = (src + H/2) mod H), so all traffic crosses the core and every
// shard carries an equal slice. This is the workload that genuinely exercises
// the sharded engine — the legacy Cluster workloads have global drivers and
// pin themselves to one shard (see ClusterConfig.Shards).
//
// The embedded ClusterConfig describes the fabric and NICs the same way it
// does for BuildCluster, with three differences: the topology is always a
// fat-tree (FatTreeK, default 4; the leaf-spine fields are ignored),
// Bandwidth defaults to 100 Gbps, and Shards is the number of space-parallel
// shards (default 1) — the result is byte-identical for every legal value,
// the determinism contract TestSprayShardInvariance enforces. Settings the
// sharded network cannot honour (the Themis arm, a tracer or metrics
// registry, DropEveryNData, distributed routing) fail the run with an error.
type SprayConfig struct {
	ClusterConfig
	MessageBytes int64        // per host (default 1 MB)
	Horizon      sim.Duration // default 30 s
}

func (c SprayConfig) withDefaults() SprayConfig {
	// Pinned: the permutation runs on a fat-tree only.
	c.Leaves, c.Spines, c.HostsPerLeaf = 0, 0, 0
	if c.FatTreeK == 0 {
		c.FatTreeK = 4
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 100e9
	}
	if c.MessageBytes == 0 {
		c.MessageBytes = 1 << 20
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * sim.Second
	}
	c.ClusterConfig = c.ClusterConfig.withDefaults()
	return c
}

// Cluster returns the cluster RunSpray builds: the embedded config with the
// spray and cluster defaults applied.
func (c SprayConfig) Cluster() ClusterConfig { return c.withDefaults().ClusterConfig }

// SprayResult carries the permutation measurements.
type SprayResult struct {
	CCT      sim.Time   // when the last message is acknowledged
	Complete []sim.Time // per-sender completion time, indexed by source host
	Sender   SenderAgg
	Net      fabric.Counters
	// Engine is the merged event-loop counter block of all shard engines.
	// EventsExecuted and EventsCancelled are partition-invariant; the
	// allocator counters (EventAllocs, EventReuses, HeapHighWater) depend on
	// per-shard free-list locality and are excluded from the determinism
	// contract.
	Engine sim.Metrics
	End    sim.Time
}

// RunSpray builds the sharded fat-tree dataplane and runs the permutation.
func RunSpray(cfg SprayConfig) (*SprayResult, error) {
	cfg = cfg.withDefaults()
	if cfg.LB == Themis {
		return nil, fmt.Errorf("workload: spray does not support the Themis pipeline yet (core wiring is classic-engine only)")
	}
	t, err := cfg.topology()
	if err != nil {
		return nil, err
	}
	part, err := topo.PartitionRacks(t, cfg.Shards)
	if err != nil {
		return nil, err
	}
	la, err := topo.Lookahead(t, part)
	if err != nil {
		return nil, err
	}
	engines := make([]*sim.Engine, cfg.Shards)
	for i := range engines {
		engines[i] = sim.NewEngine(sim.StreamSeed(cfg.Seed, streamKeyShardEngine(i)))
	}
	group := sim.NewShardGroup(engines, la)

	// The sharded network refuses what it cannot partition (tracing,
	// metrics, loss hooks, distributed routing) with an error.
	net, err := fabric.NewShardedNetwork(group, t, part, cfg.Seed, cfg.fabricConfig())
	if err != nil {
		return nil, err
	}

	h2 := t.NumHosts()
	nics := make([]*rnic.NIC, h2)
	// Per-sender entropy state lives on the sender's own shard and is a pure
	// function of its transport feedback, so the spraying arms stay
	// shard-invariant.
	ncfg := cfg.nicConfig()
	for h := 0; h < h2; h++ {
		id := packet.NodeID(h)
		shard := part.HostShard[h]
		ncfg.Pool = net.ShardPool(shard)
		nic := rnic.New(group.Shard(shard), id, ncfg, func(p *packet.Packet) { net.Inject(id, p) })
		net.AttachHost(id, nic.HandlePacket)
		nics[h] = nic
	}

	res := &SprayResult{Complete: make([]sim.Time, h2)}
	senders := make([]*rnic.SenderQP, h2)
	for h := 0; h < h2; h++ {
		src, dst := packet.NodeID(h), packet.NodeID((h+h2/2)%h2)
		qp, sport := packet.QPID(h+1), uint16(1000+h)
		s := nics[src].OpenSender(qp, dst, sport)
		nics[dst].OpenReceiver(qp, src, sport)
		senders[h] = s
		// Each completion closure writes only its own slot on its own
		// shard's engine — no cross-shard state, so no coordination needed.
		eng, slot := group.Shard(part.HostShard[h]), h
		s.SendMessage(cfg.MessageBytes, func() { res.Complete[slot] = eng.Now() })
	}

	res.End = group.Run(sim.Time(cfg.Horizon))
	for h, at := range res.Complete {
		if at == 0 {
			return nil, fmt.Errorf("workload: spray incomplete: host %d unfinished at %v", h, res.End)
		}
		if at > res.CCT {
			res.CCT = at
		}
	}
	for _, s := range senders {
		st := s.Stats()
		res.Sender.Retransmits += st.Retransmits
		res.Sender.Timeouts += st.Timeouts
		res.Sender.NacksRx += st.NacksRx
	}
	res.Net = net.Counters()
	res.Engine = group.Metrics()
	return res, nil
}
