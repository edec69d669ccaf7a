// Package workload is the experiment harness: it assembles topology, fabric,
// NICs, Themis and collective schedules into the paper's experiments and
// collects the metrics each figure reports.
//
// The two experiment families are:
//
//   - RunMotivation — the §2.2 motivation study (Fig. 1): two 4-node ring
//     groups over a 100 Gbps leaf-spine with random packet spraying, showing
//     the spurious-retransmission ratio (1b), NACK-driven rate drops (1c)
//     and the throughput gap to an ideal transport (1d).
//
//   - RunCollective — the §5 evaluation (Fig. 5): 16 groups × 16 NICs on a
//     16×16 400 Gbps leaf-spine running ring Allreduce or Alltoall under
//     ECMP / adaptive routing / Themis across DCQCN (TI, TD) settings,
//     reporting the slowest group's communication completion time.
package workload

import (
	"fmt"

	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/fabric"
	"themis/internal/lb"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/route"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/trace"
)

// LBMode selects the load-balancing arm of an experiment.
type LBMode int

const (
	// ECMP is flow-level hashing (the deployed default).
	ECMP LBMode = iota
	// RandomSpray is per-packet uniform spraying (RPS).
	RandomSpray
	// Adaptive is per-packet least-queue adaptive routing (AR).
	Adaptive
	// Flowlet is flowlet switching.
	Flowlet
	// SprayNoThemis applies the PSN-based spraying policy with no Themis-D
	// filtering — the "direct combination" the paper's deltas are against.
	SprayNoThemis
	// Themis installs the full middleware: Themis-S spraying at source ToRs
	// and Themis-D NACK filtering + compensation at destination ToRs.
	Themis
	// REPS is Recycled Entropy Packet Spraying: the sender sprays via a
	// bounded cache of recently-ACKed entropy values (lb.REPS) fed by the
	// RNIC's transport feedback; switches hash the stamped entropy with
	// plain ECMP.
	REPS
	// CongestionAware sprays per-packet round-robin entropy at the sender
	// and steers around congested paths switch-locally (lb.CongestionAware:
	// per-port ECN-knee EWMA), with DCQCN cutting by per-path α estimates
	// instead of the flow-global one.
	CongestionAware
)

// String returns the arm mnemonic.
func (m LBMode) String() string {
	switch m {
	case ECMP:
		return "ecmp"
	case RandomSpray:
		return "rps"
	case Adaptive:
		return "adaptive"
	case Flowlet:
		return "flowlet"
	case SprayNoThemis:
		return "spray-nothemis"
	case Themis:
		return "themis"
	case REPS:
		return "reps"
	case CongestionAware:
		return "congestion"
	default:
		return fmt.Sprintf("LBMode(%d)", int(m))
	}
}

// ClusterConfig describes one simulated cluster. It is the only cluster
// description: every workload config embeds it and adds its own shape
// fields, defaults and pins.
type ClusterConfig struct {
	Seed int64

	// Shards > 0 drives the trial through the sim.ShardGroup epoch
	// coordinator instead of calling Engine.Run directly. The legacy
	// workloads built on Cluster have global drivers (collective round
	// logic, the churn driver, chaos injectors, shared loss hooks) that
	// cannot be space-partitioned without changing their timing, so they
	// always run as a single shard regardless of the requested count — the
	// knob proves coordinator inertness (byte-identical results for any
	// value) rather than buying parallelism here. The spray workload
	// (RunSpray) is the genuinely partitioned path.
	Shards int

	// Topology: leaf-spine unless FatTreeK > 0.
	Leaves, Spines, HostsPerLeaf int
	FatTreeK                     int
	Bandwidth                    int64        // all links
	LinkDelay                    sim.Duration // per-hop propagation

	// Switch.
	BufferBytes int  // default 64 MB (the paper's switch buffer)
	DisableECN  bool // ECN marking is on by default (DCQCN needs it)
	DisablePFC  bool // PFC is on by default (RoCE fabrics run lossless)

	// Load balancing.
	LB         LBMode
	FlowletGap sim.Duration // default 50 us
	// RepsCache is the REPS entropy-ring capacity (default
	// lb.DefaultREPSCache). Used when LB == REPS.
	RepsCache int
	// PathBuckets is the entropy-bucket count of the congestion-aware arm:
	// the sender round-robins data packets over this many source ports and
	// DCQCN keeps one α per bucket (default 16). Used when
	// LB == CongestionAware.
	PathBuckets int

	// NIC / transport.
	Transport  rnic.Transport
	MTU        int
	BurstBytes int // default 16 KB pacer bursts
	RTO        sim.Duration
	RTOBackoff float64      // RTO multiplier per consecutive timeout (<=1: fixed RTO)
	RTOMax     sim.Duration // backoff cap (default 100x RTO when backing off)
	AckEvery   int
	DisableCC  bool
	TI, TD     sim.Duration // DCQCN knobs (Fig. 5 sweep)
	NackFactor float64      // DCQCN NACK-cut factor (default cc's 0.75)

	// LossyControl subjects ACK/NACK/CNP to buffer drops and injected loss
	// (fabric.Config.ControlLossless = false) — the robustness configuration;
	// production RoCE fabrics keep the control class lossless.
	LossyControl bool

	// DistributedRouting replaces the instant global routing oracle with the
	// per-switch BGP-style control plane (internal/route): link events
	// propagate hop-by-hop with ConvergenceDelay per message, and forwarding
	// during the window uses each switch's possibly-stale FIB.
	DistributedRouting bool
	// ConvergenceDelay is the per-hop control-message processing delay.
	// Zero converges synchronously (oracle-equivalent results).
	ConvergenceDelay sim.Duration

	// DropEveryNData, if positive, drops every Nth data packet at switch
	// egress — the declarative form of the counter-based LossFunc the loss
	// ablations use, expressible in a serialized scenario.
	DropEveryNData int

	// Themis middleware (used when LB == Themis).
	ThemisCfg core.Config

	// Tracer, if non-nil, records packet and middleware events for
	// debugging (see internal/trace).
	Tracer *trace.Tracer

	// Metrics, if non-nil, is shared by every component of the cluster:
	// fabric counters, per-NIC sender stats and per-ToR Themis verdicts all
	// register on it as pull-based gauges (see internal/obs).
	Metrics *obs.Registry
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Bandwidth == 0 {
		c.Bandwidth = 400e9
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = sim.Microsecond
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 64 << 20
	}
	if c.BurstBytes == 0 {
		c.BurstBytes = 16 << 10
	}
	if c.FlowletGap == 0 {
		c.FlowletGap = 50 * sim.Microsecond
	}
	if c.RepsCache == 0 {
		c.RepsCache = lb.DefaultREPSCache
	}
	if c.PathBuckets == 0 {
		c.PathBuckets = 16
	}
	return c
}

func (c ClusterConfig) selector() func() lb.Selector {
	switch c.LB {
	case ECMP, Themis:
		// Themis steers via the ToR pipeline; non-steered traffic (e.g.
		// unregistered or fallback flows) uses ECMP.
		return func() lb.Selector { return lb.ECMP{} }
	case RandomSpray:
		return func() lb.Selector { return lb.RandomSpray{} }
	case Adaptive:
		return func() lb.Selector { return lb.Adaptive{} }
	case Flowlet:
		gap := c.FlowletGap
		return func() lb.Selector { return lb.NewFlowlet(gap) }
	case SprayNoThemis:
		return func() lb.Selector { return lb.PSNSpray{} }
	case REPS:
		// The sender's entropy cache does the path steering; switches just
		// hash the stamped five-tuple.
		return func() lb.Selector { return lb.ECMP{} }
	case CongestionAware:
		// Bias the spray away from ports whose queue has been sitting at or
		// above the ECN-marking knee — the same signal DCQCN reacts to, read
		// switch-locally and a feedback-delay earlier.
		mark := fabric.DefaultECN(c.Bandwidth).KminBytes
		return func() lb.Selector { return lb.NewCongestionAware(mark, 0, 0) }
	default:
		panic(fmt.Sprintf("workload: unknown LB mode %d", int(c.LB)))
	}
}

// entropyWiring applies the sender-side half of the spraying arms to a NIC
// config: the REPS cache (with its ACK-feedback hook) or the round-robin
// bucket entropy plus per-path DCQCN of the congestion-aware arm. A no-op
// for every other mode, byte-for-byte.
func (c ClusterConfig) entropyWiring(ncfg *rnic.Config) {
	switch c.LB {
	case REPS:
		size := c.RepsCache
		ncfg.NewEntropy = func(_ packet.QPID, base uint16) lb.EntropySource {
			return lb.NewREPS(base, size)
		}
	case CongestionAware:
		buckets := c.PathBuckets
		ncfg.NewEntropy = func(_ packet.QPID, base uint16) lb.EntropySource {
			return lb.EntropyRoundRobin{Base: base, Buckets: buckets}
		}
		ncfg.CC.PathBuckets = buckets
	}
}

// Cluster is a fully wired simulation instance.
type Cluster struct {
	Config ClusterConfig
	Engine *sim.Engine
	Topo   *topo.Topology
	Net    *fabric.Network
	NICs   []*rnic.NIC
	Themis map[int]*core.Themis // per-ToR middleware (LB == Themis only)

	// torIDs holds the Themis ToR switch IDs in creation order so that every
	// cluster-wide middleware sweep visits instances in the same order on
	// every run — ranging over the Themis map would not.
	torIDs []int

	nextQP    packet.QPID
	nextSport uint16
	conns     map[[2]packet.NodeID]*Conn
	connList  []*Conn // creation order, for deterministic iteration

	// failedLinks tracks outstanding FailLink calls so that overlapping
	// failures repaired in any order only re-enable Themis once the fabric is
	// whole again.
	failedLinks map[[2]int]bool

	// group is the shard coordinator Run drives when Config.Shards > 0 (a
	// single-shard group over Engine; see ClusterConfig.Shards).
	group *sim.ShardGroup
}

// topology builds the configured fabric: leaf-spine unless FatTreeK > 0.
func (c ClusterConfig) topology() (*topo.Topology, error) {
	link := topo.LinkSpec{Bandwidth: c.Bandwidth, Delay: c.LinkDelay}
	if c.FatTreeK > 0 {
		return topo.NewFatTree(topo.FatTreeConfig{K: c.FatTreeK, HostLink: link, FabricLink: link})
	}
	return topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: c.Leaves, Spines: c.Spines, HostsPerLeaf: c.HostsPerLeaf,
		HostLink: link, FabricLink: link,
	})
}

// fabricConfig lowers the switch half of the cluster. The packet pool is left
// to the caller: a classic network shares one with the NICs, a sharded
// network owns one per shard.
func (c ClusterConfig) fabricConfig() fabric.Config {
	fcfg := fabric.Config{
		BufferBytes:     c.BufferBytes,
		ControlLossless: !c.LossyControl,
		NewDataSelector: c.selector(),
		Tracer:          c.Tracer,
		Metrics:         c.Metrics,
	}
	if c.DistributedRouting {
		fcfg.Routing = route.Config{Mode: route.Distributed, PerHopDelay: c.ConvergenceDelay}
	}
	if !c.DisableECN {
		fcfg.ECN = fabric.DefaultECN(c.Bandwidth)
	}
	if !c.DisablePFC {
		fcfg.PFC = fabric.DefaultPFC(c.Bandwidth)
	}
	if n := c.DropEveryNData; n > 0 {
		count := 0
		fcfg.LossFunc = func(*packet.Packet, int, int) bool {
			count++
			return count%n == 0
		}
	}
	return fcfg
}

// nicConfig lowers the NIC half of the cluster, including the sender-side
// entropy wiring of the spraying arms. The packet pool is left to the caller
// (see fabricConfig).
func (c ClusterConfig) nicConfig() rnic.Config {
	ncfg := rnic.Config{
		MTU:        c.MTU,
		Transport:  c.Transport,
		LineRate:   c.Bandwidth,
		DisableCC:  c.DisableCC,
		RTO:        c.RTO,
		RTOBackoff: c.RTOBackoff,
		RTOMax:     c.RTOMax,
		AckEvery:   c.AckEvery,
		BurstBytes: c.BurstBytes,
		Metrics:    c.Metrics,
	}
	ncfg.CC.LineRate = c.Bandwidth
	ncfg.CC.TI = c.TI
	ncfg.CC.TD = c.TD
	ncfg.CC.NackFactor = c.NackFactor
	c.entropyWiring(&ncfg)
	return ncfg
}

// BuildCluster assembles a cluster from the configuration.
func BuildCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	t, err := cfg.topology()
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine(cfg.Seed)
	// One pool per cluster: the engine is single-threaded, so every component
	// on it can share the free list. The fabric recycles packets at their
	// terminals; NICs and Themis draw replacements from the same pool.
	pool := packet.NewPool()
	fcfg := cfg.fabricConfig()
	fcfg.Pool = pool
	net := fabric.NewNetwork(engine, t, fcfg)

	cl := &Cluster{
		Config:      cfg,
		Engine:      engine,
		Topo:        t,
		Net:         net,
		Themis:      make(map[int]*core.Themis),
		nextQP:      1,
		nextSport:   1000,
		conns:       make(map[[2]packet.NodeID]*Conn),
		failedLinks: make(map[[2]int]bool),
	}
	if cfg.Shards > 0 {
		// One shard holding the whole topology: no cross-shard links, so the
		// lookahead is infinite and the coordinator runs a single epoch that
		// executes exactly what Engine.Run would.
		cl.group = sim.NewShardGroup([]*sim.Engine{engine}, sim.Duration(sim.Forever))
	}

	ncfg := cfg.nicConfig()
	ncfg.Pool = pool
	for h := 0; h < t.NumHosts(); h++ {
		id := packet.NodeID(h)
		nic := rnic.New(engine, id, ncfg, func(p *packet.Packet) { net.Inject(id, p) })
		net.AttachHost(id, nic.HandlePacket)
		cl.NICs = append(cl.NICs, nic)
	}

	if cfg.LB == Themis {
		tcfg := cfg.ThemisCfg
		tcfg.Pool = pool
		// The lifecycle layer (idle eviction, last-touch LRU) needs virtual
		// timestamps even without tracing, so the engine is always the clock.
		tcfg.Clock = engine
		if tcfg.Metrics == nil {
			tcfg.Metrics = cfg.Metrics
		}
		if cfg.FatTreeK > 0 && tcfg.Mode == core.DirectSpray {
			tcfg.Mode = core.PathMapSpray
		}
		if cfg.Tracer != nil && tcfg.Tracer == nil {
			tcfg.Tracer = cfg.Tracer
		}
		for _, sw := range t.Switches() {
			if sw.Tier == 0 && len(sw.Hosts()) > 0 {
				th := core.New(t, sw.ID, tcfg)
				net.SetTorPipeline(sw.ID, th)
				cl.Themis[sw.ID] = th
				cl.torIDs = append(cl.torIDs, sw.ID)
			}
		}
	}
	return cl, nil
}

// Conn returns (creating on first use) the reliable connection from src to
// dst — one QP plus Themis registration when the middleware is deployed.
func (cl *Cluster) Conn(src, dst packet.NodeID) *Conn {
	key := [2]packet.NodeID{src, dst}
	if cn, ok := cl.conns[key]; ok {
		return cn
	}
	cn := cl.OpenFlow(src, dst)
	cl.conns[key] = cn
	return cn
}

// OpenFlow creates a fresh (uncached) connection from src to dst: a new QP,
// NIC sender/receiver halves, and Themis registrations where the middleware
// is deployed. Unlike Conn it may be called repeatedly for the same host pair
// — the flow-churn workload opens and closes thousands of short-lived QPs.
// A core.ErrTableFull registration is tolerated: the flow simply runs
// unmanaged (ECMP + forwarded NACKs), which is the §4 degradation contract.
func (cl *Cluster) OpenFlow(src, dst packet.NodeID) *Conn {
	qp := cl.nextQP
	cl.nextQP++
	sport := cl.nextSport
	cl.nextSport++
	s := cl.NICs[src].OpenSender(qp, dst, sport)
	r := cl.NICs[dst].OpenReceiver(qp, src, sport)
	for _, id := range cl.torIDs {
		if err := cl.Themis[id].RegisterFlow(qp, src, dst, sport); err != nil && err != core.ErrTableFull {
			panic(err) // config error (e.g. direct spray on fat-tree): fail loudly
		}
	}
	cn := &Conn{Sender: s, Receiver: r, cluster: cl, src: src, dst: dst}
	r.OnDeliver = cn.onDeliver
	cl.connList = append(cl.connList, cn)
	return cn
}

// CloseFlow retires a connection opened by OpenFlow (or Conn): the Themis
// entries are unregistered on every ToR, and both NIC halves are closed so
// no timer or pacer event of the QP remains scheduled. Idempotent. The
// Conn's counters remain readable (AggregateSenderStats keeps counting it).
func (cl *Cluster) CloseFlow(cn *Conn) {
	if cn.closed {
		return
	}
	cn.closed = true
	qp := cn.Sender.QP()
	for _, id := range cl.torIDs {
		cl.Themis[id].UnregisterFlow(qp)
	}
	cl.NICs[cn.src].CloseSender(qp)
	cl.NICs[cn.dst].CloseReceiver(qp)
}

// Conns returns all connections created so far, in creation order.
func (cl *Cluster) Conns() []*Conn {
	out := make([]*Conn, len(cl.connList))
	copy(out, cl.connList)
	return out
}

// Mesh adapts a host list to a collective.Mesh over this cluster.
func (cl *Cluster) Mesh(hosts []packet.NodeID) collective.Mesh {
	return clusterMesh{cl: cl, hosts: hosts}
}

type clusterMesh struct {
	cl    *Cluster
	hosts []packet.NodeID
}

func (m clusterMesh) Conn(src, dst int) collective.Conn {
	return m.cl.Conn(m.hosts[src], m.hosts[dst])
}

// Run drives the simulation until the event queue drains or the horizon is
// reached, returning the final virtual time. With Config.Shards > 0 the
// epoch coordinator drives the (single-shard) group instead; the executed
// event sequence is identical either way.
func (cl *Cluster) Run(horizon sim.Duration) sim.Time {
	if cl.group != nil {
		return cl.group.Run(sim.Time(horizon))
	}
	return cl.Engine.Run(sim.Time(horizon))
}

// FailLink takes the fabric link at (sw, port) down and simulates the §6
// monitoring-tool reaction (Pingmesh-style detection): every Themis instance
// disables itself, reverting the whole fabric to ECMP. Cluster-wide disable
// is required for correctness, not just at the adjacent ToR: PSN-based
// spraying is deterministic, so any source ToR left spraying would keep
// steering the same PSN residues into the dead path forever. Failures may
// overlap; Themis stays disabled until every one is repaired.
func (cl *Cluster) FailLink(sw, port int) {
	cl.failedLinks[[2]int{sw, port}] = true
	cl.Net.SetLinkState(sw, port, false)
	for _, id := range cl.torIDs {
		cl.Themis[id].SetDisabled(true)
	}
}

// RepairLink restores the link and, once no failure remains outstanding,
// re-enables the middleware. Repairs may arrive in any order relative to the
// failures.
func (cl *Cluster) RepairLink(sw, port int) {
	delete(cl.failedLinks, [2]int{sw, port})
	cl.Net.SetLinkState(sw, port, true)
	if len(cl.failedLinks) > 0 {
		return
	}
	for _, id := range cl.torIDs {
		cl.Themis[id].SetDisabled(false)
	}
}

// FailedLinks returns the number of outstanding link failures.
func (cl *Cluster) FailedLinks() int { return len(cl.failedLinks) }

// DrainLink starts a maintenance drain of the fabric link at (sw, port): the
// routing layer withdraws it from candidate sets while the link keeps
// carrying in-flight traffic, so a later FailLink on the same link hits a
// path nothing routes over. Themis stays enabled — a drained link is alive,
// it is merely no longer a candidate, so deterministic PSN spraying never
// steers into a dead path because of a drain alone.
func (cl *Cluster) DrainLink(sw, port int) {
	cl.Net.SetLinkDrained(sw, port, true)
}

// UndrainLink ends the maintenance drain, restoring the link to candidate
// sets (after reconvergence, under distributed routing).
func (cl *Cluster) UndrainLink(sw, port int) {
	cl.Net.SetLinkDrained(sw, port, false)
}

// DrainedLinks returns the number of fabric links currently drained.
func (cl *Cluster) DrainedLinks() int { return cl.Net.DrainedLinks() }

// RebootToR power-cycles the Themis instance on ToR sw (no-op on clusters
// without the middleware): all flow-table and ring-queue state is lost
// mid-flow. With ThemisCfg.Relearn the instance rebuilds state from live
// traffic; otherwise its flows stay unmanaged until re-registered.
func (cl *Cluster) RebootToR(sw int) {
	if th, ok := cl.Themis[sw]; ok {
		th.Reboot()
	}
}

// AggregateSenderStats sums sender-side stats over all connections.
func (cl *Cluster) AggregateSenderStats() rnic.SenderStats {
	var agg rnic.SenderStats
	for _, cn := range cl.connList {
		st := cn.Sender.Stats()
		agg.DataPackets += st.DataPackets
		agg.Retransmits += st.Retransmits
		agg.BytesSent += st.BytesSent
		agg.GoodputBytes += st.GoodputBytes
		agg.AcksRx += st.AcksRx
		agg.NacksRx += st.NacksRx
		agg.CnpsRx += st.CnpsRx
		agg.Timeouts += st.Timeouts
		agg.Completions += st.Completions
	}
	return agg
}

// ThemisStats sums middleware stats over all ToRs.
func (cl *Cluster) ThemisStats() core.Stats {
	var agg core.Stats
	for _, id := range cl.torIDs {
		st := cl.Themis[id].Stats()
		agg.Sprayed += st.Sprayed
		agg.NacksSeen += st.NacksSeen
		agg.NacksForwarded += st.NacksForwarded
		agg.NacksBlocked += st.NacksBlocked
		agg.Compensations += st.Compensations
		agg.CompensationCancelled += st.CompensationCancelled
		agg.ScanMisses += st.ScanMisses
		agg.RingOverflows += st.RingOverflows
		agg.Bypassed += st.Bypassed
		agg.Reboots += st.Reboots
		agg.Relearns += st.Relearns
		agg.Evictions += st.Evictions
		agg.IdleEvictions += st.IdleEvictions
		agg.TableFull += st.TableFull
		agg.Unregistered += st.Unregistered
		agg.UnknownNacksForwarded += st.UnknownNacksForwarded
	}
	return agg
}

// MaxTableBytes returns the largest current flow-table occupancy across ToRs
// and the (uniform) configured budget. Both are zero on clusters without the
// middleware.
func (cl *Cluster) MaxTableBytes() (maxBytes, budget int) {
	for _, id := range cl.torIDs {
		th := cl.Themis[id]
		if b := th.TableBytes(); b > maxBytes {
			maxBytes = b
		}
		budget = th.TableBudgetBytes()
	}
	return maxBytes, budget
}

// Conn adapts one QP pair to collective.Conn and tracks in-order delivery
// thresholds.
type Conn struct {
	Sender   *rnic.SenderQP
	Receiver *rnic.ReceiverQP

	cluster  *Cluster
	src, dst packet.NodeID
	closed   bool

	recvBytes int64
	notifies  []connNotify
}

// Src returns the sending host.
func (cn *Conn) Src() packet.NodeID { return cn.src }

// Dst returns the receiving host.
func (cn *Conn) Dst() packet.NodeID { return cn.dst }

// Closed reports whether CloseFlow has retired this connection.
func (cn *Conn) Closed() bool { return cn.closed }

// Close retires the connection (see Cluster.CloseFlow).
func (cn *Conn) Close() { cn.cluster.CloseFlow(cn) }

type connNotify struct {
	threshold int64
	fn        func()
}

// Send implements collective.Conn.
func (cn *Conn) Send(bytes int64, sentDone func()) {
	cn.Sender.SendMessage(bytes, sentDone)
}

// NotifyRecv implements collective.Conn.
func (cn *Conn) NotifyRecv(threshold int64, fn func()) {
	if cn.recvBytes >= threshold {
		fn()
		return
	}
	cn.notifies = append(cn.notifies, connNotify{threshold, fn})
}

// RecvBytes returns the in-order bytes delivered so far.
func (cn *Conn) RecvBytes() int64 { return cn.recvBytes }

func (cn *Conn) onDeliver(_ sim.Time, _ packet.PSN, payload int) {
	cn.recvBytes += int64(payload)
	for len(cn.notifies) > 0 && cn.notifies[0].threshold <= cn.recvBytes {
		fn := cn.notifies[0].fn
		cn.notifies = cn.notifies[1:]
		fn()
	}
}
