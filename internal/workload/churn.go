package workload

import (
	"fmt"
	"math/rand"

	"themis/internal/core"
	"themis/internal/fabric"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
)

// ChurnConfig parameterizes the flow-churn workload: a stream of short-lived
// cross-rack QPs (open → transfer → close) with far more QPs over the run —
// and optionally more concurrently — than a budgeted Themis flow table can
// hold. It is the workload the §4 lifecycle layer exists for: production
// clusters see millions of short-lived QPs, not a fixed set sized to SRAM.
// The embedded ClusterConfig defaults to the chaos harness's 3×3 leaf-spine
// with 2 hosts per leaf at 100 Gbps, and to exponential RTO backoff (200 us
// doubling up to 10 ms).
type ChurnConfig struct {
	ClusterConfig

	// Churn shape: QPs flows are opened over the run, Concurrency at a time;
	// each transfers MessageBytes then closes, and its slot opens the next
	// flow. Defaults: 120 QPs, 24 concurrent, 128 KB per flow.
	QPs          int
	Concurrency  int
	MessageBytes int64

	// Faults mixes seeded ToR reboots and a link flap into the churn (the
	// soak configuration): state loss, relearn and the §6 fallback all run
	// while flows are being opened and closed.
	Faults bool

	Horizon sim.Duration // wall guard (default 2 s virtual)
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Leaves == 0 {
		c.Leaves = 3
	}
	if c.Spines == 0 {
		c.Spines = 3
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 2
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 100e9
	}
	if c.QPs == 0 {
		c.QPs = 120
	}
	if c.Concurrency == 0 {
		c.Concurrency = 24
	}
	if c.Concurrency > c.QPs {
		c.Concurrency = c.QPs
	}
	if c.MessageBytes == 0 {
		c.MessageBytes = 128 << 10
	}
	if c.Horizon == 0 {
		c.Horizon = 2 * sim.Second
	}
	if c.RTO == 0 {
		c.RTO = 200 * sim.Microsecond
	}
	if c.RTOBackoff == 0 {
		c.RTOBackoff = 2
	}
	if c.RTOMax == 0 {
		c.RTOMax = 10 * sim.Millisecond
	}
	return c
}

// Cluster returns the cluster RunChurn builds: the embedded config with the
// churn defaults applied.
func (c ChurnConfig) Cluster() ClusterConfig { return c.withDefaults().ClusterConfig }

// ChurnResult is the outcome of one churn run.
type ChurnResult struct {
	// End is the virtual time the last flow completed.
	End sim.Time
	// Opened and Completed count flows; they are equal on a clean run.
	Opened, Completed int
	// MeanFCT is the mean flow completion time (open to last ack).
	MeanFCT sim.Duration
	// GoodputGbps is aggregate acked payload over the run (total goodput
	// bytes × 8 / End).
	GoodputGbps float64
	// MaxTableBytes is the peak flow-table occupancy observed on any ToR at
	// flow open/close points; TableBudgetBytes echoes the configured budget.
	// The invariant MaxTableBytes <= TableBudgetBytes (budget > 0) is checked
	// continuously and lands in Violations if ever broken.
	MaxTableBytes    int
	TableBudgetBytes int

	Sender     rnic.SenderStats
	Middleware core.Stats
	Net        fabric.Counters
	Engine     sim.Metrics
	Violations []string
}

// churnDriver holds the open-loop state: it keeps Concurrency flows in
// flight, each completion closing its QP and opening the next.
type churnDriver struct {
	cl  *Cluster
	cfg ChurnConfig
	rng *rand.Rand

	opened, completed int
	sumFCT            sim.Duration
	maxTable          int
	violations        []string
}

// sampleOccupancy records peak table occupancy and flags budget violations.
// It runs at every open/close event — the only points occupancy can grow.
func (d *churnDriver) sampleOccupancy() {
	b, budget := d.cl.MaxTableBytes()
	if b > d.maxTable {
		d.maxTable = b
	}
	if budget > 0 && b > budget {
		d.violations = append(d.violations,
			fmt.Sprintf("flow-table occupancy %d B exceeds budget %d B at %v", b, budget, d.cl.Engine.Now()))
	}
}

func (d *churnDriver) openNext() {
	if d.opened >= d.cfg.QPs {
		return
	}
	d.opened++
	nHosts := d.cl.Topo.NumHosts()
	src := packet.NodeID(d.rng.Intn(nHosts))
	dst := packet.NodeID(d.rng.Intn(nHosts))
	for d.cl.Topo.ToROf(dst) == d.cl.Topo.ToROf(src) {
		// Same-rack flows never touch Themis; churn wants cross-rack ones.
		dst = packet.NodeID(d.rng.Intn(nHosts))
	}
	cn := d.cl.OpenFlow(src, dst)
	start := d.cl.Engine.Now()
	d.sampleOccupancy()
	cn.Send(d.cfg.MessageBytes, func() {
		d.completed++
		d.sumFCT += d.cl.Engine.Now().Sub(start)
		d.cl.CloseFlow(cn)
		d.sampleOccupancy()
		if d.completed == d.cfg.QPs {
			d.cl.Engine.Stop()
			return
		}
		d.openNext()
	})
}

// scheduleChurnFaults injects the soak fault mix: two ToR reboots and one
// link flap, drawn deterministically from the seed so a failing seed
// reproduces exactly. Times land in the early life of the run (the same
// 10–200 us window the chaos generator uses) so state loss and the §6
// fallback overlap live churn.
func scheduleChurnFaults(cl *Cluster, cfg ChurnConfig) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	var tors []int
	var links [][2]int
	for _, sw := range cl.Topo.Switches() {
		if sw.Tier == 0 && len(sw.Hosts()) > 0 {
			tors = append(tors, sw.ID)
			for pi := range sw.Ports {
				if !sw.Ports[pi].IsHostPort() {
					links = append(links, [2]int{sw.ID, pi})
				}
			}
		}
	}
	if len(tors) == 0 {
		return // no middleware deployed: reboots and the §6 reaction are moot
	}
	us := sim.Microsecond
	for i := 0; i < 2; i++ {
		sw := tors[rng.Intn(len(tors))]
		cl.Engine.Schedule(sim.Duration(10+rng.Intn(150))*us, func() { cl.RebootToR(sw) })
	}
	l := links[rng.Intn(len(links))]
	down := sim.Duration(20+rng.Intn(100)) * us
	up := down + sim.Duration(30+rng.Intn(120))*us
	cl.Engine.Schedule(down, func() { cl.FailLink(l[0], l[1]) })
	cl.Engine.Schedule(up, func() { cl.RepairLink(l[0], l[1]) })
}

// RunChurn executes one flow-churn trial and audits the lifecycle
// invariants: occupancy never exceeds the budget, every flow completes,
// blocked NACKs are exactly the middleware's deliberate verdicts (a NACK for
// an evicted/unknown QP is forwarded, never blocked), and no armed
// compensation outlives the run.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	cfg = cfg.withDefaults()
	cl, err := BuildCluster(cfg.ClusterConfig)
	if err != nil {
		return nil, err
	}
	if cfg.Faults {
		scheduleChurnFaults(cl, cfg)
	}

	d := &churnDriver{cl: cl, cfg: cfg, rng: cl.Engine.Rand()}
	for i := 0; i < cfg.Concurrency; i++ {
		d.openNext()
	}
	end := cl.Run(cfg.Horizon)
	cl.Engine.RunAll() // drain in-flight control traffic and timers

	res := &ChurnResult{
		End:        end,
		Opened:     d.opened,
		Completed:  d.completed,
		Sender:     cl.AggregateSenderStats(),
		Middleware: cl.ThemisStats(),
		Net:        cl.Net.Counters(),
		Engine:     cl.Engine.Metrics(),
		Violations: d.violations,
	}
	res.MaxTableBytes, res.TableBudgetBytes = d.maxTable, cl.Config.ThemisCfg.TableBudgetBytes
	if d.completed > 0 {
		res.MeanFCT = d.sumFCT / sim.Duration(d.completed)
	}
	if sec := end.Seconds(); sec > 0 {
		res.GoodputGbps = float64(res.Sender.GoodputBytes) * 8 / sec / 1e9
	}
	res.Violations = append(res.Violations, churnInvariants(cl, d)...)
	return res, nil
}

// churnInvariants audits the cluster after the run drained.
func churnInvariants(cl *Cluster, d *churnDriver) []string {
	var v []string
	if d.completed != d.cfg.QPs {
		v = append(v, fmt.Sprintf("%d/%d flows never completed", d.cfg.QPs-d.completed, d.cfg.QPs))
	}
	if n := cl.FailedLinks(); n != 0 {
		v = append(v, fmt.Sprintf("%d link failures left outstanding", n))
	}
	// Blocked-NACK conservation: the fabric blocks a host control packet
	// exactly when a Themis-D instance returned a deliberate "block" verdict.
	// Equality proves structurally that NACKs for evicted/unknown/rejected
	// QPs — which never reach the verdict path — were all forwarded.
	st := cl.ThemisStats()
	if blocked := cl.Net.Counters().Blocked; blocked != st.NacksBlocked {
		v = append(v, fmt.Sprintf("blocked-NACK conservation broken: fabric blocked %d != middleware verdicts %d",
			blocked, st.NacksBlocked))
	}
	// With every flow closed, no armed compensation may survive: an armed
	// entry either resolved (cancelled/compensated) or its flow completed and
	// was unregistered.
	if d.completed == d.cfg.QPs {
		for _, id := range cl.torIDs {
			if n := cl.Themis[id].PendingCompensations(); n != 0 {
				v = append(v, fmt.Sprintf("sw %d: %d armed compensations after all flows closed", id, n))
			}
		}
	}
	return v
}
