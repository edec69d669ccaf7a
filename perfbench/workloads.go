package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/exp"
	"themis/internal/fabric"
	"themis/internal/memmodel"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/workload"
)

// benchWorkload is one input set of the benchmark: the trial it runs for a
// seed, and whether that trial accepts a metrics registry (the sharded spray
// path refuses one).
type benchWorkload struct {
	name     string
	scenario func(seed int64, tiny bool) exp.Scenario
	registry bool
}

// workloads lists the benchmark's inputs in BENCHMARK.json order, where each
// has its rationale. Sizes were chosen so that one trial takes 1-2 s on a
// 2-core host, which gives every run about ten repeats for its median.
var workloads = []benchWorkload{
	{
		name: "fig5-allreduce",
		scenario: func(seed int64, tiny bool) exp.Scenario {
			return fig5Cell("fig5-allreduce", seed, collective.RingAllreduce, 512<<10, tiny)
		},
		registry: true,
	},
	{
		name: "fig5-alltoall",
		scenario: func(seed int64, tiny bool) exp.Scenario {
			return fig5Cell("fig5-alltoall", seed, collective.AllToAll, 1<<20, tiny)
		},
		registry: true,
	},
	{
		name:     "spray-fattree",
		scenario: sprayScenario,
	},
	{
		name:     "churn-reconverge",
		scenario: churnScenario,
		registry: true,
	},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// sizeJitter draws a per-seed byte offset in [0, 16 KiB). The Fig. 5
// collectives draw nothing from the engine seed, so without it every seed
// would simulate the same trial; the offset changes the message sizes (and so
// the simulated result) while keeping the work within ~2% of the base size.
func sizeJitter(seed int64) int64 {
	return rand.New(rand.NewSource(seed)).Int63n(16 << 10)
}

// fig5Cell is one Fig. 5 cell with the Themis arm on the paper's default
// 16×16 leaf-spine (16 hosts per leaf, 400 Gbps, 16 groups spanning every
// rack), under the first paper DCQCN setting. Topology fields are explicit so
// the setup lowering in clusterConfig matches exp.Run's exactly.
func fig5Cell(name string, seed int64, p collective.Pattern, bytes int64, tiny bool) exp.Scenario {
	sc := exp.Fig5Cell(seed, bytes+sizeJitter(seed), p, workload.PaperDCQCNSettings()[0], workload.Themis)
	sc.Name = name
	sc.Leaves, sc.Spines, sc.HostsPerLeaf, sc.Groups = 16, 16, 16, 16
	sc.Bandwidth = 400e9
	if tiny {
		sc.Leaves, sc.Spines, sc.HostsPerLeaf, sc.Groups = 4, 4, 4, 4
		sc.MessageBytes = 64<<10 + sizeJitter(seed)
	}
	return sc
}

func sprayScenario(seed int64, tiny bool) exp.Scenario {
	sc := exp.Scenario{
		Name:         "spray-fattree",
		Workload:     exp.Spray,
		Seed:         seed,
		Shards:       min(2, runtime.NumCPU()), // results do not depend on it
		LB:           workload.RandomSpray,
		FatTreeK:     8,
		Bandwidth:    100e9,
		MessageBytes: 2<<20 + sizeJitter(seed),
	}
	if tiny {
		sc.FatTreeK, sc.MessageBytes = 4, 32<<10
	}
	return sc
}

// churnScenario mirrors exp.ChurnGrid's budgeted-relearn arm on a larger
// 4×4×8 fabric, with the distributed routing plane at a 5 us per-hop delay.
// The flow-table budget holds an eighth of the concurrently open QPs, so
// registrations evict and relearn continuously.
func churnScenario(seed int64, tiny bool) exp.Scenario {
	sc := exp.Scenario{
		Name:               "churn-reconverge",
		Workload:           exp.Churn,
		Seed:               seed,
		LB:                 workload.Themis,
		Leaves:             4,
		Spines:             4,
		HostsPerLeaf:       8,
		Bandwidth:          100e9,
		QPs:                8000,
		Concurrency:        64,
		MessageBytes:       64 << 10,
		Faults:             true,
		BurstBytes:         9000,
		LossyControl:       true,
		RTO:                200 * sim.Microsecond,
		RTOBackoff:         2,
		RTOMax:             10 * sim.Millisecond,
		DistributedRouting: true,
		ConvergenceDelay:   5 * sim.Microsecond,
		Themis:             exp.ThemisKnobs{Relearn: true, FallbackOnFailure: true},
	}
	if tiny {
		sc.Leaves, sc.Spines, sc.HostsPerLeaf = 3, 3, 2
		sc.QPs, sc.Concurrency = 40, 16
	}
	sc.Themis.TableBudgetBytes = core.TableBudget(memmodel.Params{
		Bandwidth: sc.Bandwidth,
		RTTLast:   2 * sim.Microsecond,
		MTU:       1500,
		Factor:    1.5,
	}, sc.Concurrency/8)
	return sc
}

// linkSpec is the uniform link class every benchmark fabric uses (exp's
// workloads default the propagation delay to 1 us).
func linkSpec(sc exp.Scenario) topo.LinkSpec {
	return topo.LinkSpec{Bandwidth: sc.Bandwidth, Delay: sim.Microsecond}
}

// buildTopology builds the scenario's topology on its own: the topology
// share of the setup, timed as topo.build_s.
func buildTopology(sc exp.Scenario) (*topo.Topology, error) {
	if sc.FatTreeK > 0 {
		return topo.NewFatTree(topo.FatTreeConfig{K: sc.FatTreeK, HostLink: linkSpec(sc), FabricLink: linkSpec(sc)})
	}
	return topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: sc.Leaves, Spines: sc.Spines, HostsPerLeaf: sc.HostsPerLeaf,
		HostLink: linkSpec(sc), FabricLink: linkSpec(sc),
	})
}

// clusterConfig lowers a benchmark scenario to the cluster exp.Run builds
// for it. Only the fields the benchmark's scenarios set are lowered.
func clusterConfig(sc exp.Scenario) workload.ClusterConfig {
	return workload.ClusterConfig{
		Seed:               sc.Seed,
		Shards:             sc.Shards,
		Leaves:             sc.Leaves,
		Spines:             sc.Spines,
		HostsPerLeaf:       sc.HostsPerLeaf,
		FatTreeK:           sc.FatTreeK,
		Bandwidth:          sc.Bandwidth,
		LB:                 sc.LB,
		TI:                 sc.TI,
		TD:                 sc.TD,
		BurstBytes:         sc.BurstBytes,
		RTO:                sc.RTO,
		RTOBackoff:         sc.RTOBackoff,
		RTOMax:             sc.RTOMax,
		LossyControl:       sc.LossyControl,
		DistributedRouting: sc.DistributedRouting,
		ConvergenceDelay:   sc.ConvergenceDelay,
		ThemisCfg: core.Config{
			Relearn:           sc.Themis.Relearn,
			FallbackOnFailure: sc.Themis.FallbackOnFailure,
			TableBudgetBytes:  sc.Themis.TableBudgetBytes,
		},
	}
}

// counters is the comparable part of a trial record: what a run of the
// scenario computes, independent of how it was driven.
type counters struct {
	CCTMillis  float64
	Sender     rnic.SenderStats
	Middleware core.Stats
	Net        fabric.Counters
	Engine     sim.Metrics
}

func trialCounters(t exp.Trial) counters {
	return counters{t.CCTMillis, t.Sender, t.Middleware, t.Net, t.Engine}
}

// setup is a cluster built outside exp.Run, with its QPs open and the first
// messages posted, before any event has run.
type setup struct {
	cl *workload.Cluster
	// finish runs the cluster to completion the way exp.Run's workload
	// driver does and returns its counters; nil where that driver is not
	// public (churn, and the sharded spray network).
	finish func() (counters, error)
}

// buildSetup builds the scenario's cluster and opens its QPs: the work a
// trial does before its first event, timed as setup_s and workload.build_s.
func buildSetup(sc exp.Scenario) (*setup, error) {
	cl, err := workload.BuildCluster(clusterConfig(sc))
	if err != nil {
		return nil, err
	}
	s := &setup{cl: cl}
	switch sc.Workload {
	case exp.Collective:
		var tail sim.Time
		remaining := sc.Groups
		for g := 0; g < sc.Groups; g++ {
			hosts := workload.GroupHosts(sc.Leaves, sc.HostsPerLeaf, g)
			collective.Run(sc.Pattern, cl.Mesh(hosts), len(hosts), sc.MessageBytes, func() {
				tail = cl.Engine.Now()
				remaining--
				if remaining == 0 {
					cl.Engine.Stop()
				}
			})
		}
		s.finish = func() (counters, error) {
			cl.Run(30 * sim.Second)
			cl.Engine.RunAll()
			if remaining != 0 {
				return counters{}, fmt.Errorf("%d groups unfinished", remaining)
			}
			return counters{
				CCTMillis:  tail.Seconds() * 1e3,
				Sender:     cl.AggregateSenderStats(),
				Middleware: cl.ThemisStats(),
				Net:        cl.Net.Counters(),
				Engine:     cl.Engine.Metrics(),
			}, nil
		}
	case exp.Churn:
		// The churn driver opens its first Concurrency cross-rack flows
		// before the first event; open as many here.
		rng := rand.New(rand.NewSource(sc.Seed))
		n := cl.Topo.NumHosts()
		for i := 0; i < sc.Concurrency; i++ {
			src, dst := packet.NodeID(rng.Intn(n)), packet.NodeID(rng.Intn(n))
			for cl.Topo.ToROf(dst) == cl.Topo.ToROf(src) {
				dst = packet.NodeID(rng.Intn(n))
			}
			cl.OpenFlow(src, dst).Send(sc.MessageBytes, func() {})
		}
	case exp.Spray:
		n := cl.Topo.NumHosts()
		for h := 0; h < n; h++ {
			cl.OpenFlow(packet.NodeID(h), packet.NodeID((h+n/2)%n)).Send(sc.MessageBytes, func() {})
		}
	default:
		return nil, fmt.Errorf("no setup for workload %q", sc.Workload)
	}
	return s, nil
}

// checkSetup proves that the separately built setup is the cluster exp.Run
// builds for the scenario, so setup_s times the program's own build. Where
// the workload's driver is public the setup is run to completion and every
// counter must equal the trial's; otherwise the built cluster's shape must
// match what the trial reports.
func checkSetup(sc exp.Scenario, s *setup, t exp.Trial) error {
	hosts := sc.Leaves * sc.HostsPerLeaf
	if sc.FatTreeK > 0 {
		hosts = sc.FatTreeK * sc.FatTreeK * sc.FatTreeK / 4
	}
	if len(s.cl.NICs) != hosts {
		return fmt.Errorf("setup built %d NICs, scenario has %d hosts", len(s.cl.NICs), hosts)
	}
	if sc.Workload == exp.Churn && s.cl.Config.ThemisCfg.TableBudgetBytes != t.TableBudgetBytes {
		return fmt.Errorf("setup table budget %d B, trial ran with %d B",
			s.cl.Config.ThemisCfg.TableBudgetBytes, t.TableBudgetBytes)
	}
	if s.finish == nil {
		return nil
	}
	got, err := s.finish()
	if err != nil {
		return fmt.Errorf("setup run: %w", err)
	}
	if want := trialCounters(t); got != want {
		return fmt.Errorf("setup run counters differ from exp.Run's:\n setup %+v\n trial %+v", got, want)
	}
	return nil
}

// checkOutputs validates a trial against what the scenario must produce,
// computed from the workload definition rather than from the simulator.
func checkOutputs(sc exp.Scenario, t exp.Trial) error {
	if t.Err != "" {
		return fmt.Errorf("trial error: %s", t.Err)
	}
	if len(t.Violations) > 0 {
		return fmt.Errorf("invariant violations: %v", t.Violations)
	}
	if t.CCTMillis <= 0 || t.Net.Delivered == 0 {
		return fmt.Errorf("empty trial: cct %v ms, %d packets delivered", t.CCTMillis, t.Net.Delivered)
	}
	if t.Net.SteadyLoopDrops != 0 {
		return fmt.Errorf("%d steady-state loop drops", t.Net.SteadyLoopDrops)
	}
	var want uint64
	switch sc.Workload {
	case exp.Collective:
		g := int64(sc.Leaves)
		chunk := (sc.MessageBytes + g - 1) / g
		perGroup := g * (g - 1) * chunk // Alltoall: every ordered pair once
		if sc.Pattern == collective.RingAllreduce {
			perGroup *= 2 // 2(g-1) ring steps per rank
		}
		want = uint64(int64(sc.Groups) * perGroup)
	case exp.Churn:
		want = uint64(int64(sc.QPs) * sc.MessageBytes)
	case exp.Spray:
		// The spray trial carries no goodput counter: every host must at
		// least have had its message's packets delivered.
		hosts := uint64(sc.FatTreeK * sc.FatTreeK * sc.FatTreeK / 4)
		if need := hosts * uint64(sc.MessageBytes) / packet.DefaultMTU; t.Net.Delivered < need {
			return fmt.Errorf("spray delivered %d packets, need at least %d", t.Net.Delivered, need)
		}
		return nil
	}
	if t.Sender.GoodputBytes != want {
		return fmt.Errorf("goodput %d B, workload moves %d B", t.Sender.GoodputBytes, want)
	}
	return nil
}
