package chaos

import (
	"fmt"

	"themis/internal/core"
	"themis/internal/fabric"
	"themis/internal/memmodel"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/workload"
)

// Options parameterizes the scenario harness. The defaults are a small
// cross-rack workload on a 3×3 leaf-spine — big enough for every fault kind
// to matter, small enough that a 50-seed soak stays cheap.
//
// The embedded ClusterConfig describes the cluster, except for the hardening
// the harness pins whatever it says (see Cluster): the seed comes from
// each run's Scenario, the control class is lossy, the RTO backs off
// exponentially, the middleware runs with relearn under a roomy table budget
// (ThemisCfg is replaced), and DropEveryNData is cleared because the
// injector owns the fabric loss hook. Its LB zero value means "harness
// default" (Themis) unless LBSet marks an explicit choice — workload.ECMP is
// the LBMode zero value, so a flag is needed to ask for it.
type Options struct {
	workload.ClusterConfig
	LBSet        bool
	Flows        int          // cross-rack ring flows (default Leaves×HostsPerLeaf)
	MessageBytes int64        // per-flow transfer (default 2 MB)
	Horizon      sim.Duration // wall guard (default 2 s virtual)
	// FlightDir, if non-empty, arms a flight recorder: the run records into a
	// bounded ring (capacity FlightCapacity, default obs.DefaultFlightCapacity)
	// and, when any invariant is violated, dumps the retained window to
	// <FlightDir>/flight-seed<seed>.jsonl for `themis-sim inspect`. When
	// Tracer is also set it takes precedence and no recorder is created.
	FlightDir      string
	FlightCapacity int
}

func (o Options) withDefaults() Options {
	if o.Leaves == 0 {
		o.Leaves = 3
	}
	if o.Spines == 0 {
		o.Spines = 3
	}
	if o.HostsPerLeaf == 0 {
		o.HostsPerLeaf = 2
	}
	if o.Bandwidth == 0 {
		o.Bandwidth = 100e9
	}
	if o.Flows == 0 {
		o.Flows = o.Leaves * o.HostsPerLeaf
	}
	if o.MessageBytes == 0 {
		// Large enough that the 10–160 us fault window lands mid-flow.
		o.MessageBytes = 2 << 20
	}
	if o.Horizon == 0 {
		o.Horizon = 2 * sim.Second
	}
	if !o.LBSet {
		o.LB = workload.Themis
	}
	return o
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario   Scenario
	End        sim.Time // drain time of the last event
	Sender     rnic.SenderStats
	Middleware core.Stats
	Net        fabric.Counters
	Engine     sim.Metrics // event-loop counter block for this run's engine
	Violations []string    // empty = all invariants held
	// FlightDump is the path of the flight-recorder dump written for a
	// violating run (empty when no recorder was armed or nothing tripped).
	FlightDump string
}

// Cluster returns the hardened cluster the harness runs a scenario with this
// seed on: Themis with lazy state relearning, exponential RTO backoff on the
// NICs, a lossy control class so control-plane faults are injectable, and a
// finite (but roomy: 4 entries per flow) §4 flow-table budget so the soak
// exercises real SRAM accounting — the budget invariant is meaningful, while
// the steady workload itself never deserves an eviction.
func (o Options) Cluster(seed int64) workload.ClusterConfig {
	o = o.withDefaults()
	c := o.ClusterConfig
	c.Seed = seed
	c.LossyControl = true
	c.RTO, c.RTOBackoff, c.RTOMax = 200*sim.Microsecond, 2, 10*sim.Millisecond
	c.ThemisCfg = core.Config{Relearn: true, TableBudgetBytes: core.TableBudget(memmodel.Params{
		Bandwidth: c.Bandwidth,
		RTTLast:   2 * sim.Microsecond, // two 1 us last-hop links
		MTU:       1500,
		Factor:    1.5,
	}, 4*o.Flows)}
	c.DropEveryNData = 0
	return c
}

// BuildCluster assembles the hardened cluster of Options.Cluster for the
// scenario. Exported so the CLI and benchmarks run exactly what the soak
// tests run.
func BuildCluster(sc Scenario, opt Options) (*workload.Cluster, error) {
	return workload.BuildCluster(opt.Cluster(sc.Seed))
}

// RunScenario executes one scenario: build the hardened cluster, install the
// injector, start a cross-rack ring of transfers, run to drain and audit the
// invariants. The same (scenario, options) pair always produces the same
// Result.
func RunScenario(sc Scenario, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	var flight *obs.FlightRecorder
	if opt.FlightDir != "" && opt.Tracer == nil {
		flight = obs.NewFlightRecorder(opt.FlightDir, opt.FlightCapacity)
		opt.Tracer = flight.Tracer()
	}
	cl, err := BuildCluster(sc, opt)
	if err != nil {
		return nil, err
	}
	NewInjector(cl, sc).Install()

	// Cross-rack ring: host i sends to the same-index host of the next leaf,
	// so every flow traverses the fabric and every ToR plays both roles.
	nHosts := cl.Topo.NumHosts()
	remaining := opt.Flows
	for i := 0; i < opt.Flows; i++ {
		src := packet.NodeID(i % nHosts)
		dst := packet.NodeID((i + opt.HostsPerLeaf) % nHosts)
		cl.Conn(src, dst).Send(opt.MessageBytes, func() {
			remaining--
			if remaining == 0 {
				cl.Engine.Stop()
			}
		})
	}

	end := cl.Run(opt.Horizon)
	cl.Engine.RunAll()
	res := &Result{
		Scenario:   sc,
		End:        end,
		Sender:     cl.AggregateSenderStats(),
		Middleware: cl.ThemisStats(),
		Net:        cl.Net.Counters(),
		Engine:     cl.Engine.Metrics(),
		Violations: CheckInvariants(cl, remaining),
	}
	if len(res.Violations) > 0 && flight != nil {
		path, err := flight.Dump(fmt.Sprintf("seed%d", sc.Seed), sc.Seed, res.Violations)
		if err != nil {
			// Surface the dump failure next to the violations it documents;
			// never mask the original finding.
			res.Violations = append(res.Violations, obs.DumpError(err))
		} else {
			res.FlightDump = path
		}
	}
	return res, nil
}

// Soak generates and runs scenarios for seeds [first, first+count) and
// returns the results. It stops early only on harness errors (config bugs),
// never on invariant violations — those are reported per result so a sweep
// surfaces every bad seed at once.
func Soak(first int64, count int, opt Options) ([]*Result, error) {
	return soak(first, count, opt, Generate)
}

// SoakConvergence is Soak with the routing-focused generator: flap storms,
// pod-uplink loss and maintenance drains (plus the classic kinds) against
// whatever routing mode opt selects. Run it once with DistributedRouting
// and a non-zero ConvergenceDelay and once against the oracle to compare
// graceful degradation across reconvergence windows.
func SoakConvergence(first int64, count int, opt Options) ([]*Result, error) {
	return soak(first, count, opt, GenerateConvergence)
}

func soak(first int64, count int, opt Options, gen func(int64, *topo.Topology) Scenario) ([]*Result, error) {
	opt = opt.withDefaults()
	// The generator needs the topology; build a throwaway cluster once.
	probe, err := BuildCluster(Scenario{Seed: first}, opt)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for i := 0; i < count; i++ {
		seed := first + int64(i)
		sc := gen(seed, probe.Topo)
		res, err := RunScenario(sc, opt)
		if err != nil {
			return out, fmt.Errorf("chaos: seed %d: %w", seed, err)
		}
		out = append(out, res)
	}
	return out, nil
}
