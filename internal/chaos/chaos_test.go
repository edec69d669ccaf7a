package chaos

import (
	"reflect"
	"testing"

	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/trace"
	"themis/internal/workload"
)

func testTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: 3, Spines: 3, HostsPerLeaf: 2,
		HostLink:   topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
		FabricLink: topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestFaultKindStrings(t *testing.T) {
	names := map[FaultKind]string{
		LinkFlap: "link-flap", DropRate: "drop-rate", CorruptRate: "corrupt-rate",
		CtrlLoss: "ctrl-loss", TorReboot: "tor-reboot", Blackhole: "blackhole",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d: got %q want %q", k, k.String(), want)
		}
	}
}

func TestGenerateDeterministicAndWellFormed(t *testing.T) {
	tp := testTopo(t)
	a := Generate(42, tp)
	b := Generate(42, tp)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different scenarios:\n%v\n%v", a, b)
	}
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed, tp)
		if len(sc.Faults) < 1 || len(sc.Faults) > 3 {
			t.Fatalf("seed %d: %d faults", seed, len(sc.Faults))
		}
		for _, f := range sc.Faults {
			if f.At <= 0 || f.Duration <= 0 {
				t.Fatalf("seed %d: non-positive times in %v", seed, f)
			}
			switch f.Kind {
			case TorReboot:
				if sw := tp.Switch(f.Sw); sw.Tier != 0 {
					t.Fatalf("seed %d: reboot targets non-ToR %v", seed, f)
				}
			case CtrlLoss:
				if f.Rate <= 0 || f.Rate >= 0.05 {
					t.Fatalf("seed %d: ctrl-loss rate %v", seed, f.Rate)
				}
			default:
				if tp.Switch(f.Sw).Ports[f.Port].IsHostPort() {
					t.Fatalf("seed %d: fault targets host port %v", seed, f)
				}
			}
		}
	}
}

func TestScenarioString(t *testing.T) {
	sc := Scenario{Seed: 7, Faults: []Fault{
		{Kind: LinkFlap, At: sim.Microsecond, Duration: sim.Microsecond, Sw: 1, Port: 2},
		{Kind: TorReboot, At: sim.Microsecond, Sw: 0},
	}}
	s := sc.String()
	for _, want := range []string{"seed 7", "link-flap", "sw1.2", "tor-reboot", "sw0"} {
		if !contains(s, want) {
			t.Fatalf("scenario string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRunScenarioNoFaultsBaseline(t *testing.T) {
	res, err := RunScenario(Scenario{Seed: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations on a fault-free run: %v", res.Violations)
	}
	if res.Sender.Completions == 0 {
		t.Fatal("no completions")
	}
}

func TestLinkFlapRecordsTraceAndRecovers(t *testing.T) {
	tr := trace.New(1 << 19)
	sc := Scenario{Seed: 3, Faults: []Fault{
		{Kind: LinkFlap, At: 20 * sim.Microsecond, Duration: 100 * sim.Microsecond, Sw: 0, Port: 2},
	}}
	res, err := RunScenario(sc, Options{ClusterConfig: workload.ClusterConfig{Tracer: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if n := len(tr.ByOp(trace.FaultLinkDown)); n != 1 {
		t.Fatalf("fault-down events = %d", n)
	}
	if n := len(tr.ByOp(trace.FaultLinkUp)); n != 1 {
		t.Fatalf("fault-up events = %d", n)
	}
}

// The acceptance scenario: a ToR reboot mid-flow loses the Fig. 4a state.
// The hardened cluster (Relearn + RTO backoff) must complete every transfer
// and never permanently block a valid NACK — transfers finishing is the
// observable proof, relearns and the reboot counter pin down the mechanism.
func TestTorRebootRecovery(t *testing.T) {
	tr := trace.New(1 << 19)
	sc := Scenario{Seed: 11, Faults: []Fault{
		// Reboot ToR 0 while its flows are mid-transfer, with concurrent
		// data loss so NACK traffic exercises the rebuilt state.
		{Kind: TorReboot, At: 40 * sim.Microsecond, Sw: 0},
		{Kind: DropRate, At: 10 * sim.Microsecond, Duration: 150 * sim.Microsecond, Sw: 0, Port: 2, Rate: 0.01},
	}}
	res, err := RunScenario(sc, Options{ClusterConfig: workload.ClusterConfig{Tracer: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Middleware.Reboots != 1 {
		t.Fatalf("reboots = %d", res.Middleware.Reboots)
	}
	if res.Middleware.Relearns == 0 {
		t.Fatal("rebooted ToR never relearned its flows")
	}
	if n := len(tr.ByOp(trace.FaultReset)); n != 1 {
		t.Fatalf("fault-reset events = %d", n)
	}
}

func TestBlackholeDetectedAndRepaired(t *testing.T) {
	sc := Scenario{Seed: 5, Faults: []Fault{
		{Kind: Blackhole, At: 30 * sim.Microsecond, Duration: 120 * sim.Microsecond, Sw: 1, Port: 2},
	}}
	res, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	// The silent window must actually eat traffic; recovery then relies on
	// the sender's RTO backoff until detection fails the link over.
	if res.Net.DataDrops == 0 && res.Net.CtrlDrops == 0 {
		t.Fatal("blackhole dropped nothing")
	}
}

func TestCtrlLossScenarioCompletes(t *testing.T) {
	sc := Scenario{Seed: 9, Faults: []Fault{
		{Kind: CtrlLoss, At: 10 * sim.Microsecond, Duration: 200 * sim.Microsecond, Sw: -1, Port: -1, Rate: 0.02},
	}}
	res, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Net.CtrlDrops == 0 {
		t.Fatal("no control packets dropped")
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	tp := testTopo(t)
	sc := Generate(17, tp)
	a, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.End != b.End || a.Sender != b.Sender || a.Middleware != b.Middleware || a.Net != b.Net {
		t.Fatalf("same scenario, different runs:\n%+v\n%+v", a, b)
	}
}

// TestChaosSoak is the tentpole acceptance gate: ≥50 seeded scenarios, every
// invariant holds on each. A failing seed prints its full scenario — rerun
// RunScenario(Generate(seed, topo), Options{}) to reproduce deterministically.
func TestChaosSoak(t *testing.T) {
	const seeds = 50
	results, err := Soak(1, seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != seeds {
		t.Fatalf("ran %d scenarios, want %d", len(results), seeds)
	}
	faulted := 0
	for _, res := range results {
		if len(res.Violations) != 0 {
			t.Errorf("%v\n  violations: %v", res.Scenario, res.Violations)
		}
		if res.Net.DataDrops+res.Net.CtrlDrops+res.Net.LinkDrops > 0 ||
			res.Middleware.Reboots > 0 || res.Sender.Timeouts > 0 {
			faulted++
		}
	}
	// The soak is vacuous if the schedules never actually hurt anything.
	if faulted < seeds/2 {
		t.Fatalf("only %d/%d scenarios caused observable damage", faulted, seeds)
	}
}
