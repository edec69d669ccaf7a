package exp

import (
	"reflect"
	"strings"
	"testing"

	"themis/internal/rnic"
	"themis/internal/trace"
	"themis/internal/workload"
)

// trialBody is a trial record without the scenario echo, i.e. only what the
// run computed.
func trialBody(t Trial) Trial {
	t.Name, t.Scenario = "", Scenario{}
	return t
}

// Scenario knobs that the per-workload config copies used to drop: each must
// change what the run computes, not just the label echoed into the trial.
func TestScenarioKnobsChangeTheRun(t *testing.T) {
	incast := Scenario{Workload: Incast, Seed: 4, Senders: 4, MessageBytes: 256 << 10, LB: workload.Themis}
	spray := SprayGrid(1)[1] // random packet spraying: out-of-order arrivals
	reps := AblationCell(1, workload.REPS)
	reps.MessageBytes = 256 << 10
	cases := []struct {
		name string
		base Scenario
		set  func(*Scenario)
	}{
		{"incast/transport", incast, func(s *Scenario) { s.Transport = rnic.GoBackN }},
		{"spray/transport", spray, func(s *Scenario) { s.Transport = rnic.GoBackN }},
		{"collective/reps-cache", reps, func(s *Scenario) { s.RepsCache = 2 }},
	}
	for _, tc := range cases {
		varied := tc.base
		tc.set(&varied)
		a, b := Run(tc.base), Run(varied)
		if a.Err != "" || b.Err != "" {
			t.Fatalf("%s: trials failed: %q / %q", tc.name, a.Err, b.Err)
		}
		if reflect.DeepEqual(trialBody(a), trialBody(b)) {
			t.Errorf("%s: the knob changed only the label; both runs computed cct=%vms events=%d",
				tc.name, a.CCTMillis, a.Engine.EventsExecuted)
		}
	}
}

// Settings a workload cannot honour fail the trial with an error instead of
// a panic or a silently ignored knob. The sharded spray network cannot host
// global observability state, loss hooks or the distributed routing plane;
// collective groups are built from leaf-spine racks.
func TestRefusedSettingsFailTheTrial(t *testing.T) {
	spray := SprayGrid(1)[0]
	lossy, routed, fatTree := spray, spray, AblationCell(1, workload.Themis)
	lossy.DropEveryNData = 100
	routed.DistributedRouting = true
	fatTree.FatTreeK = 4
	for _, tc := range []struct {
		name string
		sc   Scenario
		obs  Obs
	}{
		{"spray/metrics", spray, Obs{Metrics: true}},
		{"spray/tracer", spray, Obs{Tracer: trace.New(1 << 10)}},
		{"spray/drop-every-n", lossy, Obs{}},
		{"spray/distributed-routing", routed, Obs{}},
		{"collective/fat-tree", fatTree, Obs{}},
	} {
		tr := RunObserved(tc.sc, tc.obs)
		if tr.Err == "" {
			t.Errorf("%s: trial succeeded; want a refusal", tc.name)
		}
		if strings.HasPrefix(tr.Err, "panic:") {
			t.Errorf("%s: refusal panicked: %s", tc.name, tr.Err)
		}
		if tr.CCTMillis != 0 || tr.Engine != (Trial{}).Engine {
			t.Errorf("%s: refused trial carries metrics: %+v", tc.name, tr)
		}
	}
}
