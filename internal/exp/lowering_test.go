package exp

import (
	"reflect"
	"testing"

	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/workload"
)

// lowered is what a workload builds from a scenario: the cluster it runs on
// (its defaults and pins applied) and its own shape fields.
type lowered struct {
	cluster workload.ClusterConfig
	shape   any
}

// shapeOf strips the embedded ClusterConfig from a workload config, leaving
// the fields the workload adds on top of it.
func shapeOf(cfg any) any {
	v := reflect.New(reflect.TypeOf(cfg)).Elem()
	v.Set(reflect.ValueOf(cfg))
	v.FieldByName("ClusterConfig").SetZero()
	return v.Interface()
}

// lower pairs a workload config with the cluster it builds.
func lower[C interface{ Cluster() workload.ClusterConfig }](c C) lowered {
	return lowered{c.Cluster(), shapeOf(c)}
}

// lowerChaos is lower for the chaos harness, whose cluster seed comes from
// the chaos scenario.
func lowerChaos(s Scenario) lowered {
	o := s.chaosOptions(s.cluster())
	return lowered{o.Cluster(s.Seed), shapeOf(o)}
}

// lowerings drive each workload's lowering exactly as run does.
var lowerings = map[Workload]func(Scenario) lowered{
	Motivation:  func(s Scenario) lowered { return lower(s.motivation(s.cluster())) },
	Collective:  func(s Scenario) lowered { return lower(s.collective(s.cluster())) },
	Incast:      func(s Scenario) lowered { return lower(s.incast(s.cluster())) },
	Churn:       func(s Scenario) lowered { return lower(s.churn(s.cluster())) },
	Spray:       func(s Scenario) lowered { return lower(s.spray(s.cluster())) },
	Chaos:       lowerChaos,
	Convergence: lowerChaos,
}

// shapeFields are the Scenario fields each workload lowers into its own
// config rather than into the cluster.
var shapeFields = map[Workload][]string{
	Motivation:  {"MessageBytes", "Horizon"},
	Collective:  {"Pattern", "MessageBytes", "Groups", "Horizon", "LinkFail"},
	Incast:      {"Senders", "MessageBytes", "Horizon"},
	Churn:       {"QPs", "Concurrency", "MessageBytes", "Faults", "Horizon"},
	Spray:       {"MessageBytes", "Horizon"},
	Chaos:       {"LBArmed", "Flows", "MessageBytes", "Horizon"},
	Convergence: {"Flows", "MessageBytes", "Horizon"},
}

// pinned lists, per workload, the Scenario fields it documents as having no
// effect (see the Workload constants): values it pins whatever the scenario
// says, and shape fields of other workloads.
var pinned = map[Workload]map[string]string{
	Motivation: merge(otherShapes(Motivation), map[string]string{
		"Leaves": "4×4×2 fabric", "Spines": "4×4×2 fabric", "HostsPerLeaf": "4×4×2 fabric",
		"FatTreeK": "4×4×2 fabric", "Bandwidth": "100 Gbps fabric",
	}),
	Collective: otherShapes(Collective),
	Incast: merge(otherShapes(Incast), map[string]string{
		"Leaves": "one host per rack", "Spines": "one host per rack",
		"HostsPerLeaf": "one host per rack", "FatTreeK": "one host per rack",
	}),
	Churn: otherShapes(Churn),
	Spray: merge(otherShapes(Spray), map[string]string{
		"Leaves": "fat-tree only", "Spines": "fat-tree only", "HostsPerLeaf": "fat-tree only",
	}),
	Chaos: merge(otherShapes(Chaos), map[string]string{
		"LB": "harness default unless LBArmed", "LossyControl": "hardening", "RTO": "hardening",
		"RTOBackoff": "hardening", "RTOMax": "hardening", "Themis": "hardening",
		"DropEveryNData": "the injector owns the loss hook",
	}),
	Convergence: merge(otherShapes(Convergence), map[string]string{
		"LBArmed": "always armed", "LossyControl": "hardening", "RTO": "hardening",
		"RTOBackoff": "hardening", "RTOMax": "hardening", "Themis": "hardening",
		"DropEveryNData": "the injector owns the loss hook",
		"Drain":          "appended to the fault schedule by Scenario.faults",
	}),
}

// otherShapes marks every shape field of the other workloads as not applying
// to w.
func otherShapes(w Workload) map[string]string {
	own := map[string]bool{}
	for _, f := range shapeFields[w] {
		own[f] = true
	}
	out := map[string]string{"Drain": "convergence only"}
	for ow, fs := range shapeFields {
		for _, f := range fs {
			if !own[f] {
				out[f] = string(ow) + " only"
			}
		}
	}
	return out
}

func merge(a, b map[string]string) map[string]string {
	for k, v := range b {
		a[k] = v
	}
	return a
}

// scenarioLeaves lists every settable Scenario field, descending into
// nested structs (the Themis knobs) so each knob is varied on its own.
func scenarioLeaves() (names, tops []string, index [][]int) {
	var walk func(t reflect.Type, prefix string, top string, idx []int)
	walk = func(t reflect.Type, prefix string, top string, idx []int) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			at := append(append([]int(nil), idx...), i)
			name, tp := prefix+f.Name, top
			if tp == "" {
				tp = f.Name
			}
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, name+".", tp, at)
				continue
			}
			names, tops, index = append(names, name), append(tops, tp), append(index, at)
		}
	}
	walk(reflect.TypeOf(Scenario{}), "", "", nil)
	return names, tops, index
}

// setNonZero gives v a value distinct from its zero value and from every
// workload default.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(5)
	case reflect.Float64:
		v.SetFloat(5)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("Scenario.%s: teach setNonZero the %v kind", name, v.Kind())
	}
}

// Guard against the next dropped knob: every Scenario field reaches the
// ClusterConfig each workload builds, or the workload's own shape fields, or
// it is on that workload's documented pin list. A field added to Scenario
// and not lowered in Scenario.cluster() fails here. Pins are checked too: a
// pinned field must change nothing.
func TestScenarioFieldsReachTheCluster(t *testing.T) {
	meta := map[string]bool{"Name": true, "Workload": true} // label and dispatch
	names, tops, index := scenarioLeaves()
	for w, lowering := range lowerings {
		base := Scenario{Workload: w, Seed: 1}
		want := lowering(base)
		shape := map[string]bool{}
		for _, f := range shapeFields[w] {
			shape[f] = true
		}
		for i, name := range names {
			if meta[name] {
				continue
			}
			varied := base
			setNonZero(t, name, reflect.ValueOf(&varied).Elem().FieldByIndex(index[i]))
			got := lowering(varied)
			clusterMoved := !reflect.DeepEqual(got.cluster, want.cluster)
			shapeMoved := !reflect.DeepEqual(got.shape, want.shape)
			switch why, pin := pinned[w][tops[i]]; {
			case pin && (clusterMoved || shapeMoved):
				t.Errorf("%s: Scenario.%s is documented as pinned (%s) but changed the lowered config", w, name, why)
			case pin:
			case shape[name] && !shapeMoved:
				t.Errorf("%s: Scenario.%s does not reach the workload config", w, name)
			case !shape[name] && !clusterMoved:
				t.Errorf("%s: Scenario.%s does not reach the ClusterConfig; lower it in Scenario.cluster() or document it as a pin", w, name)
			}
		}
	}
	if len(lowerings) != 7 {
		t.Fatalf("lowerings cover %d workloads, want all 7", len(lowerings))
	}

	// Drain reaches the convergence fault schedule instead of a config.
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: 3, Spines: 3, HostsPerLeaf: 2,
		HostLink:   topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
		FabricLink: topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Workload: Convergence, Seed: 1}
	plain := len(sc.faults(tp).Faults)
	sc.Drain = true
	if n := len(sc.faults(tp).Faults); n != plain+1 {
		t.Fatalf("Drain: %d faults, want %d", n, plain+1)
	}
}
