package main

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"themis/internal/sim"
	"themis/internal/topo"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, s.Workloads[i].Name, w.name)
		}
	}
}

// TestTinyWorkloads runs every workload on tiny inputs through the same code
// path as a real run, untraced and traced, and checks that each metric
// BENCHMARK.json names is emitted with its unit and that outputs are correct.
func TestTinyWorkloads(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := run(w, 7, 0, traced, true, io.Discard)
			if !res.Correct || res.Failed != 0 || res.Attempted < minTrials {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json names %d",
					w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				checkTraced(t, w.name, res.Metrics)
			}
		}
	}
}

// checkTraced asserts the per-layer invariants of a traced run: self times
// add up to the profiled CPU, and the spray workload, which bypasses the
// Themis middleware and the routing plane, reports no work for them.
func checkTraced(t *testing.T, name string, m map[string]metric) {
	t.Helper()
	var sum float64
	for _, l := range layers {
		sum += m[selfMetric(l)].Value
	}
	if total := m["trace.profiled_s"].Value; math.Abs(sum-total) > 1e-9 {
		t.Errorf("%s: layer self times sum to %v s, profiled CPU is %v s", name, sum, total)
	}
	if name != "spray-fattree" {
		return
	}
	for _, k := range []string{"core.self_s", "core.nacks_seen", "core.evictions", "core.relearns",
		"route.self_s", "route.msgs", "route.episodes"} {
		if v := m[k].Value; v != 0 {
			t.Errorf("spray-fattree: %s = %v, want 0", k, v)
		}
	}
}

// TestEveryInternalPackageHasALayer fails when a package is added under
// internal/ without a layer, so its CPU cannot silently escape attribution.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	seen := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, _ := filepath.Rel(root, p)
				pkg := filepath.ToSlash(rel)
				seen++
				if _, ok := layerOf(internalPrefix+pkg+".F", pkg+"/x.go"); !ok {
					t.Errorf("package themis/internal/%s has no layer in packageLayers", pkg)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < len(packageLayers) {
		t.Errorf("found %d internal packages, packageLayers maps %d: a mapped package is gone", seen, len(packageLayers))
	}
}

// TestSelfTimesAttributeARealProfile profiles a loop of topology builds and
// checks the decoder charges most of it to topo, runtime frames included,
// and that the layer times add up to the profile's total.
func TestSelfTimesAttributeARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	link := topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := topo.NewLeafSpine(topo.LeafSpineConfig{
			Leaves: 16, Spines: 16, HostsPerLeaf: 16, HostLink: link, FabricLink: link,
		}); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	byLayer, total, err := selfTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range layers {
		sum += byLayer[l]
	}
	if total == 0 || sum != total {
		t.Fatalf("layers sum to %d ns of a %d ns profile: %v", sum, total, byLayer)
	}
	if share := float64(byLayer["topo"]) / float64(total); share < 0.5 {
		t.Errorf("topo got %.0f%% of a topology-build profile: %v", 100*share, byLayer)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		fn, file, layer string
	}{
		{"themis/internal/sim.(*Engine).Run", "themis/internal/sim/engine.go", "sim.wheel"},
		{"themis/internal/sim.(*wheel).runPop", "themis/internal/sim/wheel.go", "sim.wheel"},
		{"themis/internal/sim.(*ShardGroup).Run.func1", "themis/internal/sim/shard.go", "sim.shard"},
		{"themis/internal/fabric.(*outQueue).deliverBurst", "themis/internal/fabric/queue.go", "fabric"},
		{"themis/internal/memmodel.Params.PerQPBytes", "themis/internal/memmodel/memmodel.go", "core"},
		{"themis/internal/exp.RunObserved", "themis/internal/exp/trial.go", "workload"},
	}
	for _, c := range cases {
		if got, ok := layerOf(c.fn, c.file); !ok || got != c.layer {
			t.Errorf("layerOf(%q) = %q, %v; want %q", c.fn, got, ok, c.layer)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "main.run", "themis.New", "themis/internal/nosuch.F"} {
		if got, ok := layerOf(fn, ""); ok {
			t.Errorf("layerOf(%q) = %q, want no layer", fn, got)
		}
	}
}

// TestRunHonoursDuration checks the time-based loop: a run keeps starting
// trials until the measurement time is up.
func TestRunHonoursDuration(t *testing.T) {
	w, _ := findWorkload("spray-fattree")
	start := time.Now()
	res := run(w, 3, 300*time.Millisecond, false, true, io.Discard)
	if time.Since(start) < 300*time.Millisecond || !res.Correct {
		t.Fatalf("run returned after %v, correct=%v", time.Since(start), res.Correct)
	}
}
