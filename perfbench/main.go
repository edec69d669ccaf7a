// Command perfbench is the simulator's benchmark: it runs one workload for a
// fixed time through the public experiment API (exp.RunObserved, plus the
// topology and cluster builders for the set-up timing), checks every trial's
// outputs, and prints the metrics named in BENCHMARK.json. It measures host
// cost — what the simulator costs to run — not the simulated results, which
// it checks instead.
//
//	perfbench --workload fig5-allreduce --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics from untraced trials.
// With --trace 1 it alternates untraced trials with CPU-profiled ones and
// reports the per-layer metrics: self time per layer from the profile, the
// simulator's own work counters, and the tracing overhead. The last line of
// standard output is the JSON result; the lines before it are the host
// stamp, the trial digest and each metric in readable form. See README.md.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"themis/internal/exp"
)

// Metric units, as declared in BENCHMARK.json.
var endToEndUnits = map[string]string{
	"wall_s":         "s",
	"cpu_s":          "s",
	"setup_s":        "s",
	"sim_pkts_per_s": "pkt/s",
	"peak_rss_mb":    "MB",
	"sim_cct_ms":     "ms",
}

var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"failed_frac":             "frac",
		"sim.ns_per_event":        "ns",
		"sim.queue_high_water":    "count",
		"sim.events_per_pkt":      "1/pkt",
		"sim.cancelled_per_pkt":   "1/pkt",
		"fabric.ns_per_pkt":       "ns",
		"core.nacks_seen":         "count",
		"core.nacks_blocked_frac": "frac",
		"core.evictions":          "count",
		"core.relearns":           "count",
		"route.msgs":              "count",
		"route.episodes":          "count",
		"topo.build_s":            "s",
		"workload.build_s":        "s",
		"go.alloc_bytes_per_pkt":  "B/pkt",
		"go.gc_cycles":            "count",
		"fabric.delivered":        "count",
		"fabric.ecn_marks":        "count",
		"rnic.retrans_ratio":      "frac",
		"rnic.goodput_frac":       "frac",
		"rnic.timeouts":           "count",
		"cc.cnps_rx":              "count",
		"trace.overhead_frac":     "frac",
		"trace.profiled_s":        "s",
	}
	for _, l := range layers {
		u[selfMetric(l)] = "s"
	}
	return u
}()

func selfMetric(layer string) string {
	if layer == goLayer {
		return "go.gc_s"
	}
	return layer + ".self_s"
}

// minTrials is the fewest timed trials (trace pairs) a run makes however
// short --seconds is, so every median has samples behind it.
const minTrials = 3

// Set-up builds per trial (see runner.setups): a set-up takes from under a
// millisecond to tens of milliseconds, and the short ones need many samples
// for a steady median.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 0.05
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a profiled run")
	root := flag.String("root", ".", "source checkout, for the host stamp")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or trace %d\n", *name, *trace)
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	// One load generator: this process. The shard count never exceeds the
	// host's CPUs, and neither does GOMAXPROCS (Go's default).
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintln(out, hostStamp(*root))

	res := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false, out)
	printResult(out, res)
	if !res.Correct {
		out.Flush()
		os.Exit(1)
	}
}

func printResult(out io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-26s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result of floats and strings always marshals
	}
	fmt.Fprintln(out, string(b))
}

// runner accumulates the trials of one benchmark run.
type runner struct {
	sc  exp.Scenario
	w   benchWorkload
	log io.Writer

	attempted, failed int
	digest            string
	problems          []string
}

func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(r.log, "FAIL %s: %s\n", r.w.name, msg)
}

// timed is one trial's host cost.
type timed struct {
	wall, cpu  float64 // seconds
	allocBytes uint64
	gcCycles   uint32
	profile    map[string]int64 // CPU ns per layer; profiled trials only
	profiled   int64            // CPU ns in the profile
}

// trial runs the scenario once through exp.RunObserved from a freshly
// collected heap, times it, and checks its outputs and digest.
func (r *runner) trial(o exp.Obs, profiled bool) (exp.Trial, timed) {
	var tm timed
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.problem("cpu profile: %v", err)
			profiled = false
		}
	}
	t0 := time.Now()
	t := exp.RunObserved(r.sc, o)
	tm.wall = time.Since(t0).Seconds()
	if profiled {
		pprof.StopCPUProfile()
	}
	tm.cpu = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	tm.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	tm.gcCycles = m1.NumGC - m0.NumGC
	if profiled {
		var err error
		if tm.profile, tm.profiled, err = selfTimes(prof.Bytes()); err != nil {
			r.problem("%v", err)
		}
	}

	r.attempted++
	ok := true
	if err := checkOutputs(r.sc, t); err != nil {
		r.problem("%v", err)
		ok = false
	}
	if d := trialDigest(t); r.digest == "" {
		r.digest = d
	} else if d != r.digest {
		r.problem("trial digest %s differs from the run's first %s", d, r.digest)
		ok = false
	}
	if !ok {
		r.failed++
	}
	fmt.Fprintf(r.log, "trial %d wall %.4fs cpu %.4fs profiled %v\n", r.attempted, tm.wall, tm.cpu, profiled)
	return t, tm
}

// trialDigest hashes the serialized trial record. The metrics snapshot and
// flight-dump path depend on how the trial was observed, not on what it
// simulated, so they are left out: traced and untraced repeats must agree.
func trialDigest(t exp.Trial) string {
	t.Metrics, t.FlightDump = nil, ""
	b, err := json.Marshal(t)
	if err != nil {
		panic(err) // Trial is a fixed-field struct of plain values
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// timeSetup builds the topology alone and then the set-up cluster, and
// returns their build times in seconds. A failing or panicking build counts
// as a failed trial and returns a nil setup.
func (r *runner) timeSetup() (s *setup, topoS, buildS float64) {
	defer func() {
		if p := recover(); p != nil {
			r.attempted++
			r.failed++
			r.problem("setup panicked: %v", p)
			s = nil
		}
	}()
	runtime.GC()
	t0 := time.Now()
	_, err := buildTopology(r.sc)
	topoS = time.Since(t0).Seconds()
	if err == nil {
		t0 = time.Now()
		s, err = buildSetup(r.sc)
		buildS = time.Since(t0).Seconds()
	}
	if err != nil {
		r.attempted++
		r.failed++
		r.problem("setup: %v", err)
		return nil, 0, 0
	}
	return s, topoS, buildS
}

// setups times the set-up builds that precede every trial, so traced and
// untraced trials start from the same state: at least minSetups builds, and
// more, up to maxSetups, until they have taken setupBudget seconds. It
// appends each build's topology and cluster times and reports false when a
// build failed.
func (r *runner) setups(topoS, buildS *[]float64) bool {
	var spent float64
	for n := 0; n < minSetups || (spent < setupBudget && n < maxSetups); n++ {
		s, tb, b := r.timeSetup()
		if s == nil {
			return false
		}
		*topoS, *buildS = append(*topoS, tb), append(*buildS, b)
		spent += b
	}
	return true
}

// warmup runs the first trial untimed: it fills the heap and code caches,
// and its record proves the separately built set-up is exp.Run's.
func (r *runner) warmup() {
	s, _, _ := r.timeSetup()
	failed := r.failed
	t, _ := r.trial(exp.Obs{}, false)
	if s == nil || r.failed > failed {
		return
	}
	if err := checkSetup(r.sc, s, t); err != nil {
		r.problem("%v", err)
		r.failed++
	}
}

// run measures one workload for the given time and returns its result. Log
// lines go to log. tiny shrinks the workload (the benchmark's tests).
func run(w benchWorkload, seed int64, d time.Duration, traced, tiny bool, log io.Writer) result {
	r := &runner{sc: w.scenario(seed, tiny), w: w, log: log}
	metrics := map[string]metric{}
	r.warmup()
	start := time.Now()
	more := func(n int) bool { return n < minTrials || time.Since(start) < d }
	if traced {
		perLayer(r, metrics, more)
	} else {
		endToEnd(r, metrics, more)
	}
	fmt.Fprintf(log, "digest %s seed %d sha256 %s (%d trials)\n", w.name, seed, r.digest, r.attempted)
	return result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
}

// endToEnd runs untraced trials, each after its timed set-up builds, and
// fills the end-to-end metrics with their medians.
func endToEnd(r *runner, metrics map[string]metric, more func(int) bool) {
	var walls, cpus, topos, setups, rates []float64
	var last exp.Trial
	for more(len(walls)) && r.setups(&topos, &setups) {
		t, tm := r.trial(exp.Obs{}, false)
		last = t
		walls, cpus = append(walls, tm.wall), append(cpus, tm.cpu)
		rates = append(rates, float64(t.Net.Delivered)/tm.wall)
	}
	set := func(name string, v float64) { metrics[name] = metric{v, endToEndUnits[name]} }
	set("wall_s", median(walls))
	set("cpu_s", median(cpus))
	set("setup_s", median(setups))
	set("sim_pkts_per_s", median(rates))
	set("peak_rss_mb", peakRSSMB())
	set("sim_cct_ms", last.CCTMillis)
}

// perLayer alternates untraced and profiled trials, each after the same
// timed set-up builds, and fills the per-layer metrics. Self times are per
// profiled trial; the work counters come from the (deterministic) trial
// record.
func perLayer(r *runner, metrics map[string]metric, more func(int) bool) {
	var plainWalls, tracedWalls, topoBuilds, builds []float64
	var allocs, gcs, pkts float64
	cpuNS := map[string]int64{}
	var profiled int64
	var t exp.Trial
	for more(len(tracedWalls)) && r.setups(&topoBuilds, &builds) {
		plain, tm := r.trial(exp.Obs{}, false)
		plainWalls = append(plainWalls, tm.wall)
		allocs += float64(tm.allocBytes)
		gcs += float64(tm.gcCycles)
		pkts += float64(plain.Net.Delivered)

		if !r.setups(&topoBuilds, &builds) {
			break
		}
		t, tm = r.trial(exp.Obs{Metrics: r.w.registry}, true)
		tracedWalls = append(tracedWalls, tm.wall)
		for _, l := range layers {
			cpuNS[l] += tm.profile[l]
		}
		profiled += tm.profiled
	}
	if len(tracedWalls) == 0 {
		return // the set-up failed; the run is already marked incorrect
	}
	n := float64(len(tracedWalls))
	set := func(name string, v float64) { metrics[name] = metric{v, perLayerUnits[name]} }
	for _, l := range layers {
		set(selfMetric(l), float64(cpuNS[l])/n/1e9)
	}
	set("trace.profiled_s", float64(profiled)/n/1e9)
	set("trace.overhead_frac", median(tracedWalls)/median(plainWalls)-1)
	set("topo.build_s", median(topoBuilds))
	set("workload.build_s", median(builds))

	delivered := float64(t.Net.Delivered)
	set("sim.ns_per_event", ratio(float64(cpuNS["sim.wheel"])/n, float64(t.Engine.EventsExecuted)))
	set("sim.queue_high_water", float64(t.Engine.HeapHighWater))
	set("sim.events_per_pkt", ratio(float64(t.Engine.EventsExecuted), delivered))
	set("sim.cancelled_per_pkt", ratio(float64(t.Engine.EventsCancelled), delivered))
	set("fabric.ns_per_pkt", ratio(float64(cpuNS["fabric"])/n, delivered))
	set("core.nacks_seen", float64(t.Middleware.NacksSeen))
	set("core.nacks_blocked_frac", ratio(float64(t.Middleware.NacksBlocked), float64(t.Middleware.NacksSeen)))
	set("core.evictions", float64(t.Middleware.Evictions))
	set("core.relearns", float64(t.Middleware.Relearns))
	var msgs, episodes float64
	if t.Metrics != nil {
		msgs, _ = t.Metrics.Lookup("route.msgs")
		episodes, _ = t.Metrics.Lookup("route.episodes")
	}
	set("route.msgs", msgs)
	set("route.episodes", episodes)
	set("go.alloc_bytes_per_pkt", ratio(allocs, pkts))
	set("go.gc_cycles", gcs/float64(len(plainWalls)))
	set("fabric.delivered", delivered)
	set("fabric.ecn_marks", float64(t.Net.EcnMarks))
	set("rnic.retrans_ratio", t.RetransRatio)
	set("rnic.goodput_frac", ratio(float64(t.Sender.GoodputBytes), float64(t.Sender.BytesSent)))
	set("rnic.timeouts", float64(t.Sender.Timeouts))
	set("cc.cnps_rx", float64(t.Sender.CnpsRx))
	set("failed_frac", ratio(float64(r.failed), float64(r.attempted)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostStamp identifies the machine and the code a result was measured on.
// Results are comparable only between stamps from the same machine.
func hostStamp(root string) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit, sourceDigest(root))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even in a checkout without git.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, p)
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
