package exp

import (
	"fmt"

	"themis/internal/chaos"
	"themis/internal/core"
	"themis/internal/fabric"
	"themis/internal/obs"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/trace"
	"themis/internal/workload"
)

// Trial is the result record of one scenario run: the scenario echoed back
// (artifacts are self-describing), the headline metrics every workload maps
// onto, and the raw counter blocks. Fixed fields only — the JSON form must be
// byte-identical across runs.
type Trial struct {
	Name     string   `json:"name"`
	Scenario Scenario `json:"scenario"`
	// Err is non-empty if the run failed (e.g. incomplete at the horizon);
	// metric fields are zero in that case.
	Err string `json:"err,omitempty"`

	// CCTMillis is the completion time of the workload in milliseconds —
	// tail-group CCT for collectives, last-flow completion for motivation
	// and chaos, last-ack for incast.
	CCTMillis float64 `json:"cct_ms"`
	// RetransRatio is retransmitted/total data packets over all flows.
	RetransRatio float64 `json:"retrans_ratio"`
	// GoodputGbps is the workload's aggregate goodput where defined
	// (motivation: mean per-flow throughput; incast: receiver goodput).
	GoodputGbps float64 `json:"goodput_gbps,omitempty"`
	// AvgRateGbps is the observed flow's mean DCQCN sending rate
	// (motivation only, Fig. 1c).
	AvgRateGbps float64 `json:"avg_rate_gbps,omitempty"`

	// TableBytesPeak/TableBudgetBytes record the peak flow-table occupancy
	// against the configured §4 budget (churn scenarios only).
	TableBytesPeak   int `json:"table_bytes_peak,omitempty"`
	TableBudgetBytes int `json:"table_budget_bytes,omitempty"`

	// Counter blocks.
	Sender     rnic.SenderStats `json:"sender"`
	Middleware core.Stats       `json:"middleware"`
	Net        fabric.Counters  `json:"net"`
	Engine     sim.Metrics      `json:"engine"`

	// Violations lists invariant violations (chaos scenarios only).
	Violations []string `json:"violations,omitempty"`

	// Metrics is the trial's metrics-registry snapshot (RunObserved with
	// Obs.Metrics; nil otherwise).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// FlightDump is the path of the flight-recorder dump written when an
	// armed trial failed, panicked or violated an invariant.
	FlightDump string `json:"flight_dump,omitempty"`
}

// Obs configures the observability harness of a trial (all fields optional;
// the zero value observes nothing and adds no cost).
type Obs struct {
	// Tracer, if non-nil, records the run's packet and middleware events.
	// Owned by the caller; with Runner parallelism > 1 leave it nil (a shared
	// ring would race) and use FlightDir, which is per-trial.
	Tracer *trace.Tracer
	// Metrics creates a per-trial metrics registry; its snapshot lands in
	// Trial.Metrics.
	Metrics bool
	// FlightDir, if non-empty, arms a per-trial flight recorder: the run
	// records into a bounded ring and, when the trial errors, panics or
	// violates an invariant, the retained window is dumped to
	// <FlightDir>/flight-<label>.jsonl for `themis-sim inspect`. Ignored when
	// Tracer is set (the caller already owns the ring).
	FlightDir string
	// FlightCapacity sizes the flight ring (default obs.DefaultFlightCapacity).
	FlightCapacity int
}

// Run executes one scenario to completion on a private engine and returns its
// trial record. Failures are reported in Trial.Err, never by panicking, so a
// grid run surfaces every bad cell at once.
func Run(sc Scenario) Trial {
	return RunObserved(sc, Obs{})
}

// RunObserved is Run with the observability harness attached: an optional
// event tracer or per-trial flight recorder, and an optional per-trial
// metrics registry snapshotted into the result. A panicking workload is
// converted into Trial.Err (with a flight dump when armed) instead of taking
// the whole grid down.
func RunObserved(sc Scenario, o Obs) (t Trial) {
	// Identify the trial up front so a panic dump still carries its label.
	t = Trial{Name: sc.Label(), Scenario: sc}
	var flight *obs.FlightRecorder
	tr := o.Tracer
	if tr == nil && o.FlightDir != "" {
		flight = obs.NewFlightRecorder(o.FlightDir, o.FlightCapacity)
		tr = flight.Tracer()
	}
	var reg *obs.Registry
	if o.Metrics {
		reg = obs.NewRegistry()
	}
	dump := func(violations []string) {
		if flight == nil {
			return
		}
		path, err := flight.Dump(t.Name, sc.Seed, violations)
		if err != nil {
			t.Err += "; " + obs.DumpError(err)
			return
		}
		t.FlightDump = path
	}
	defer func() {
		if r := recover(); r != nil {
			t.Err = fmt.Sprintf("panic: %v", r)
			dump([]string{t.Err})
		}
	}()
	t = run(sc, tr, reg)
	t.Metrics = reg.Snapshot()
	if t.Err != "" || len(t.Violations) > 0 {
		dump(t.Violations)
	}
	return t
}

// run dispatches the scenario to its workload runner with the observability
// hooks threaded through.
func run(sc Scenario, tr *trace.Tracer, reg *obs.Registry) Trial {
	t := Trial{Name: sc.Label(), Scenario: sc}
	fail := func(err error) Trial {
		t.Err = err.Error()
		return t
	}
	c := sc.cluster()
	c.Tracer, c.Metrics = tr, reg
	switch sc.Workload {
	case Motivation:
		res, err := workload.RunMotivation(sc.motivation(c))
		if err != nil {
			return fail(err)
		}
		t.CCTMillis = res.CompletionTime.Seconds() * 1e3
		t.RetransRatio = res.AvgRetransRatio
		t.GoodputGbps = res.AvgThroughput
		t.AvgRateGbps = res.AvgRateGbps
		t.Sender = res.Sender
		t.Engine = res.Engine
	case Collective:
		res, err := workload.RunCollective(sc.collective(c))
		if err != nil {
			return fail(err)
		}
		t.CCTMillis = res.TailCCT.Seconds() * 1e3
		t.RetransRatio = res.RetransRatio()
		t.Sender = res.Sender
		t.Middleware = res.Middleware
		t.Net = res.Net
		t.Engine = res.Engine
	case Incast:
		res, err := workload.RunIncast(sc.incast(c))
		if err != nil {
			return fail(err)
		}
		t.CCTMillis = res.CCT.Seconds() * 1e3
		t.GoodputGbps = res.GoodputGbps
		t.Sender = senderAgg(res.Sender)
		t.Net.DataDrops = res.Drops
		t.Engine = res.Engine
	case Chaos, Convergence:
		opt := sc.chaosOptions(c)
		// The fault generator needs the topology; probe-build the cluster
		// once (cheap: no traffic runs on it).
		probe, err := chaos.BuildCluster(chaos.Scenario{Seed: sc.Seed}, opt)
		if err != nil {
			return fail(err)
		}
		res, err := chaos.RunScenario(sc.faults(probe.Topo), opt)
		if err != nil {
			return fail(err)
		}
		t.CCTMillis = res.End.Seconds() * 1e3
		t.RetransRatio = retransRatio(res.Sender)
		t.Sender = res.Sender
		t.Middleware = res.Middleware
		t.Net = res.Net
		t.Engine = res.Engine
		t.Violations = res.Violations
	case Churn:
		res, err := workload.RunChurn(sc.churn(c))
		if err != nil {
			return fail(err)
		}
		t.CCTMillis = res.End.Seconds() * 1e3
		t.RetransRatio = retransRatio(res.Sender)
		t.GoodputGbps = res.GoodputGbps
		t.TableBytesPeak = res.MaxTableBytes
		t.TableBudgetBytes = res.TableBudgetBytes
		t.Sender = res.Sender
		t.Middleware = res.Middleware
		t.Net = res.Net
		t.Engine = res.Engine
		t.Violations = res.Violations
	case Spray:
		res, err := workload.RunSpray(sc.spray(c))
		if err != nil {
			return fail(err)
		}
		t.CCTMillis = res.CCT.Seconds() * 1e3
		t.Sender = senderAgg(res.Sender)
		t.Net = res.Net
		// Only the partition-invariant engine counters go into the artifact:
		// the allocator fields (allocs, reuses, heap depth) depend on how the
		// event set is cut across shards, and Trial bytes must not vary with
		// the Shards execution knob.
		t.Engine = sim.Metrics{
			EventsExecuted:  res.Engine.EventsExecuted,
			EventsCancelled: res.Engine.EventsCancelled,
		}
	default:
		t.Err = fmt.Sprintf("exp: unknown workload %q", sc.Workload)
	}
	return t
}

// retransRatio is retransmitted/total data packets (0 when nothing was sent).
func retransRatio(st rnic.SenderStats) float64 {
	if st.DataPackets == 0 {
		return 0
	}
	return float64(st.Retransmits) / float64(st.DataPackets)
}

// senderAgg widens the incast/spray sender aggregate to the trial's block.
func senderAgg(a workload.SenderAgg) rnic.SenderStats {
	return rnic.SenderStats{Retransmits: a.Retransmits, Timeouts: a.Timeouts, NacksRx: a.NacksRx}
}
