// Package exp is the unified experiment harness: a declarative Scenario
// describes one trial (topology family, transport arm, LB mode, workload,
// faults, duration, seed), Run executes it on a private sim.Engine, and
// Runner executes a grid of scenarios across a worker pool. Every trial owns
// its own engine, packet pool and RNG, so trials are embarrassingly parallel
// and bit-identical for a given seed regardless of worker count.
//
// Results aggregate through internal/stats and serialize to BENCH_<name>.json
// artifacts (see report.go). Scenario and Trial are fixed-field structs — no
// maps — so the serialized form is byte-identical across runs and across
// parallelism levels, which the determinism regression test relies on.
package exp

import (
	"fmt"

	"themis/internal/chaos"
	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/workload"
)

// Workload names the experiment family a scenario runs. Every workload builds
// its cluster from the same lowered ClusterConfig (Scenario.cluster) and
// honours every Scenario field except its own pins, listed below, and the
// shape fields of other workloads (Pattern, Groups, Senders, Flows, ...).
type Workload string

const (
	// Motivation is the §2.2 Fig. 1 study: two 4-node ring groups spraying
	// over a fixed 4×4×2 leaf-spine at 100 Gbps. Pins: Leaves, Spines,
	// HostsPerLeaf, FatTreeK and Bandwidth.
	Motivation Workload = "motivation"
	// Collective is the §5 Fig. 5 evaluation: synchronized collective groups
	// spanning all racks of a leaf-spine (a FatTreeK scenario fails).
	Collective Workload = "collective"
	// Incast is the many-to-one stress test (Senders flows into host 0).
	// Pins: Leaves, Spines, HostsPerLeaf and FatTreeK (one host per rack).
	Incast Workload = "incast"
	// Chaos is a fault-injection soak run: the fault schedule is generated
	// from the seed (see internal/chaos), and invariants are checked. Pins
	// the harness hardening — LossyControl, RTO, RTOBackoff, RTOMax, Themis
	// and DropEveryNData (see chaos.Options) — and LB unless LBArmed.
	Chaos Workload = "chaos"
	// Churn is the flow-lifecycle stress: a stream of short-lived cross-rack
	// QPs (QPs total, Concurrency at a time) against a bounded flow table,
	// with lifecycle invariants checked (see workload.RunChurn).
	Churn Workload = "churn"
	// Convergence is the routing-focused soak: the fault schedule comes from
	// chaos.GenerateConvergence (flap storms, pod-uplink loss, maintenance
	// drains) and the cluster runs the distributed per-switch control plane
	// with ConvergenceDelay per hop, so forwarding during the windows uses
	// honestly stale FIBs. Invariants (including FIB convergence and zero
	// steady-state loop drops) are checked. Pins what Chaos pins, except
	// that the LB arm is always armed.
	Convergence Workload = "convergence"
	// Spray is the space-parallel fat-tree permutation (workload.RunSpray):
	// the only workload whose trial genuinely runs on multiple shards. Pins
	// Leaves, Spines and HostsPerLeaf (fat-tree only); settings the sharded
	// network cannot honour fail the trial.
	Spray Workload = "spray"
)

// ThemisKnobs is the serializable subset of core.Config — the middleware
// ablation switches a scenario can flip. Runtime-only fields (tracer, clock,
// pool) are wired by the harness.
type ThemisKnobs struct {
	QueueFactor         float64 `json:"queue_factor,omitempty"`
	PathSubset          int     `json:"path_subset,omitempty"`
	DisableBlocking     bool    `json:"disable_blocking,omitempty"`
	DisableCompensation bool    `json:"disable_compensation,omitempty"`
	FallbackOnFailure   bool    `json:"fallback_on_failure,omitempty"`
	Relearn             bool    `json:"relearn,omitempty"`
	// TableBudgetBytes bounds each instance's flow table to the §4 SRAM
	// budget (0 = unbounded); IdleTimeout enables idle-entry eviction.
	TableBudgetBytes int          `json:"table_budget_bytes,omitempty"`
	IdleTimeout      sim.Duration `json:"idle_timeout,omitempty"`
}

func (k ThemisKnobs) coreConfig() core.Config {
	return core.Config{
		QueueFactor:         k.QueueFactor,
		PathSubset:          k.PathSubset,
		DisableBlocking:     k.DisableBlocking,
		DisableCompensation: k.DisableCompensation,
		FallbackOnFailure:   k.FallbackOnFailure,
		Relearn:             k.Relearn,
		TableBudgetBytes:    k.TableBudgetBytes,
		IdleTimeout:         k.IdleTimeout,
	}
}

// Scenario declaratively describes one trial. The zero value of every field
// means "workload default" (the same defaults the workload runners apply), so
// a scenario only states what it varies. Durations serialize as nanoseconds.
type Scenario struct {
	// Name uniquely labels the scenario within a grid; Label() derives one
	// when empty.
	Name     string   `json:"name,omitempty"`
	Workload Workload `json:"workload"`
	Seed     int64    `json:"seed"`

	// Shards is an execution knob, not an experiment arm: it selects how many
	// space-parallel engine shards drive the trial (0 = classic single
	// engine). Results are byte-identical for every value — the shard
	// determinism regression enforces it — so like Runner.Parallel it is
	// excluded from the serialized scenario and the BENCH artifacts.
	Shards int `json:"-"`

	// Experiment arms.
	LB workload.LBMode `json:"lb,omitempty"`
	// LBArmed marks LB as an explicit chaos-workload arm: chaos scenarios
	// historically always ran the harness default (Themis), so the arm must
	// be opt-in to keep their serialized form and results unchanged.
	// Convergence scenarios always arm LB; other workloads ignore this.
	LBArmed bool `json:"lb_armed,omitempty"`
	// RepsCache (LB == REPS) and PathBuckets (LB == CongestionAware) are the
	// spraying-arm knobs; zero takes the workload defaults.
	RepsCache   int `json:"reps_cache,omitempty"`
	PathBuckets int `json:"path_buckets,omitempty"`

	Transport rnic.Transport     `json:"transport,omitempty"`
	Pattern   collective.Pattern `json:"pattern,omitempty"` // collective only
	TI        sim.Duration       `json:"ti,omitempty"`      // DCQCN sweep knobs
	TD        sim.Duration       `json:"td,omitempty"`

	// Topology family: leaf-spine unless FatTreeK > 0 (see the Workload
	// constants for the workloads that pin their own).
	Leaves       int          `json:"leaves,omitempty"`
	Spines       int          `json:"spines,omitempty"`
	HostsPerLeaf int          `json:"hosts_per_leaf,omitempty"`
	FatTreeK     int          `json:"fat_tree_k,omitempty"`
	Bandwidth    int64        `json:"bandwidth,omitempty"`
	LinkDelay    sim.Duration `json:"link_delay,omitempty"`

	// Workload shape.
	MessageBytes int64 `json:"message_bytes,omitempty"`
	Groups       int   `json:"groups,omitempty"`      // collective
	Senders      int   `json:"senders,omitempty"`     // incast fan-in
	Flows        int   `json:"flows,omitempty"`       // chaos ring flows
	QPs          int   `json:"qps,omitempty"`         // churn: total flows opened
	Concurrency  int   `json:"concurrency,omitempty"` // churn: flows open at once
	Faults       bool  `json:"faults,omitempty"`      // churn: seeded reboots + link flap

	// Mechanics.
	BurstBytes   int          `json:"burst_bytes,omitempty"`
	BufferBytes  int          `json:"buffer_bytes,omitempty"`
	Horizon      sim.Duration `json:"horizon,omitempty"`
	DisablePFC   bool         `json:"disable_pfc,omitempty"`
	LossyControl bool         `json:"lossy_control,omitempty"`
	RTO          sim.Duration `json:"rto,omitempty"`
	RTOBackoff   float64      `json:"rto_backoff,omitempty"`
	RTOMax       sim.Duration `json:"rto_max,omitempty"`

	// Routing plane. DistributedRouting replaces the instant global oracle
	// with the per-switch BGP-style control plane (see internal/route);
	// ConvergenceDelay is its per-hop message delay. Drain appends a
	// maintenance drain to a convergence scenario's fault schedule.
	DistributedRouting bool         `json:"distributed_routing,omitempty"`
	ConvergenceDelay   sim.Duration `json:"convergence_delay,omitempty"`
	Drain              bool         `json:"drain,omitempty"`

	// Middleware ablation knobs.
	Themis ThemisKnobs `json:"themis,omitempty"`

	// Declarative faults. Chaos and convergence scenarios generate their own
	// schedule from the seed and ignore these; LinkFail is collective only.
	DropEveryNData int                 `json:"drop_every_n_data,omitempty"`
	LinkFail       *workload.LinkFault `json:"link_fail,omitempty"`
}

// Label returns Name, or a derived "workload/arm/seed" identifier.
func (s Scenario) Label() string {
	if s.Name != "" {
		return s.Name
	}
	switch s.Workload {
	case Motivation:
		return fmt.Sprintf("motivation/%v/seed%d", s.Transport, s.Seed)
	case Collective:
		return fmt.Sprintf("collective/%v/%v/ti%v-td%v/seed%d", s.Pattern, s.LB, s.TI, s.TD, s.Seed)
	case Incast:
		return fmt.Sprintf("incast/%v/seed%d", s.LB, s.Seed)
	case Chaos:
		return fmt.Sprintf("chaos/seed%d", s.Seed)
	case Churn:
		return fmt.Sprintf("churn/%v/seed%d", s.LB, s.Seed)
	case Convergence:
		return fmt.Sprintf("convergence/%v/d%dus/seed%d",
			s.LB, int64(s.ConvergenceDelay/sim.Microsecond), s.Seed)
	case Spray:
		return fmt.Sprintf("spray/%v/seed%d", s.LB, s.Seed)
	default:
		return fmt.Sprintf("%s/seed%d", s.Workload, s.Seed)
	}
}

// cluster lowers the scenario to the cluster description every workload
// builds from. It is the only place a Scenario field is copied into a
// ClusterConfig; each workload then applies its own defaults and pins (see
// the Workload constants).
func (s Scenario) cluster() workload.ClusterConfig {
	return workload.ClusterConfig{
		Seed:               s.Seed,
		Shards:             s.Shards,
		Leaves:             s.Leaves,
		Spines:             s.Spines,
		HostsPerLeaf:       s.HostsPerLeaf,
		FatTreeK:           s.FatTreeK,
		Bandwidth:          s.Bandwidth,
		LinkDelay:          s.LinkDelay,
		BufferBytes:        s.BufferBytes,
		DisablePFC:         s.DisablePFC,
		LB:                 s.LB,
		RepsCache:          s.RepsCache,
		PathBuckets:        s.PathBuckets,
		Transport:          s.Transport,
		BurstBytes:         s.BurstBytes,
		RTO:                s.RTO,
		RTOBackoff:         s.RTOBackoff,
		RTOMax:             s.RTOMax,
		TI:                 s.TI,
		TD:                 s.TD,
		LossyControl:       s.LossyControl,
		DistributedRouting: s.DistributedRouting,
		ConvergenceDelay:   s.ConvergenceDelay,
		DropEveryNData:     s.DropEveryNData,
		ThemisCfg:          s.Themis.coreConfig(),
	}
}

// The workload lowerings wrap the scenario's cluster with the workload's own
// shape fields.

func (s Scenario) motivation(c workload.ClusterConfig) workload.MotivationConfig {
	return workload.MotivationConfig{ClusterConfig: c, MessageBytes: s.MessageBytes, Horizon: s.Horizon}
}

func (s Scenario) collective(c workload.ClusterConfig) workload.CollectiveConfig {
	return workload.CollectiveConfig{ClusterConfig: c, Pattern: s.Pattern, MessageBytes: s.MessageBytes,
		Groups: s.Groups, Horizon: s.Horizon, LinkFail: s.LinkFail}
}

func (s Scenario) incast(c workload.ClusterConfig) workload.IncastConfig {
	return workload.IncastConfig{ClusterConfig: c, Senders: s.Senders, MessageBytes: s.MessageBytes, Horizon: s.Horizon}
}

func (s Scenario) churn(c workload.ClusterConfig) workload.ChurnConfig {
	return workload.ChurnConfig{ClusterConfig: c, QPs: s.QPs, Concurrency: s.Concurrency,
		MessageBytes: s.MessageBytes, Faults: s.Faults, Horizon: s.Horizon}
}

func (s Scenario) spray(c workload.ClusterConfig) workload.SprayConfig {
	return workload.SprayConfig{ClusterConfig: c, MessageBytes: s.MessageBytes, Horizon: s.Horizon}
}

// chaosOptions lowers a chaos or convergence scenario to the chaos harness.
// The LB arm is explicit (LBSet) for every convergence scenario, so an ECMP
// arm — the LBMode zero value — is not silently replaced with the harness
// default; chaos scenarios arm it only with LBArmed.
func (s Scenario) chaosOptions(c workload.ClusterConfig) chaos.Options {
	return chaos.Options{ClusterConfig: c, LBSet: s.LBArmed || s.Workload == Convergence,
		Flows: s.Flows, MessageBytes: s.MessageBytes, Horizon: s.Horizon}
}

// faults generates the scenario's fault schedule on the probe topology: the
// chaos generator, or the routing-focused one plus the optional drain.
func (s Scenario) faults(t *topo.Topology) chaos.Scenario {
	if s.Workload == Chaos {
		return chaos.Generate(s.Seed, t)
	}
	csc := chaos.GenerateConvergence(s.Seed, t)
	if s.Drain {
		csc.Faults = append(csc.Faults, chaos.DrainFault(t))
	}
	return csc
}
