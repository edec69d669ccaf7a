package themis_test

import (
	"strings"
	"testing"

	"themis"
)

func TestFacadeMotivation(t *testing.T) {
	res, err := themis.RunMotivation(themis.MotivationConfig{ClusterConfig: themis.ClusterConfig{Seed: 1}, MessageBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgThroughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestFacadeCollective(t *testing.T) {
	res, err := themis.RunCollective(themis.CollectiveConfig{
		ClusterConfig: themis.ClusterConfig{
			Seed: 1, Leaves: 4, Spines: 4, HostsPerLeaf: 4, Bandwidth: 100e9,
			LB: themis.Themis,
		},
		Pattern: themis.Allreduce, MessageBytes: 1 << 20, Groups: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TailCCT <= 0 {
		t.Fatal("no tail CCT")
	}
}

func TestFacadeMemoryModel(t *testing.T) {
	m := themis.MemoryModel()
	if m.TotalBytes() != 192512 {
		t.Fatalf("total = %d", m.TotalBytes())
	}
	if !strings.Contains(m.Report(), "M_total") {
		t.Fatal("report malformed")
	}
}

func TestFacadeSettings(t *testing.T) {
	if len(themis.PaperDCQCNSettings()) != 5 {
		t.Fatal("settings")
	}
	arms := themis.Fig5Arms()
	if len(arms) != 3 || arms[0] != themis.ECMP || arms[2] != themis.Themis {
		t.Fatalf("arms = %v", arms)
	}
}

func TestFacadeBuildCluster(t *testing.T) {
	cl, err := themis.BuildCluster(themis.ClusterConfig{
		Seed: 1, Leaves: 2, Spines: 2, HostsPerLeaf: 1, Bandwidth: 100e9,
		LB: themis.Themis,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	cl.Conn(0, 1).Send(100_000, func() { done = true })
	cl.Run(themis.Second)
	if !done {
		t.Fatal("transfer incomplete")
	}
}
