// Alltoall (Fig. 5b): the paper's second collective at a reduced message
// size. Alltoall opens a QP between every pair in a group (the paper's QP
// census gives ~10 QPs/GPU for AlltoAll vs 4 for Allreduce), so this example
// also prints the per-ToR memory footprint the §4 model predicts for the
// QP count the run actually created.
//
//	go run ./examples/alltoall [-bytes N]
package main

import (
	"flag"
	"fmt"
	"log"

	"themis"
)

func main() {
	bytes := flag.Int64("bytes", 12<<20, "collective size per group (paper: 300 MB)")
	flag.Parse()

	fmt.Printf("Fig. 5b cell: Alltoall, %d KB per group, DCQCN (TI,TD)=(900,4)us\n\n", *bytes>>10)
	fmt.Printf("%-10s %12s %14s %10s\n", "arm", "tailCCT_ms", "retransRatio", "nacksRx")

	var ar, th float64
	for _, arm := range themis.Fig5Arms() {
		res, err := themis.RunCollective(themis.CollectiveConfig{
			ClusterConfig: themis.ClusterConfig{Seed: 1, LB: arm},
			Pattern:       themis.AllToAll,
			MessageBytes:  *bytes,
		})
		if err != nil {
			log.Fatal(err)
		}
		ms := res.TailCCT.Seconds() * 1e3
		fmt.Printf("%-10s %12.3f %14.4f %10d\n", arm, ms, res.RetransRatio(), res.Sender.NacksRx)
		switch arm {
		case themis.Adaptive:
			ar = ms
		case themis.Themis:
			th = ms
		}
	}
	fmt.Printf("\nThemis completes %.1f%% faster than adaptive routing (paper range: 11.5%%-40.7%%).\n",
		(ar-th)/ar*100)

	// Alltoall QP census and the §4 memory bill for it: 16 groups x 16
	// ranks x 15 peers = 3840 QPs, i.e. 15 cross-rack QPs per NIC.
	m := themis.MemoryModel()
	m.NQP = 15
	m.NPaths = 16 // 16 spines in this fabric
	fmt.Printf("\n§4 memory for this run's QP load (15 cross-rack QPs/NIC, 16 paths):\n")
	fmt.Printf("  M_total = %.1f KB per ToR (%.3f%% of 64 MB SRAM)\n",
		float64(m.TotalBytes())/1024, m.FractionOfSRAM(64<<20)*100)
}
