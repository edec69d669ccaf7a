// Motivation (Fig. 1): why packet spraying breaks commodity RNICs.
//
// Reproduces the §2.2 study at a reduced message size: two 4-node ring
// groups over a 100 Gbps leaf-spine, random packet spraying, NIC-SR
// transport. No packet is ever lost, yet the receivers NACK out-of-order
// arrivals, the senders retransmit spuriously and DCQCN keeps cutting the
// rate — and an "ideal" transport on the identical network shows what is
// being left on the table.
//
//	go run ./examples/motivation [-bytes N]
package main

import (
	"flag"
	"fmt"
	"log"

	"themis"
)

func main() {
	bytes := flag.Int64("bytes", 10<<20, "message size per flow (paper: 100 MB)")
	flag.Parse()

	fmt.Printf("Fig. 1 motivation study, %d MB per flow\n\n", *bytes>>20)
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "arm", "retransRatio", "avgRateGbps", "tputGbps", "cctMs")
	var nicsr, ideal *themis.MotivationResult
	for _, tr := range []themis.Transport{themis.SelectiveRepeat, themis.Ideal} {
		res, err := themis.RunMotivation(themis.MotivationConfig{
			ClusterConfig: themis.ClusterConfig{Seed: 1, Transport: tr},
			MessageBytes:  *bytes,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %12.4f %12.1f %12.2f %12.3f\n",
			tr, res.AvgRetransRatio, res.AvgRateGbps, res.AvgThroughput,
			res.CompletionTime.Seconds()*1e3)
		if tr == themis.SelectiveRepeat {
			nicsr = res
		} else {
			ideal = res
		}
	}

	fmt.Printf("\nNIC-SR achieves %.0f%% of the ideal transport's throughput (paper: 71%% = 68.09/95.43 Gbps).\n",
		nicsr.AvgThroughput/ideal.AvgThroughput*100)
	fmt.Printf("All %d retransmissions were spurious: the fabric dropped nothing.\n",
		nicsr.Sender.Retransmits)

	// A glimpse of the Fig. 1b series: the first few windows of the
	// observed flow's retransmission ratio.
	fmt.Printf("\nFig. 1b head (time_us ratio):\n")
	for i, s := range nicsr.RetransRatio.Samples {
		if i >= 8 {
			break
		}
		fmt.Printf("  %8.1f %.3f\n", s.T.Microseconds(), s.V)
	}
}
