// Energy budget: the tag is battery-free, so the reflection coefficient
// rho trades feedback signal strength against harvested power. This
// example runs real waveform transfers at several rho values and reports
// both sides of the trade: the tag's net energy per frame and the
// reader's feedback decode margin. The tag starts fully charged and its
// circuit draws more than it harvests, so the net energy is the harvest
// minus a fixed load: the smaller the drain, the more it harvested.
package main

import (
	"fmt"
	"log"

	fdbackscatter "repro"
)

func main() {
	payload := make([]byte, 192)
	const circuitW = 2e-6
	fmt.Println("rho sweep at 3 m, 20 dBm reader, 2 uW tag load, 6 frames per point")
	fmt.Printf("%-5s  %-16s  %-16s  %-9s\n",
		"rho", "net_uJ/frm", "feedback_margin", "delivered")
	for _, rho := range []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9} {
		link, err := fdbackscatter.NewLink(fdbackscatter.LinkConfig{
			DistanceM: 3,
			Rho:       rho,
			ChunkSize: 32,
			CircuitW:  circuitW,
			Seed:      uint64(rho * 1000),
		})
		if err != nil {
			log.Fatal(err)
		}
		var net, margin float64
		var chunks, delivered, frames int
		for f := 0; f < 6; f++ {
			res, err := link.TransferFrame(payload, fdbackscatter.TransferOptions{PadChips: -1})
			if err != nil {
				log.Fatal(err)
			}
			frames++
			net += res.HarvestedJ
			if res.DeliveredOK {
				delivered++
			}
			for _, c := range res.Chunks {
				if c.ReaderSawBit {
					margin += c.Margin
					chunks++
				}
			}
		}
		avgMargin := 0.0
		if chunks > 0 {
			avgMargin = margin / float64(chunks)
		}
		fmt.Printf("%-5.1f  %-16.4g  %-16.5f  %d/%d\n",
			rho, net/float64(frames)*1e6, avgMargin, delivered, frames)
	}
	fmt.Println("\nhigher rho: stronger feedback (bigger margin), less energy")
	fmt.Println("harvested (a larger net drain) — the operating point is a")
	fmt.Println("deployment choice.")
}
