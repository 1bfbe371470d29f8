// Eccentricity estimation workflow: the paper's radii application (§5.3)
// on graphs of very different shapes, showing how the shared-bit-vector
// multi-BFS compares to running the BFS separately, and how the estimate
// tightens as the sample grows.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ligra"
)

func main() {
	ctx := context.Background()
	inputs := []struct {
		name  string
		build func() (*ligra.Graph, error)
	}{
		{"rMat (low diameter)", func() (*ligra.Graph, error) {
			return ligra.RMAT(15, 16, ligra.PBBSRMAT, 3)
		}},
		{"3d-grid (high diameter)", func() (*ligra.Graph, error) {
			return ligra.Grid3D(24)
		}},
	}

	for _, in := range inputs {
		g, err := in.build()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: n=%d m=%d ==\n", in.name, g.NumVertices(), g.NumEdges())

		// Estimate with growing samples: larger K tends to tighten the
		// diameter lower bound and the coverage.
		for _, k := range []int{4, 16, 64} {
			start := time.Now()
			res, err := ligra.Radii(ctx, g, ligra.RadiiOptions{K: k, Seed: 99})
			if err != nil {
				log.Fatal(err)
			}
			maxR := int32(0)
			sum := int64(0)
			reached := 0
			for _, r := range res.Radii {
				if r > maxR {
					maxR = r
				}
				if r >= 0 {
					sum += int64(r)
					reached++
				}
			}
			fmt.Printf("  K=%2d: diameter >= %3d, mean ecc %.1f, coverage %d/%d, rounds %d, %v\n",
				k, maxR, float64(sum)/float64(reached), reached, g.NumVertices(),
				res.Rounds, time.Since(start).Round(time.Microsecond))
		}

		// Contrast with K separate BFS (what the bit-vector trick
		// amortizes): same answer, K times the traversals.
		res, err := ligra.Radii(ctx, g, ligra.RadiiOptions{K: 16, Seed: 99})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		sep := make([]int32, g.NumVertices())
		for i := range sep {
			sep[i] = -1
		}
		for _, s := range res.Sources {
			lv, err := ligra.BFSLevels(ctx, g, s, ligra.Options{})
			if err != nil {
				log.Fatal(err)
			}
			for v, l := range lv {
				if l > sep[v] {
					sep[v] = l
				}
			}
		}
		sepTime := time.Since(start)
		agree := true
		for v := range sep {
			if sep[v] != res.Radii[v] {
				agree = false
				break
			}
		}
		fmt.Printf("  16 separate BFS agree: %v (separate: %v)\n",
			agree, sepTime.Round(time.Microsecond))

		// The refinements beyond the paper: a periphery-seeded second
		// pass, and a sample past the 64-bit word (one sweep per 64).
		tp, err := ligra.TwoPassEccentricity(ctx, g, 64, 99, ligra.Options{})
		if err != nil {
			log.Fatal(err)
		}
		wide, err := ligra.Radii(ctx, g, ligra.RadiiOptions{K: 128, Seed: 99})
		if err != nil {
			log.Fatal(err)
		}
		wideMax := int32(0)
		for _, r := range wide.Radii {
			if r > wideMax {
				wideMax = r
			}
		}
		fmt.Printf("  two-pass (K=64): diameter >= %d;  two sweeps (K=128): diameter >= %d\n\n",
			tp.DiameterLowerBound, wideMax)
	}
}
