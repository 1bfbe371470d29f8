package algo

import (
	"cmp"
	"slices"
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/seq"
)

// TestTwoPassEccentricityMatchesSequential replays both passes with the
// sequential oracle: pass 1 from the same sampled sources, pass 2 from the
// same periphery (the k largest pass-1 estimates, ties by ID), and the
// per-vertex maximum of the two.
func TestTwoPassEccentricityMatchesSequential(t *testing.T) {
	for gname, g := range testGraphs(t) {
		n := g.NumVertices()
		for _, k := range []int{1, 16, 64} {
			res := must(TwoPassEccentricityCtx(nil, g, k, 3, core.Options{}))
			k = min(k, n)
			pass1 := seq.Eccentricities(g, sampleVertices(n, k, 3))
			var periphery []uint32
			for v, e := range pass1 {
				if e >= 0 {
					periphery = append(periphery, uint32(v))
				}
			}
			slices.SortStableFunc(periphery, func(a, b uint32) int { return cmp.Compare(pass1[b], pass1[a]) })
			pass2 := seq.Eccentricities(g, periphery[:min(k, len(periphery))])
			diam := int32(-1)
			for v := range pass1 {
				want := max(pass1[v], pass2[v])
				if res.Ecc[v] != want {
					t.Fatalf("%s k=%d: ecc[%d] = %d, oracle %d", gname, k, v, res.Ecc[v], want)
				}
				diam = max(diam, want)
			}
			if res.DiameterLowerBound != diam {
				t.Fatalf("%s k=%d: diameter bound %d, oracle %d", gname, k, res.DiameterLowerBound, diam)
			}
		}
	}
}

func TestTwoPassEccentricityBounds(t *testing.T) {
	for _, gname := range []string{"rmat", "grid3d", "path", "tree"} {
		g := testGraphs(t)[gname]
		res := must(TwoPassEccentricityCtx(nil, g, 16, 3, core.Options{}))
		onePass := must(RadiiCtx(nil, g, RadiiOptions{K: 16, Seed: 3}))
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			// The two-pass estimate dominates the one-pass estimate.
			if res.Ecc[v] < onePass.Radii[v] {
				t.Fatalf("%s: two-pass estimate %d below one-pass %d at %d",
					gname, res.Ecc[v], onePass.Radii[v], v)
			}
		}
		// Estimates never exceed the true eccentricity (they are BFS
		// distances, hence lower bounds). Verify exactly on connected
		// graphs.
		exact := make([]int32, n)
		maxTrue := int32(-1)
		for v := 0; v < n; v++ {
			lv := seq.BFSLevels(g, uint32(v))
			var m int32 = -1
			for _, l := range lv {
				if l > m {
					m = l
				}
			}
			exact[v] = m
			if m > maxTrue {
				maxTrue = m
			}
		}
		for v := 0; v < n; v++ {
			if res.Ecc[v] > exact[v] {
				t.Fatalf("%s: estimate %d exceeds true eccentricity %d at %d",
					gname, res.Ecc[v], exact[v], v)
			}
		}
		if res.DiameterLowerBound > maxTrue {
			t.Fatalf("%s: diameter bound %d exceeds true diameter %d",
				gname, res.DiameterLowerBound, maxTrue)
		}
	}
}

func TestTwoPassFindsPathDiameter(t *testing.T) {
	// On a path, pass 2 starts from (near-)endpoints, so the diameter
	// bound should be exact even with a small sample.
	g, err := gen.Path(300)
	if err != nil {
		t.Fatal(err)
	}
	res := must(TwoPassEccentricityCtx(nil, g, 8, 1, core.Options{}))
	if res.DiameterLowerBound != 299 {
		t.Errorf("path diameter bound %d, want 299", res.DiameterLowerBound)
	}
}

func TestTwoPassImprovesOnGrid(t *testing.T) {
	g := testGraphs(t)["grid3d"]
	one := must(RadiiCtx(nil, g, RadiiOptions{K: 4, Seed: 9}))
	two := must(TwoPassEccentricityCtx(nil, g, 4, 9, core.Options{}))
	var oneMax, twoMax int32
	for v := range one.Radii {
		if one.Radii[v] > oneMax {
			oneMax = one.Radii[v]
		}
		if two.Ecc[v] > twoMax {
			twoMax = two.Ecc[v]
		}
	}
	if twoMax < oneMax {
		t.Errorf("two-pass bound %d below one-pass %d", twoMax, oneMax)
	}
}

// TestRadiiWideMatchesOracle samples past one visit word: K = 150 runs
// three sweeps, whose per-vertex maximum is the estimate.
func TestRadiiWideMatchesOracle(t *testing.T) {
	g := testGraphs(t)["er-sparse"]
	res := must(RadiiCtx(nil, g, RadiiOptions{K: 150, Seed: 4}))
	if len(res.Sources) != 150 {
		t.Fatalf("%d sources, want 150", len(res.Sources))
	}
	want := seq.Eccentricities(g, res.Sources)
	for v := range want {
		if res.Radii[v] != want[v] {
			t.Fatalf("radii[%d] = %d, want %d", v, res.Radii[v], want[v])
		}
	}
}

func TestRadiiSmallKMatchesOracle(t *testing.T) {
	g := testGraphs(t)["path"]
	res := must(RadiiCtx(nil, g, RadiiOptions{K: 8, Seed: 1}))
	want := seq.Eccentricities(g, res.Sources)
	for v := range want {
		if res.Radii[v] != want[v] {
			t.Fatalf("radii[%d] = %d, want %d", v, res.Radii[v], want[v])
		}
	}
}
