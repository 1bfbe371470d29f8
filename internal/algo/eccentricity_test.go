package algo

import (
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/seq"
)

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

func TestRadiiMultiMatchesOracle(t *testing.T) {
	g := testGraphs(t)["er-sparse"]
	res := must(RadiiMultiCtx(nil, g, 150, 4, core.Options{}))
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

func TestRadiiMultiSmallK(t *testing.T) {
	g := testGraphs(t)["path"]
	res := must(RadiiMultiCtx(nil, g, 8, 1, core.Options{}))
	want := seq.Eccentricities(g, res.Sources)
	for v := range want {
		if res.Radii[v] != want[v] {
			t.Fatalf("radii[%d] = %d, want %d", v, res.Radii[v], want[v])
		}
	}
}
