package algo

import (
	"testing"

	"ligra/internal/core"
)

func TestLDDCoversAllVertices(t *testing.T) {
	for _, gname := range []string{"rmat", "grid3d", "path", "er-sparse"} {
		g := testGraphs(t)[gname]
		res := must(LDD(bg, g, 0.2, 11, core.Options{}))
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			if res.Cluster[v] == core.None {
				t.Fatalf("%s: vertex %d unclustered", gname, v)
			}
		}
		// Cluster IDs are member vertices, and centers belong to their own
		// cluster.
		for v := 0; v < n; v++ {
			c := res.Cluster[v]
			if res.Cluster[c] != c {
				t.Fatalf("%s: cluster ID %d is not a center", gname, c)
			}
		}
		if res.NumClusters < 1 || res.NumClusters > n {
			t.Fatalf("%s: %d clusters", gname, res.NumClusters)
		}
	}
}

func TestLDDClustersAreConnected(t *testing.T) {
	// Every cluster must be internally connected: a BFS within the
	// cluster from its center reaches all members.
	g := testGraphs(t)["rmat"]
	res := must(LDD(bg, g, 0.3, 5, core.Options{}))
	n := g.NumVertices()
	members := map[uint32][]uint32{}
	for v := 0; v < n; v++ {
		members[res.Cluster[v]] = append(members[res.Cluster[v]], uint32(v))
	}
	for center, ms := range members {
		reached := map[uint32]bool{center: true}
		queue := []uint32{center}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			g.OutNeighbors(v, func(d uint32, _ int32) bool {
				if res.Cluster[d] == center && !reached[d] {
					reached[d] = true
					queue = append(queue, d)
				}
				return true
			})
		}
		for _, m := range ms {
			if !reached[m] {
				t.Fatalf("cluster %d: member %d unreachable within cluster", center, m)
			}
		}
	}
}

func TestLDDBetaControlsGranularity(t *testing.T) {
	// Larger beta (earlier starts everywhere) yields more, smaller
	// clusters on average.
	g := testGraphs(t)["grid3d"]
	small := must(LDD(bg, g, 0.05, 3, core.Options{}))
	large := must(LDD(bg, g, 2.0, 3, core.Options{}))
	if large.NumClusters <= small.NumClusters {
		t.Errorf("beta=2.0 gave %d clusters, beta=0.05 gave %d — expected more clusters at larger beta",
			large.NumClusters, small.NumClusters)
	}
}
