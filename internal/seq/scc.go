package seq

import (
	"slices"

	"ligra/internal/graph"
)

// SCC computes strongly connected components sequentially with Tarjan's
// algorithm (iterative, so deep graphs cannot overflow the stack),
// labeling every vertex with the minimum vertex ID of its component.
func SCC(g graph.View) []uint32 {
	n := g.NumVertices()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]uint32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = ^uint32(0)
	}
	var stack []uint32 // Tarjan's component stack
	var next int32

	// Iterative DFS: frames carry the vertex and the out-neighbor cursor.
	type frame struct {
		v        uint32
		children []uint32
		cursor   int
	}
	var buf graph.Row
	outs := func(v uint32) []uint32 {
		ts, _ := g.OutRow(v, &buf)
		return slices.Clone(ts) // a frame holds its row while others are read
	}

	for root := uint32(0); int(root) < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: root, children: outs(root)}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.cursor < len(f.children) {
				d := f.children[f.cursor]
				f.cursor++
				if index[d] == unvisited {
					index[d] = next
					low[d] = next
					next++
					stack = append(stack, d)
					onStack[d] = true
					frames = append(frames, frame{v: d, children: outs(d)})
				} else if onStack[d] && index[d] < low[f.v] {
					low[f.v] = index[d]
				}
				continue
			}
			// All children explored: close the frame.
			v := f.v
			if low[v] == index[v] {
				// v is an SCC root: pop its component, label with min ID.
				minID := v
				popAt := len(stack)
				for {
					popAt--
					w := stack[popAt]
					if w < minID {
						minID = w
					}
					if w == v {
						break
					}
				}
				for i := popAt; i < len(stack); i++ {
					w := stack[i]
					onStack[w] = false
					comp[w] = minID
				}
				stack = stack[:popAt]
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return comp
}
