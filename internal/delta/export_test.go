package delta

import "ligra/internal/graph"

// MaskedView exposes maskedView to the external tests.
func MaskedView(g graph.View, in []bool) graph.View { return maskedView{View: g, in: in} }
