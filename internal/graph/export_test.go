package graph

// EdgeListBuilt reports whether g holds its sorted edge list, i.e. whether
// anything has called g.Edges.
func EdgeListBuilt(g *G) bool { return g.edges != nil }

// KeepIf returns Subgraph's keep mask for the edges of g that pred accepts,
// calling pred once per edge in Edges() order.
func KeepIf(g *G, pred func(Edge) bool) []bool {
	keep := make([]bool, g.M())
	for k, e := range g.Edges() {
		keep[k] = pred(e)
	}
	return keep
}
