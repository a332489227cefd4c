package graph

// EdgeListBuilt reports whether g holds its sorted edge list, i.e. whether
// anything has called g.Edges.
func EdgeListBuilt(g *G) bool { return g.edges != nil }
