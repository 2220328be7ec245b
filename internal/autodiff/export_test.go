package autodiff

// HoldsHVP reports whether g has cached its Hessian-vector product program.
func HoldsHVP(g *Graph) bool { return g.hvp.Load() != nil }
