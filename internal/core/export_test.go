package core

import "automon/internal/linalg"

// BlockHessian returns the diagonal blocks of H(x) exactly as ExtremeEigsAt
// assembles them, one matrix per Graph.HessianBlocks entry.
func (f *Function) BlockHessian(x []float64) []*linalg.Mat {
	blocks := f.Graph.HessianBlocks()
	s := newBlockScratch(f.Dim(), blocks)
	s.assemble(f.Graph, blocks, x)
	out := make([]*linalg.Mat, len(blocks))
	off := 0
	for i, blk := range blocks {
		b := len(blk)
		out[i] = &linalg.Mat{Rows: b, Cols: b, Data: append([]float64(nil), s.mats[off:off+b*b]...)}
		off += b * b
	}
	return out
}
