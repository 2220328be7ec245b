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

// BuildZoneX derives an ADCD-X safe zone around x0 with thresholds L, U and
// neighborhood box [bLo, bHi] (already intersected with the domain): one
// DecomposeX and its BuildZoneXFrom, as a full sync runs them.
func BuildZoneX(f *Function, x0 []float64, l, u float64, bLo, bHi []float64, opts DecompOptions) (*SafeZone, error) {
	dec, err := DecomposeX(f, x0, bLo, bHi, opts)
	if err != nil {
		return nil, err
	}
	return BuildZoneXFrom(f, x0, l, u, bLo, bHi, dec), nil
}
