package core_test

// Block-structured eigensolves: Graph.HessianBlocks must never split a
// coupled pair of variables, ExtremeEigsAt must assemble each block exactly
// as Graph.Hessian computes it, and the extreme eigenpairs it returns must
// agree with a dense solve of the whole Hessian.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/nn"
	"automon/internal/testenv"
)

// blockCase is a zoo function with the box its test points are drawn from
// and, where pinned, its block count and the width of every block.
type blockCase struct {
	f      *core.Function
	lo, hi float64
	blocks int // 0: not pinned
	width  int
}

func network(t testing.TB, name string, sizes []int, acts []nn.Activation) *core.Function {
	t.Helper()
	net, err := nn.New(rand.New(rand.NewSource(5)), sizes, acts)
	if err != nil {
		t.Fatal(err)
	}
	return funcs.Network(name, net)
}

// mlp has MLP-d's shape (three tanh hidden layers of 10); the block structure
// does not depend on training.
func mlp(t testing.TB, d int) *core.Function {
	return network(t, fmt.Sprintf("mlp-%d", d), []int{d, 10, 10, 10, 1},
		[]nn.Activation{nn.Tanh, nn.Tanh, nn.Tanh, nn.Identity})
}

func blockZoo(t *testing.T) []blockCase {
	q := linalg.NewMat(3, 3)
	copy(q.Data, []float64{1, 0.5, -0.25, 0, -1, 0.75, 0.25, 0, 2})
	dnn := network(t, "dnn", []int{41, 16, 8, 1}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Sigmoid})
	return []blockCase{
		{f: funcs.KLD(50, 1.0/1600), lo: 0.01, hi: 0.99, blocks: 50, width: 2},
		{f: funcs.KLD(3, 0.05), lo: 0.01, hi: 0.99, blocks: 3, width: 2},
		{f: funcs.Entropy(7, 0.05), lo: 0.01, hi: 0.99, blocks: 7, width: 1},
		{f: funcs.Rosenbrock(), lo: -2, hi: 2, blocks: 1, width: 2},
		{f: mlp(t, 6), lo: -2.5, hi: 2.5, blocks: 1, width: 6},
		{f: dnn, lo: 0, hi: 1, blocks: 1, width: 41},
		{f: funcs.CosineSimilarity(3), lo: 0.3, hi: 2, blocks: 1, width: 6},
		{f: funcs.Logistic([]float64{1, -0.5, 0.25}, -0.1), lo: -2, hi: 2, blocks: 1, width: 3},
		{f: funcs.Sine(), lo: 0, hi: math.Pi, blocks: 1, width: 1},
		{f: funcs.InnerProduct(4), lo: -2, hi: 2, blocks: 4, width: 2},
		{f: funcs.QuadraticForm(q), lo: -2, hi: 2},
		{f: funcs.RandomQuadratic(5, 1), lo: -2, hi: 2, blocks: 1, width: 5},
		{f: funcs.Saddle(), lo: -2, hi: 2, blocks: 2, width: 1},
		{f: funcs.Variance(), lo: -2, hi: 2, blocks: 2, width: 1},
		{f: funcs.AMSF2(2, 3), lo: -1, hi: 1, blocks: 6, width: 1},
		{f: funcs.SqNorm(4), lo: -2, hi: 2, blocks: 4, width: 1},
	}
}

func randomPoint(rng *rand.Rand, d int, lo, hi float64) []float64 {
	x := make([]float64, d)
	for i := range x {
		x[i] = lo + rng.Float64()*(hi-lo)
	}
	return x
}

// TestHessianBlocksSound: the blocks partition the variables in order, every
// off-block entry of Graph.Hessian is exactly 0, and every in-block entry is
// bit-equal to the block ExtremeEigsAt assembles.
func TestHessianBlocksSound(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, c := range blockZoo(t) {
		f := c.f
		d := f.Dim()
		blocks := f.Graph.HessianBlocks()
		blockOf := make([]int, d)
		for i := range blockOf {
			blockOf[i] = -1
		}
		for bi, blk := range blocks {
			if len(blk) == 0 || bi > 0 && blk[0] < blocks[bi-1][0] {
				t.Fatalf("%s: blocks empty or not ordered by first variable: %v", f.Name, blocks)
			}
			for i, v := range blk {
				if v < 0 || v >= d || blockOf[v] >= 0 || i > 0 && v < blk[i-1] {
					t.Fatalf("%s: blocks %v are not an ascending partition of 0..%d", f.Name, blocks, d-1)
				}
				blockOf[v] = bi
			}
		}
		for v, bi := range blockOf {
			if bi < 0 {
				t.Fatalf("%s: variable %d is in no block: %v", f.Name, v, blocks)
			}
		}
		if c.blocks > 0 {
			if len(blocks) != c.blocks {
				t.Fatalf("%s: %d blocks, want %d", f.Name, len(blocks), c.blocks)
			}
			for _, blk := range blocks {
				if len(blk) != c.width {
					t.Fatalf("%s: block %v, want width %d", f.Name, blk, c.width)
				}
			}
		}

		h := linalg.NewMat(d, d)
		for trial := 0; trial < 5; trial++ {
			x := randomPoint(rng, d, c.lo, c.hi)
			f.Hessian(x, h)
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					if blockOf[i] != blockOf[j] && h.At(i, j) != 0 {
						t.Fatalf("%s: off-block H[%d,%d] = %v at %v", f.Name, i, j, h.At(i, j), x)
					}
				}
			}
			for bi, m := range f.BlockHessian(x) {
				blk := blocks[bi]
				for i, vi := range blk {
					for j, vj := range blk {
						if math.Float64bits(m.At(i, j)) != math.Float64bits(h.At(vi, vj)) {
							t.Fatalf("%s: block %d entry (%d,%d) = %v, Graph.Hessian has %v",
								f.Name, bi, i, j, m.At(i, j), h.At(vi, vj))
						}
					}
				}
			}
		}
	}
}

// TestExtremeEigsAtBlocks holds the block solve to a dense EigenSym of the
// whole Hessian: eigenvalues within 1e-12·‖H‖, eigenvectors of unit norm
// with small residuals, and one-block functions bit-identical to the dense
// solve.
func TestExtremeEigsAtBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, c := range blockZoo(t) {
		f := c.f
		d := f.Dim()
		oneBlock := len(f.Graph.HessianBlocks()) == 1
		h := linalg.NewMat(d, d)
		hv := make([]float64, d)
		for trial := 0; trial < 5; trial++ {
			x := randomPoint(rng, d, c.lo, c.hi)
			lamMin, lamMax, vMin, vMax, err := f.ExtremeEigsAt(x)
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			f.Hessian(x, h)
			values, vecs, err := linalg.EigenSym(h, true)
			if err != nil {
				t.Fatal(err)
			}
			norm := math.Max(math.Abs(values[0]), math.Abs(values[d-1]))
			if math.Abs(lamMin-values[0]) > 1e-12*norm || math.Abs(lamMax-values[d-1]) > 1e-12*norm {
				t.Fatalf("%s: blocks give [%v, %v], dense [%v, %v]", f.Name, lamMin, lamMax, values[0], values[d-1])
			}
			for _, p := range []struct {
				lam float64
				v   []float64
			}{{lamMin, vMin}, {lamMax, vMax}} {
				if n := linalg.Norm2(p.v); math.Abs(n-1) > 1e-12 {
					t.Fatalf("%s: eigenvector norm %v", f.Name, n)
				}
				h.MulVec(hv, p.v)
				var res float64
				for i := range hv {
					res = math.Max(res, math.Abs(hv[i]-p.lam*p.v[i]))
				}
				if res > 1e-10*(1+norm) {
					t.Fatalf("%s: residual ‖Hv − λv‖∞ = %v for λ = %v", f.Name, res, p.lam)
				}
			}
			if !oneBlock {
				continue
			}
			same := math.Float64bits(lamMin) == math.Float64bits(values[0]) &&
				math.Float64bits(lamMax) == math.Float64bits(values[d-1])
			for i := 0; i < d; i++ {
				same = same && math.Float64bits(vMin[i]) == math.Float64bits(vecs.At(i, 0)) &&
					math.Float64bits(vMax[i]) == math.Float64bits(vecs.At(i, d-1))
			}
			if !same {
				t.Fatalf("%s: one-block solve is not bit-identical to the dense solve", f.Name)
			}
		}
	}
}

// TestExtremeEigsAtRejectsNaN: a NaN Hessian entry fails the call whichever
// block it sits in, so no NaN can be dropped by a comparison.
func TestExtremeEigsAtRejectsNaN(t *testing.T) {
	progs := map[string]autodiff.Program{
		"first block": func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			return b.Add(b.Sqrt(x[0]), b.Square(x[1]))
		},
		"last block": func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			return b.Add(b.Square(x[0]), b.Sqrt(x[1]))
		},
		"one block": func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			return b.Mul(b.Sqrt(x[0]), x[1])
		},
	}
	for name, prog := range progs {
		f := core.NewFunction(name, 2, prog)
		if _, _, _, _, err := f.ExtremeEigsAt([]float64{-1, -1}); err == nil {
			t.Errorf("%s: NaN Hessian accepted", name)
		}
		if _, _, _, _, err := f.ExtremeEigsAt([]float64{1, 1}); err != nil {
			t.Errorf("%s: finite Hessian rejected: %v", name, err)
		}
	}
}

// TestExtremeEigsAtAllocs: with pooled scratch, a KLD d = 100 eigensolve
// allocates only the two eigenvectors it returns.
func TestExtremeEigsAtAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	f := funcs.KLD(50, 1.0/1600)
	x := randomPoint(rand.New(rand.NewSource(3)), f.Dim(), 0.01, 0.99)
	if _, _, _, _, err := f.ExtremeEigsAt(x); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, _, err := f.ExtremeEigsAt(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("ExtremeEigsAt allocates %v times per call, want ≤ 2", allocs)
	}
}

// BenchmarkExtremeEigsAt times the eigensolve ADCD-X's search runs at every
// probe: KLD d = 100 (50 blocks of 2) and a one-block MLP-40.
func BenchmarkExtremeEigsAt(b *testing.B) {
	for _, c := range []struct {
		name   string
		f      *core.Function
		lo, hi float64
	}{
		{"kld-100", funcs.KLD(50, 1.0/1600), 0.01, 0.99},
		{"mlp-40", mlp(b, 40), -2.5, 2.5},
	} {
		b.Run(c.name, func(b *testing.B) {
			x := randomPoint(rand.New(rand.NewSource(1)), c.f.Dim(), c.lo, c.hi)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, _, err := c.f.ExtremeEigsAt(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
