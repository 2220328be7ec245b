package autodiff

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"automon/internal/linalg"
)

// positive returns r² + ½, an argument inside every op's domain.
func positive(b *Builder, r Ref) Ref { return b.Add(b.Square(r), b.Const(0.5)) }

// randomProgram builds a program over d variables from every Builder op.
// Each step applies one op to refs drawn from everything built so far, and
// the output is an affine combination of a random subset, so programs range
// from fully separable to fully coupled.
func randomProgram(rng *rand.Rand, d int) Program {
	steps := 4 + rng.Intn(16)
	return func(b *Builder, x []Ref) Ref {
		pool := append([]Ref{b.Const(0.75)}, x...)
		pick := func() Ref { return pool[rng.Intn(len(pool))] }
		some := func() []Ref {
			rs := make([]Ref, 1+rng.Intn(3))
			for i := range rs {
				rs[i] = pick()
			}
			return rs
		}
		for s := 0; s < steps; s++ {
			var r Ref
			switch rng.Intn(25) {
			case 0:
				r = b.Add(pick(), pick())
			case 1:
				r = b.Sub(pick(), pick())
			case 2:
				r = b.Mul(pick(), pick())
			case 3:
				r = b.Mul(b.Const(rng.NormFloat64()), pick())
			case 4:
				r = b.Div(pick(), positive(b, pick()))
			case 5:
				r = b.Div(pick(), b.Const(1+rng.Float64()))
			case 6:
				r = b.Neg(pick())
			case 7:
				r = b.Tanh(pick())
			case 8:
				r = b.Relu(pick())
			case 9:
				r = b.Step(pick())
			case 10:
				r = b.Sigmoid(pick())
			case 11:
				r = b.Exp(b.Tanh(pick()))
			case 12:
				r = b.Log(positive(b, pick()))
			case 13:
				r = b.Sin(pick())
			case 14:
				r = b.Cos(pick())
			case 15:
				r = b.Sqrt(positive(b, pick()))
			case 16:
				r = b.Square(pick())
			case 17:
				r = b.Powi(positive(b, pick()), rng.Intn(7)-3)
			case 18:
				r = b.Abs(pick())
			case 19:
				r = b.Sign(pick())
			case 20:
				r = b.Sum(some()...)
			case 21:
				xs := some()
				ys := make([]Ref, len(xs))
				for i := range ys {
					ys[i] = pick()
				}
				ws := make([]float64, len(xs))
				for i := range ws {
					ws[i] = rng.NormFloat64()
				}
				r = b.Add(b.Dot(xs, ys), b.Dot(xs, b.ConstVec(ws)))
			case 22:
				r = b.SqNorm(some())
			case 23:
				xs := some()
				w := [][]float64{make([]float64, len(xs))}
				for i := range w[0] {
					w[0][i] = rng.NormFloat64()
				}
				r = b.Affine(w, xs, []float64{rng.NormFloat64()})[0]
			default:
				r = b.Sum(b.Map(b.Tanh, some())...)
			}
			pool = append(pool, r)
		}
		var terms []Ref
		for _, r := range pool {
			if rng.Intn(2) == 0 {
				terms = append(terms, b.Mul(b.Const(rng.NormFloat64()), r))
			}
		}
		return b.Sum(terms...)
	}
}

type programSeed int64

func (programSeed) Generate(rng *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(programSeed(rng.Int63()))
}

// TestQuickHessianBlocksSound: on random programs over every Builder op,
// every Hessian entry between two blocks is exactly zero.
func TestQuickHessianBlocksSound(t *testing.T) {
	check := func(seed programSeed) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		d := 2 + rng.Intn(6)
		g := Compile(d, randomProgram(rng, d))
		blockOf := make([]int, d)
		for bi, blk := range g.HessianBlocks() {
			for _, v := range blk {
				blockOf[v] = bi
			}
		}
		h := linalg.NewMat(d, d)
		x := make([]float64, d)
		for trial := 0; trial < 3; trial++ {
			for i := range x {
				x[i] = 2 * rng.NormFloat64()
			}
			g.Hessian(x, h)
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					if v := h.At(i, j); blockOf[i] != blockOf[j] && v != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
						t.Logf("seed %d: H[%d,%d] = %v across blocks %v", seed, i, j, v, g.HessianBlocks())
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestHessianBlocksCouplingRule pins which ops join variables: affine ops
// never do, every other op joins all the variables it reads.
func TestHessianBlocksCouplingRule(t *testing.T) {
	cases := []struct {
		name string
		prog Program
		want [][]int
	}{
		{"affine", func(b *Builder, x []Ref) Ref {
			return b.Sub(b.Div(b.Add(x[0], x[1]), b.Const(3)), b.Neg(b.Mul(b.Const(2), x[2])))
		}, [][]int{{0}, {1}, {2}}},
		{"separable", func(b *Builder, x []Ref) Ref {
			return b.Add(b.Sin(x[2]), b.Add(b.Exp(x[0]), b.Square(x[1])))
		}, [][]int{{0}, {1}, {2}}},
		{"product", func(b *Builder, x []Ref) Ref { return b.Add(b.Mul(x[0], x[2]), x[1]) },
			[][]int{{0, 2}, {1}}},
		{"reciprocal", func(b *Builder, x []Ref) Ref { return b.Div(b.Const(1), b.Add(x[1], x[2])) },
			[][]int{{0}, {1, 2}}},
		{"relu of a sum", func(b *Builder, x []Ref) Ref { return b.Relu(b.Sum(x...)) },
			[][]int{{0, 1, 2}}},
		{"chain", func(b *Builder, x []Ref) Ref {
			return b.Add(b.Tanh(b.Add(x[0], x[1])), b.Cos(b.Sub(x[1], x[2])))
		}, [][]int{{0, 1, 2}}},
	}
	for _, c := range cases {
		if got := Compile(3, c.prog).HessianBlocks(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: blocks %v, want %v", c.name, got, c.want)
		}
	}
}
