// Package optimize provides box-constrained numerical minimization: a
// projected L-BFGS with Armijo backtracking, and a pool that runs
// independent starts concurrently. It stands in for SciPy's L-BFGS-B in the
// AutoMon paper: the coordinator uses it to search a neighborhood B for the
// extreme eigenvalues of the Hessian (§3.1). Like the original, it is a
// local method with no global guarantee — the AutoMon protocol is designed
// to tolerate that (§3.7).
package optimize

import (
	"errors"

	"automon/internal/linalg"
)

// Objective evaluates the function to minimize at x.
type Objective func(x []float64) float64

// Gradient writes ∇f(x) into grad.
type Gradient func(x, grad []float64)

// Options configure Minimize.
type Options struct {
	MaxIter   int // maximum outer iterations (default 100)
	MaxFunEva int // cap on objective evaluations, 0 = unlimited
}

// Solver constants. The eigenvalue search, the one caller, runs every start
// at these values.
const (
	memory  = 8     // L-BFGS history pairs
	gradTol = 1e-5  // stop when the projected gradient ∞-norm falls below
	stepTol = 1e-10 // stop when steps stall below this size
)

// Result reports the outcome of a minimization.
type Result struct {
	X         []float64
	F         float64
	Iters     int
	FuncEvals int
	Converged bool // projected-gradient tolerance reached
}

var (
	// ErrBadBox is returned when the box is inconsistent with the start
	// point dimensions or has lo > hi.
	ErrBadBox = errors.New("optimize: inconsistent box constraints")
	// ErrNoGradient is returned when Minimize is given a nil gradient.
	ErrNoGradient = errors.New("optimize: nil gradient")
)

type counter struct {
	f     Objective
	n     int
	limit int
}

func (c *counter) eval(x []float64) float64 {
	c.n++
	return c.f(x)
}

func (c *counter) exhausted() bool { return c.limit > 0 && c.n >= c.limit }

// Minimize finds a local minimum of f over the box [lo, hi] starting from
// x0 (which is clamped into the box), with gradient ∇f. It implements
// projected L-BFGS: quasi-Newton directions from a limited history,
// backtracking line search along the projected path, and active-set handling
// by projection.
func Minimize(f Objective, gradient Gradient, x0, lo, hi []float64, opts Options) (Result, error) {
	if gradient == nil {
		return Result{}, ErrNoGradient
	}
	d := len(x0)
	if len(lo) != d || len(hi) != d {
		return Result{}, ErrBadBox
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Result{}, ErrBadBox
		}
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 100
	}
	cnt := &counter{f: f, limit: opts.MaxFunEva}

	x := make([]float64, d)
	linalg.Clamp(x, x0, lo, hi)
	fx := cnt.eval(x)

	grad := make([]float64, d)
	gradient(x, grad)

	// L-BFGS history.
	sHist := make([][]float64, 0, memory)
	yHist := make([][]float64, 0, memory)
	rho := make([]float64, 0, memory)

	dir := make([]float64, d)
	xNew := make([]float64, d)
	gradNew := make([]float64, d)
	pg := make([]float64, d)
	skippedPairs := 0

	res := Result{}
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iters = iter + 1
		projGrad(pg, x, grad, lo, hi)
		if infNorm(pg) < gradTol {
			res.Converged = true
			break
		}
		if cnt.exhausted() {
			break
		}

		twoLoop(dir, grad, sHist, yHist, rho)
		for i := range dir {
			dir[i] = -dir[i]
		}
		// Fall back to steepest descent when the quasi-Newton direction is
		// not a descent direction (can happen right after projections).
		if linalg.Dot(dir, grad) >= 0 {
			for i := range dir {
				dir[i] = -grad[i]
			}
		}

		fNew, accepted := lineSearch(cnt, x, dir, grad, fx, lo, hi, xNew)
		if !accepted && len(sHist) > 0 {
			// The quasi-Newton model may be stale after box projections;
			// drop the history and retry along the raw gradient.
			sHist, yHist, rho = sHist[:0], yHist[:0], rho[:0]
			for i := range dir {
				dir[i] = -grad[i]
			}
			fNew, accepted = lineSearch(cnt, x, dir, grad, fx, lo, hi, xNew)
		}
		if !accepted {
			break // stalled: local minimum w.r.t. the search direction
		}

		gradient(xNew, gradNew)

		// Update history with s = xNew - x, y = gradNew - grad.
		s := make([]float64, d)
		y := make([]float64, d)
		linalg.Sub(s, xNew, x)
		linalg.Sub(y, gradNew, grad)
		sy := linalg.Dot(s, y)
		if sy > 1e-12 {
			if len(sHist) == memory {
				sHist = sHist[1:]
				yHist = yHist[1:]
				rho = rho[1:]
			}
			sHist = append(sHist, s)
			yHist = append(yHist, y)
			rho = append(rho, 1/sy)
			skippedPairs = 0
		} else {
			// Negative curvature along the step: the quasi-Newton model is
			// unreliable here. After repeated skips, restart the history so
			// the next direction is a fresh steepest descent.
			skippedPairs++
			if skippedPairs >= 2 {
				sHist, yHist, rho = sHist[:0], yHist[:0], rho[:0]
				skippedPairs = 0
			}
		}

		copy(x, xNew)
		copy(grad, gradNew)
		fx = fNew
		if cnt.exhausted() {
			break
		}
	}
	res.X = x
	res.F = fx
	res.FuncEvals = cnt.n
	return res, nil
}

// lineSearch performs backtracking Armijo search along the projected path
// x(t) = clamp(x + t·dir), writing the accepted point into xNew.
func lineSearch(cnt *counter, x, dir, grad []float64, fx float64, lo, hi, xNew []float64) (fNew float64, accepted bool) {
	const c1 = 1e-4
	// Scale the first trial step so steepest-descent directions with huge
	// gradients do not immediately leave the region of model validity.
	t := 1.0
	if n := infNorm(dir); n > 1e3 {
		t = 1e3 / n
	}
	probe := make([]float64, len(x))
	armijo := func(t float64) (float64, bool) {
		linalg.AXPY(probe, t, dir, x)
		linalg.Clamp(probe, probe, lo, hi)
		if linalg.MaxAbsDiff(probe, x) < stepTol {
			return 0, false
		}
		f := cnt.eval(probe)
		var gTd float64
		for i := range x {
			gTd += grad[i] * (probe[i] - x[i])
		}
		return f, f <= fx+c1*gTd && f < fx
	}
	for ls := 0; ls < 50; ls++ {
		f, ok := armijo(t)
		if ok {
			copy(xNew, probe)
			fNew = f
			if ls == 0 {
				// Accepted on the first probe: the step may be far too
				// conservative (e.g. a stale quasi-Newton scaling). Expand
				// while the objective keeps improving under Armijo.
				for exp := 0; exp < 20 && !cnt.exhausted(); exp++ {
					f2, ok2 := armijo(t * 2)
					if !ok2 || f2 >= fNew {
						break
					}
					t *= 2
					copy(xNew, probe)
					fNew = f2
				}
			}
			return fNew, true
		}
		if cnt.exhausted() {
			return 0, false
		}
		t *= 0.5
	}
	return 0, false
}

// twoLoop computes H·g (the L-BFGS inverse-Hessian application) into dst.
func twoLoop(dst, g []float64, sHist, yHist [][]float64, rho []float64) {
	copy(dst, g)
	k := len(sHist)
	if k == 0 {
		return
	}
	alpha := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		alpha[i] = rho[i] * linalg.Dot(sHist[i], dst)
		linalg.AXPY(dst, -alpha[i], yHist[i], dst)
	}
	// Initial Hessian scaling γ = sᵀy / yᵀy from the most recent pair.
	gamma := 1 / (rho[k-1] * linalg.Dot(yHist[k-1], yHist[k-1]))
	linalg.Scale(dst, gamma, dst)
	for i := 0; i < k; i++ {
		beta := rho[i] * linalg.Dot(yHist[i], dst)
		linalg.AXPY(dst, alpha[i]-beta, sHist[i], dst)
	}
}

// projGrad computes the projected gradient: components pointing out of the
// box at active bounds are zeroed.
func projGrad(dst, x, grad, lo, hi []float64) {
	for i := range x {
		g := grad[i]
		if x[i] <= lo[i] && g > 0 {
			g = 0
		}
		if x[i] >= hi[i] && g < 0 {
			g = 0
		}
		dst[i] = g
	}
}

func infNorm(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}
