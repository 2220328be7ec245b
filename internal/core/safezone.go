package core

import (
	"math"

	"automon/internal/linalg"
)

// DCKind selects between the two DC representations of §3.3/§3.4.
type DCKind uint8

const (
	// ConvexDiff represents f = g − ȟ with g, ȟ convex.
	ConvexDiff DCKind = iota
	// ConcaveDiff represents f = ĝ − ĥ with ĝ, ĥ concave.
	ConcaveDiff
)

func (k DCKind) String() string {
	if k == ConvexDiff {
		return "convex-difference"
	}
	return "concave-difference"
}

// Method identifies how the DC decomposition was derived.
type Method uint8

const (
	// MethodX is ADCD-X (§3.1): extreme Hessian eigenvalues over the
	// neighborhood B found by numerical optimization (Lemma 1).
	MethodX Method = iota
	// MethodE is ADCD-E (§3.2): exact eigendecomposition split of a constant
	// Hessian (Lemma 2). Its constraints are valid on the whole domain.
	MethodE
	// MethodNone disables ADCD and uses the admissible region L ≤ f(v) ≤ U
	// directly as the local constraint. This is the §4.6 ablation: the
	// resulting "safe zone" is generally non-convex, so violations can be
	// missed.
	MethodNone
	// MethodCustom marks a hand-crafted zone installed via
	// Config.ZoneBuilder (GM baselines like Convex Bound).
	MethodCustom
)

func (m Method) String() string {
	switch m {
	case MethodX:
		return "ADCD-X"
	case MethodE:
		return "ADCD-E"
	case MethodCustom:
		return "custom"
	}
	return "no-ADCD"
}

// SafeZone is the local constraint distributed by the coordinator: the set
// of vectors v for which the node stays silent. It bundles the DC
// decomposition parameters, the thresholds, and the neighborhood box.
type SafeZone struct {
	Method Method
	Kind   DCKind

	X0     []float64 // reference point (global average at last full sync)
	F0     float64   // f(x0)
	GradF0 []float64 // ∇f(x0)
	L, U   float64   // thresholds: admissible region is L ≤ f ≤ U

	// Lam is the ADCD-X curvature bound: |λ⁻min| over B for ConvexDiff, or
	// λ⁺max over B for ConcaveDiff (Lemma 1).
	Lam float64

	// H is the Kind-matching part of the ADCD-E split H = H⁻ + H⁺ (Lemma 2),
	// as eigenpairs: H⁻ for ConvexDiff, H⁺ for ConcaveDiff.
	H *linalg.EigFactor

	// BLo/BHi is the neighborhood box B ∩ D for ADCD-X. Empty for ADCD-E,
	// whose constraints hold on all of D.
	BLo, BHi []float64

	// Custom overrides the built-in constraint checks when non-nil. It is
	// used by hand-crafted GM baselines (e.g. the Convex Bound zone for the
	// inner product) that plug into the same protocol for comparison. Custom
	// zones are in-memory only: they are not serialized by Sync.Encode.
	Custom func(f *Function, v []float64) bool
}

// InNeighborhood reports whether v lies inside B (always true for ADCD-E and
// the no-ADCD ablation, whose constraints are global).
func (z *SafeZone) InNeighborhood(v []float64) bool {
	if len(z.BLo) == 0 {
		return true
	}
	return linalg.InBox(v, z.BLo, z.BHi)
}

// Contains reports whether v satisfies the ADCD local constraints (§3.3,
// simplified forms). The caller is responsible for checking InNeighborhood
// first; Contains itself does not require v ∈ B.
func (z *SafeZone) Contains(f *Function, v []float64) bool {
	return z.ContainsScratch(f, v, nil)
}

// ContainsScratch is Contains with caller-provided scratch: when diff is
// non-nil and len(diff) == len(v) the ADCD-E path uses it instead of
// allocating, making the per-update check allocation-free. diff is
// overwritten; it must not alias v or z.X0.
//
//automon:hotpath
func (z *SafeZone) ContainsScratch(f *Function, v, diff []float64) bool {
	if z.Custom != nil {
		//automon:allow hotpath custom zones are hand-crafted GM baselines, never installed on the measured monitoring path
		return z.Custom(f, v)
	}
	switch z.Method {
	case MethodNone:
		fv := f.Value(v)
		return z.L <= fv && fv <= z.U
	case MethodX:
		q := 0.5 * z.Lam * linalg.SqDist(v, z.X0)
		return z.containsWithQuadratic(f, v, q)
	case MethodE:
		if len(diff) != len(v) {
			//automon:allow hotpath scratch-miss fallback: the monitoring loop always passes node-owned scratch
			diff = make([]float64, len(v))
		}
		linalg.Sub(diff, v, z.X0)
		// The helper expects q with g = f+q, ȟ = q (convex kind) or
		// ĝ = f−q, ĥ = −q (concave kind). From Lemma 2:
		//   convex:  g = f − ½dᵀH⁻d  ⇒ q = −½dᵀH⁻d  (≥ 0, H⁻ NSD)
		//   concave: ĝ = f − ½dᵀH⁺d ⇒ q = +½dᵀH⁺d  (≥ 0, H⁺ PSD)
		q := 0.5 * z.H.QuadForm(diff)
		if z.Kind == ConvexDiff {
			q = -q
		}
		return z.containsWithQuadratic(f, v, q)
	}
	return false
}

// containsWithQuadratic evaluates the simplified §3.3 constraints where q is
// the convex (resp. concave) quadratic term of the decomposition:
//
//	ConvexDiff:  g(v) = f(v) + q ≤ U   and   ȟ(v) = q ≤ f0 + ∇f0ᵀ(v−x0) − L
//	ConcaveDiff: ĥ(v) = −q ≥ f0 + ∇f0ᵀ(v−x0) − U   and   ĝ(v) = f(v) − q ≥ L
//
// For ADCD-X, q = ½·Lam·‖v−x0‖² in both kinds (with Lam the relevant extreme
// eigenvalue magnitude); for ADCD-E, q = −½(v−x0)ᵀH⁻(v−x0) (convex kind,
// PSD) or −½(v−x0)ᵀH⁺(v−x0) (concave kind, NSD). In the concave kind the
// roles flip sign so the same helper serves both:
func (z *SafeZone) containsWithQuadratic(f *Function, v []float64, q float64) bool {
	fv := f.Value(v)
	lin := z.F0
	for i := range v {
		lin += z.GradF0[i] * (v[i] - z.X0[i])
	}
	if z.Kind == ConvexDiff {
		if fv+q > z.U {
			return false
		}
		if q > lin-z.L {
			return false
		}
		return true
	}
	// Concave difference: ĥ(v) = −q must dominate the tangent minus U, and
	// ĝ(v) = f(v) − q must stay above L.
	if -q < lin-z.U {
		return false
	}
	if fv-q < z.L {
		return false
	}
	return true
}

// InAdmissibleRegion reports whether L ≤ f(v) ≤ U — the §3.7 sanity check.
func (z *SafeZone) InAdmissibleRegion(f *Function, v []float64) bool {
	fv := f.Value(v)
	return z.L <= fv && fv <= z.U
}

// chooseKind applies the DC Heuristic of §3.4: pick the representation whose
// two component functions are less curved near x0.
//
// For ADCD-X with extreme bounds lamAbsNeg = |λ⁻min| and lamPosMax = λ⁺max
// over B, and H(x0) eigenvalues (hMin, hMax):
//
//	λmin(H_g)  = hMin + |λ⁻min|,  λmin(H_ȟ) = |λ⁻min|
//	λmax(H_ĥ) = −λ⁺max,          λmax(H_ĝ) = hMax − λ⁺max
//
// Choose the convex difference when
//
//	λmin(H_g) + λmin(H_ȟ) ≤ |λmax(H_ĥ) + λmax(H_ĝ)|.
func chooseKindX(hMin, hMax, lamAbsNeg, lamPosMax float64) DCKind {
	left := (hMin + lamAbsNeg) + lamAbsNeg
	right := math.Abs(-lamPosMax + (hMax - lamPosMax))
	if left <= right {
		return ConvexDiff
	}
	return ConcaveDiff
}

// chooseKindE is the constant-Hessian specialization: |λmin| ≤ λmax picks
// the convex difference.
func chooseKindE(lamMin, lamMax float64) DCKind {
	if math.Abs(lamMin) <= lamMax {
		return ConvexDiff
	}
	return ConcaveDiff
}
