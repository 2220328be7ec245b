package core

import (
	"fmt"
	"math"

	"automon/internal/linalg"
	"automon/internal/obs"
)

// Ownership is the data plane beneath a Machine. It stores the per-node
// vectors and slack assignments, talks to the messaging fabric, and
// aggregates partial averages; the Machine never touches a node vector
// directly. It is an interface because it has two implementations:
// Partition, the one implementation of the table, and the shard tree's
// router (internal/shard), which sends single-node operations to the
// owning leaf's Partition and recurses Collect and Distribute over the
// tree. One protocol state machine drives either.
//
// Liveness remains protocol state (the Machine owns live/liveCount); an
// Ownership implementation reports losses re-entrantly through
// Machine.MarkDead exactly as a NodeComm fabric does today.
type Ownership interface {
	// Store overwrites node id's last-known vector (violation- or
	// rejoin-embedded data; no fabric round trip).
	Store(id int, x []float64)
	// Refresh re-pulls node id's vector from the fabric into the store.
	// False means the fabric lost the node (after marking it dead on the
	// machine); the stale vector is kept.
	Refresh(id int) bool
	// AddSlacked adds node id's slacked vector xᵢ + sᵢ into sum.
	AddSlacked(sum []float64, id int)
	// Rebalance sets sⱼ ← mean − xⱼ for every j in set and delivers the new
	// slack to the node. The set's slack total is preserved, so Σᵢ sᵢ = 0
	// still holds. Neither set nor mean may be retained: both are the
	// machine's scratch.
	Rebalance(set []int, mean []float64)
	// Collect implements the full-sync gather: refresh every live node not
	// in fresh (losses may be flagged re-entrantly via MarkDead), then fold
	// every live node's vector into the exact per-dimension accumulators.
	// fresh holds the nodes whose vectors this resolution already stored; it
	// is the machine's, valid only during the call, and nil when there are
	// none. Collect returns the total weight — the number of vectors folded —
	// which the machine uses as the averaging denominator. Because the
	// accumulators are exact (linalg.Acc), any tree of partial Collects
	// merged upward yields bit-identical accumulators, and therefore a
	// bit-identical reference point, to a flat gather.
	Collect(fresh *Marks, accs []linalg.Acc) int
	// Distribute fans a full sync out to every live node: assign slack
	// sᵢ = x0 − xᵢ (or zero under DisableSlack), clear dead nodes' slack, and
	// send each node its Sync built from the template (per-node NodeID,
	// Slack, and ADCD-E factor bookkeeping).
	Distribute(tmpl *Sync, zone *SafeZone)
	// Forget drops per-node delivery state (the ADCD-E factor-sent flag) when
	// a node dies or rejoins: it may have restarted as a fresh process.
	Forget(id int)
	// Snapshot clones the last-known vectors of all nodes, in global node
	// order, for the adaptive radius controller's re-tuning window.
	Snapshot() [][]float64
}

// Marks is a set of node ids that empties in O(1): an id is in the set when
// its stamp equals the current generation, so emptying it only bumps the
// generation. A resolution marks the nodes whose vectors it already holds
// (the violator's, a rejoin's, every lazy-sync pull), and a full sync's
// gather does not pull them again.
type Marks struct {
	gen   uint32
	stamp []uint32
}

// Has reports whether id is in the set. A nil set is empty.
func (s *Marks) Has(id int) bool { return s != nil && s.stamp[id] == s.gen }

func (s *Marks) add(id int) { s.stamp[id] = s.gen }

// reset empties the set. When the generation wraps, a stamp left from four
// billion resets ago would read as current, so the stamps are cleared.
func (s *Marks) reset() {
	s.gen++
	if s.gen == 0 {
		clear(s.stamp)
		s.gen = 1
	}
}

// Machine is the AutoMon coordinator protocol as a pure state machine:
// Algorithm 1's violation handling, LRU lazy-sync balancing, full-sync
// resolution, slack policy, the §3.6 neighborhood-doubling fallback and the
// adaptive radius controller — everything except data movement, which it
// delegates to an Ownership. The same machine runs at the root of a sharded
// coordinator tree over shard-level partials (internal/shard) and inside the
// flat Coordinator.
type Machine struct {
	F   *Function
	N   int
	Cfg Config
	own Ownership

	x0     []float64
	accs   []linalg.Acc // per-dimension exact accumulators, reused across syncs
	zone   *SafeZone
	r      float64
	eDec   *EDecomposition
	method Method

	// prev/next link every node id into the LRU balancing order, least
	// recently balanced first, as a ring through the sentinel index N. Dead
	// nodes keep their place and are skipped by pickLRU.
	prev, next  []int32
	consecNeigh int
	// A resolution allocates nothing of its own: fresh marks the vectors it
	// already holds, and set, sum, mean and diff are lazySync's balancing
	// set, slacked-vector sum, mean and safe-zone check scratch. set has room
	// for the largest set an attempt can build, ⌊n/2⌋ + 1 nodes.
	fresh           Marks
	set             []int
	sum, mean, diff []float64

	// rMax is the resolved doubling cap (see Config.RMax / resolveRMax).
	// radius is the drift-aware controller, nil unless Config.AdaptiveR is
	// set on an ADCD-X run. rSwapped flags that the most recent full sync
	// applied a staged radius, so HandleViolation's neighborhood branch must
	// not restore a §3.6 streak counted against the old radius.
	rMax     float64
	radius   *radiusController
	rSwapped bool

	// thresholdFloor is DefaultThresholdFloor; a field so in-package tests
	// can scale it to their data.
	thresholdFloor float64

	// Liveness: dead nodes are excluded from syncs, from the reference-point
	// average, and from lazy-sync balancing sets until they rejoin. While any
	// node is dead the estimate is Degraded: it ε-approximates f over the
	// average of the live nodes only.
	live      []bool
	liveCount int

	obs coordObs
}

// NewMachine creates the protocol state machine for n nodes over function f,
// with own as its data plane. The monitoring method is chosen automatically:
// ADCD-E when the computational graph proves a constant Hessian, otherwise
// ADCD-X (or the no-ADCD ablation when configured). A data plane reads
// liveness back from the machine, so callers Bind their Partitions to it
// after this returns.
func NewMachine(f *Function, n int, cfg Config, own Ownership) *Machine {
	if cfg.RDoubleAfter <= 0 {
		cfg.RDoubleAfter = 5 * n
	}
	if cfg.DisableSlack {
		cfg.DisableLazySync = true
	}
	m := &Machine{
		F:   f,
		N:   n,
		Cfg: cfg,
		own: own,
		r:   cfg.R,
		obs: newCoordObs(cfg.Metrics, cfg.Tracer, cfg.MetricsLabels),

		fresh:          Marks{gen: 1, stamp: make([]uint32, n)},
		set:            make([]int, 0, n/2+1),
		sum:            make([]float64, f.Dim()),
		mean:           make([]float64, f.Dim()),
		diff:           make([]float64, f.Dim()),
		thresholdFloor: DefaultThresholdFloor,
	}
	m.obs.liveNodes.Set(float64(n))
	m.obs.radius.Set(cfg.R)
	m.live = make([]bool, n)
	m.liveCount = n
	for i := range m.live {
		m.live[i] = true
	}
	m.prev, m.next = make([]int32, n+1), make([]int32, n+1)
	for i := range m.next {
		m.next[i] = int32((i + 1) % (n + 1))
		m.prev[m.next[i]] = int32(i)
	}
	switch {
	case cfg.ZoneBuilder != nil:
		m.method = MethodCustom
	case cfg.DisableADCD:
		m.method = MethodNone
	case f.HasConstantHessian() && !cfg.ForceADCDX:
		m.method = MethodE
	default:
		m.method = MethodX
	}
	m.rMax = resolveRMax(cfg, f)
	m.radius = newRadiusController(m)
	return m
}

// Method returns the automatically selected ADCD variant.
func (m *Machine) Method() Method { return m.method }

// R returns the current neighborhood radius (it can grow via the doubling
// heuristic, and move either way under the adaptive controller).
func (m *Machine) R() float64 { return m.r }

// RMax returns the resolved cap on the neighborhood radius (see Config.RMax).
func (m *Machine) RMax() float64 { return m.rMax }

// PendingR returns the radius staged by the adaptive controller for the next
// full sync, or 0 when none is staged (or the controller is disabled).
func (m *Machine) PendingR() float64 {
	if m.radius == nil {
		return 0
	}
	return m.radius.pendingR
}

// Estimate returns the machine's current approximation f(x0).
func (m *Machine) Estimate() float64 {
	if m.zone == nil {
		return math.NaN()
	}
	return m.zone.F0
}

// Zone returns the current safe zone (nil before Init).
func (m *Machine) Zone() *SafeZone { return m.zone }

// Live reports whether node id is currently considered reachable.
func (m *Machine) Live(id int) bool { return m.live[id] }

// LiveCount returns the number of nodes currently considered reachable.
func (m *Machine) LiveCount() int { return m.liveCount }

// Degraded reports whether the estimate currently covers only a subset of
// the nodes: while any node is dead, the ε-guarantee holds for f over the
// average of the live nodes, not the full population.
func (m *Machine) Degraded() bool { return m.liveCount < m.N }

// Stats snapshots the protocol counters. The snapshot is a view over the
// same obs instruments the /metrics endpoint scrapes.
func (m *Machine) Stats() CoordStats {
	return CoordStats{
		FullSyncs:              int(m.obs.fullSyncs.Load()),
		LazyAttempts:           int(m.obs.lazyAttempts.Load()),
		LazyResolved:           int(m.obs.lazyResolved.Load()),
		NeighborhoodViolations: int(m.obs.neighViol.Load()),
		SafeZoneViolations:     int(m.obs.szViol.Load()),
		FaultyViolations:       int(m.obs.faultyViol.Load()),
		RDoublings:             int(m.obs.rDoublings.Load()),
		RSaturations:           int(m.obs.rSaturations.Load()),
		RShrinks:               int(m.obs.rShrinks.Load()),
		RGrows:                 int(m.obs.rGrows.Load()),
		AdaptiveRetunes:        int(m.obs.adaptiveRetunes.Load()),
		NodeDeaths:             int(m.obs.nodeDeaths.Load()),
		Rejoins:                int(m.obs.rejoins.Load()),
		Eigensolves:            int(m.obs.eigsolves.Load()),
		EigBoundBuildsLBFGS:    int(m.obs.ebLBFGS.Load()),
		EigBoundBuildsInterval: int(m.obs.ebInterval.Load()),
		EigBoundBuildsHybrid:   int(m.obs.ebHybrid.Load()),
		HybridRefines:          int(m.obs.ebRefines.Load()),
		OptEvals:               int(m.obs.ebOptEvals.Load()),
	}
}

// MarkDead excludes a node from syncs, the reference-point average, and lazy
// balancing until MarkLive (or a rejoin/violation from it) revives it. The
// messaging fabric calls it when it loses a node.
func (m *Machine) MarkDead(id int) {
	if id < 0 || id >= m.N || !m.live[id] {
		return
	}
	m.live[id] = false
	m.liveCount--
	m.own.Forget(id)
	m.obs.nodeDeaths.Inc()
	m.obs.liveNodes.Set(float64(m.liveCount))
	m.obs.tracer.Record(obs.EventNodeDeath, id, float64(m.liveCount), "")
}

// MarkLive reverses MarkDead.
func (m *Machine) MarkLive(id int) {
	if id < 0 || id >= m.N || m.live[id] {
		return
	}
	m.live[id] = true
	m.liveCount++
	m.obs.liveNodes.Set(float64(m.liveCount))
}

// HandleDeparture marks nodes dead (one lost connection, or a whole sub-tree
// cut off by a partition) and re-synchronizes the survivors with one full
// sync, so the estimate degrades to the live-node average instead of silently
// averaging stale vectors. Returns ErrNoLiveNodes when no node is left; the
// estimate then freezes until a rejoin.
func (m *Machine) HandleDeparture(ids ...int) error {
	for _, id := range ids {
		if id < 0 || id >= m.N {
			return fmt.Errorf("core: departure of unknown node %d", id)
		}
	}
	for _, id := range ids {
		m.MarkDead(id)
	}
	return m.fullSync(nil)
}

// HandleRejoin re-admits nodes (one reconnecting node, a dead-marked node
// whose violation proved it alive, or a whole sub-tree after a partition
// heals) with one full sync over the new live set. xs carries the nodes'
// fresh vectors in ids order; a nil xs or a nil entry keeps the stale vector
// and lets the sync's gather re-pull it. A returning node's previous slack is
// void: only a full sync restores the Σᵢ sᵢ = 0 invariant. An unknown node or
// a vector of another dimension is refused with an error before any state
// changes.
func (m *Machine) HandleRejoin(ids []int, xs [][]float64) error {
	if xs != nil && len(xs) != len(ids) {
		return fmt.Errorf("core: rejoin carries %d vectors for %d nodes", len(xs), len(ids))
	}
	for i, id := range ids {
		if id < 0 || id >= m.N {
			return fmt.Errorf("core: rejoin of unknown node %d", id)
		}
		if xs != nil && xs[i] != nil && len(xs[i]) != m.F.Dim() {
			return fmt.Errorf("core: rejoin of node %d carries %d values, want %d", id, len(xs[i]), m.F.Dim())
		}
	}
	fresh := m.newResolution()
	for i, id := range ids {
		m.readmit(id)
		if xs != nil && xs[i] != nil {
			m.own.Store(id, xs[i])
			fresh.add(id)
		}
	}
	return m.fullSync(fresh)
}

// newResolution empties the fresh-vector marks for a resolution that is
// about to store vectors, and returns them.
func (m *Machine) newResolution() *Marks {
	m.fresh.reset()
	return &m.fresh
}

// readmit revives one node ahead of a rejoin's full sync. The node may have
// restarted as a fresh process, so its delivery state is forgotten.
func (m *Machine) readmit(id int) {
	m.MarkLive(id)
	m.obs.rejoins.Inc()
	m.obs.tracer.Record(obs.EventRejoin, id, float64(m.liveCount), "")
	m.own.Forget(id)
}

// AdoptZone installs a safe zone decided by a parent tier. A sub-coordinator
// in a sharded tree does not compute zones of its own: it adopts the root's
// at every distribution, so its partition-local balancing (TryLazyAbsorb)
// checks exactly the constraints the nodes themselves check.
func (m *Machine) AdoptZone(z *SafeZone) { m.zone = z }

// TryLazyAbsorb attempts to resolve a safe-zone violation with lazy-sync
// balancing only — no full-sync fallback, no zone rebuild. It returns false
// whenever the violation cannot be absorbed (wrong kind or dimension, no
// adopted zone, dead or unknown violator, balancing failed) and the caller
// escalates to its parent tier. On success the balancing set's slack total is
// preserved, so the absorption is invisible to Σᵢ sᵢ = 0 at every tier above.
func (m *Machine) TryLazyAbsorb(v *Violation) bool {
	if v == nil || v.Kind != ViolationSafeZone || len(v.X) != m.F.Dim() || m.zone == nil || m.Cfg.DisableLazySync {
		return false
	}
	if v.NodeID < 0 || v.NodeID >= m.N || !m.live[v.NodeID] {
		return false
	}
	m.own.Store(v.NodeID, v.X)
	m.obs.szViol.Inc()
	m.consecNeigh = 0
	fresh := m.newResolution()
	fresh.add(v.NodeID)
	return m.lazySync(v, fresh)
}

// Init performs the first full sync, whose gather pulls every live node's
// vector once. It must be called once, after the nodes hold their initial
// vectors.
func (m *Machine) Init() error { return m.fullSync(nil) }

// Resync forces a full synchronization: fresh data pull, new reference
// point, thresholds, and safe zones. Applications use it to re-engage
// AutoMon after falling back to another monitoring scheme (the §6
// "switching on the fly" extension).
func (m *Machine) Resync() error { return m.fullSync(nil) }

// HandleViolation is the machine's reaction to a node-reported violation:
// lazy sync for safe-zone violations (when enabled), a full sync otherwise.
// The violation's embedded vector refreshes the data plane's view of that
// node. A violation from an unknown node, of an unknown kind or with a vector
// of another dimension is refused with an error before any state changes.
func (m *Machine) HandleViolation(v *Violation) error {
	if v.NodeID < 0 || v.NodeID >= m.N {
		return fmt.Errorf("core: violation from unknown node %d", v.NodeID)
	}
	if err := v.Check(m.F.Dim()); err != nil {
		return err
	}
	// A violation from a dead-marked node proves it is alive again (e.g. a
	// request timeout was a false suspicion): it is a rejoin carrying the
	// node's vector, whatever its kind.
	if !m.live[v.NodeID] {
		return m.HandleRejoin([]int{v.NodeID}, [][]float64{v.X})
	}
	m.own.Store(v.NodeID, v.X)
	fresh := m.newResolution()
	fresh.add(v.NodeID)

	switch v.Kind {
	case ViolationNeighborhood:
		m.obs.neighViol.Inc()
		m.obs.tracer.Record(obs.EventViolation, v.NodeID, 0, "neighborhood")
		// The §3.6 streak counts *consecutive* neighborhood violations; every
		// full sync from another cause (including the one below when it is
		// not neighborhood-triggered) resets it inside fullSync, so restore
		// the running streak after the sync this violation forces.
		streak := m.consecNeigh + 1
		if streak >= m.Cfg.RDoubleAfter {
			// §3.6 fallback: tuning data became unrepresentative; widen B —
			// but never past rMax: unbounded doubling under a sustained storm
			// would (with the interval backend) widen Hessian enclosures
			// toward Entire.
			streak = 0
			newR := m.r * 2
			if newR > m.rMax {
				newR = m.rMax
				m.obs.rSaturations.Inc()
				m.obs.tracer.Record(obs.EventRSaturated, v.NodeID, m.rMax, "")
			}
			if newR > m.r {
				m.r = newR
				m.obs.rDoublings.Inc()
				m.obs.radius.Set(m.r)
				m.obs.tracer.Record(obs.EventRDouble, v.NodeID, m.r, "")
			}
		}
		err := m.fullSync(fresh)
		if m.rSwapped {
			// The sync installed a re-tuned radius; violations counted
			// against the old one say nothing about the new neighborhood.
			streak = 0
		}
		m.consecNeigh = streak
		if m.radius != nil {
			m.radius.observeViolation(true, false, true)
			m.radius.maybeRetune()
		}
		return err
	case ViolationFaulty:
		m.obs.faultyViol.Inc()
		m.obs.tracer.Record(obs.EventViolation, v.NodeID, 0, "faulty")
		err := m.fullSync(fresh)
		if m.radius != nil {
			m.radius.observeViolation(false, false, true)
			m.radius.maybeRetune()
		}
		return err
	default: // ViolationSafeZone, the one kind Check leaves
		m.obs.szViol.Inc()
		m.obs.tracer.Record(obs.EventViolation, v.NodeID, 0, "safe_zone")
		m.consecNeigh = 0
		resolved := !m.Cfg.DisableLazySync && m.lazySync(v, fresh)
		var err error
		if !resolved {
			err = m.fullSync(fresh)
		}
		if m.radius != nil {
			m.radius.observeViolation(false, true, !resolved)
			m.radius.maybeRetune()
		}
		return err
	}
}

// lazySync implements the balancing protocol: starting from the violator, it
// adds least-recently-used nodes to the balancing set until the mean of
// their slacked vectors re-enters the safe zone, then rebalances their slack
// so each sits exactly at the mean. Returns false when more than half the
// nodes were pulled without resolution; the caller then falls back to a full
// sync (which reuses the vectors pulled here via fresh). Every buffer it uses
// is the machine's, so an attempt allocates nothing.
func (m *Machine) lazySync(v *Violation, fresh *Marks) bool {
	m.obs.lazyAttempts.Inc()
	set := append(m.set[:0], v.NodeID)
	m.touchLRU(v.NodeID)

	sum, mean := m.sum, m.mean
	clear(sum)
	m.own.AddSlacked(sum, v.NodeID)
	for {
		if len(set) > m.liveCount/2 {
			return false
		}
		next := m.pickLRU()
		if next < 0 {
			return false
		}
		if !m.own.Refresh(next) || !m.live[next] {
			// The fabric lost this node mid-pull; abort balancing and let the
			// caller fall back to a full sync over the remaining live set.
			return false
		}
		fresh.add(next)
		set = append(set, next)
		m.touchLRU(next)
		m.own.AddSlacked(sum, next)
		linalg.Scale(mean, 1/float64(len(set)), sum)
		if kind, _ := m.zone.classify(m.F, mean, m.diff, nil); kind == 0 {
			break
		}
	}

	// Rebalance: vⱼ ← mean for every j in the set, i.e. sⱼ = mean − xⱼ.
	// The per-set slack total is preserved, so Σᵢ sᵢ = 0 still holds and the
	// monitored average remains the true average.
	m.own.Rebalance(set, mean)
	m.obs.lazyResolved.Inc()
	m.obs.lazySet.Observe(float64(len(set)))
	m.obs.tracer.Record(obs.EventLazySync, v.NodeID, float64(len(set)), "")
	return true
}

// pickLRU returns the least-recently-used live node, or -1. Dead nodes are
// skipped: pulling them would stall the resolution on a request that can
// never be answered. No balancing-set member can be the pick: lazySync
// touches each member as it joins, so the set is the order's tail, and it
// stops growing before it holds half the live nodes, so a live non-member
// always comes first.
func (m *Machine) pickLRU() int {
	for id := m.next[m.N]; int(id) != m.N; id = m.next[id] {
		if m.live[id] {
			return int(id)
		}
	}
	return -1
}

// touchLRU marks a node as most recently used: it unlinks the node and
// relinks it as the tail, just before the sentinel.
func (m *Machine) touchLRU(id int) {
	i, s := int32(id), int32(m.N)
	m.next[m.prev[i]], m.prev[m.next[i]] = m.next[i], m.prev[i]
	tail := m.prev[s]
	m.prev[i], m.next[i] = tail, s
	m.next[tail], m.prev[s] = i, i
}

// Thresholds derives (L, U) from f(x0) under the configured error type.
// Under Multiplicative error the interval width is ε·|f(x0)|, which
// collapses to zero as f(x0) → 0 and turns every subsequent update into a
// violation; the absolute floor keeps the interval usable through zero
// crossings.
func (m *Machine) Thresholds(f0 float64) (l, u float64) {
	if m.Cfg.ErrorType == Multiplicative {
		a := (1 - m.Cfg.Epsilon) * f0
		b := (1 + m.Cfg.Epsilon) * f0
		l, u = math.Min(a, b), math.Max(a, b)
		if u-l < 2*m.thresholdFloor {
			l, u = f0-m.thresholdFloor, f0+m.thresholdFloor
		}
		return l, u
	}
	return f0 - m.Cfg.Epsilon, f0 + m.Cfg.Epsilon
}

// fullSync is Algorithm 1's CoordinatorFullSync: gather all live vectors
// (minus the ones already fresh in this resolution) into the exact
// per-dimension accumulators, recompute x0 over the live set, thresholds,
// the DC decomposition and safe zone, then distribute slack and zones to
// every live node. Dead nodes keep their last vector but contribute nothing:
// the estimate degrades to the live-node average.
//
// x0 is derived as Round(Σᵢxᵢ)·(1/w) from order-independent exact sums, so a
// sharded tree that merges partial accumulators upward reproduces the flat
// reference point bit-for-bit (see linalg.Acc).
//
// Every full sync also ends any running streak of consecutive neighborhood
// violations: the nodes receive fresh zones around a fresh reference point,
// so earlier neighborhood violations say nothing about the new neighborhood.
// HandleViolation's neighborhood branch restores the streak afterwards —
// only there is the violation itself part of the streak (§3.6).
func (m *Machine) fullSync(fresh *Marks) error {
	m.obs.fullSyncs.Inc()
	m.consecNeigh = 0
	m.rSwapped = false
	if m.radius != nil && m.radius.applyPending() {
		m.rSwapped = true
	}
	d := m.F.Dim()
	if m.accs == nil {
		m.accs = make([]linalg.Acc, d)
	}
	for j := range m.accs {
		m.accs[j].Reset()
	}
	weight := m.own.Collect(fresh, m.accs)
	if weight == 0 {
		return ErrNoLiveNodes
	}
	if m.x0 == nil {
		m.x0 = make([]float64, d)
	}
	inv := 1 / float64(weight)
	for j := range m.x0 {
		m.x0[j] = m.accs[j].Round() * inv
	}
	m.clampToDomain(m.x0)

	f0 := m.F.Value(m.x0)
	l, u := m.Thresholds(f0)

	var zone *SafeZone
	var err error
	switch m.method {
	case MethodCustom:
		zone = m.Cfg.ZoneBuilder(m.F, m.x0, l, u)
	case MethodNone:
		zone = BuildZoneNone(m.F, m.x0, l, u)
	case MethodE:
		if m.eDec == nil {
			m.eDec, err = DecomposeE(m.F, m.x0)
			if err != nil {
				return err
			}
		}
		zone = BuildZoneE(m.F, m.eDec, m.x0, l, u)
	case MethodX:
		bLo, bHi := NeighborhoodBox(m.F, m.x0, m.r, nil, nil)
		dec, err := DecomposeX(m.F, m.x0, bLo, bHi, m.Cfg.Decomp)
		if err != nil {
			return err
		}
		m.obs.eigboundBuilds(dec.Backend).Inc()
		m.obs.eigsolves.Add(int64(dec.Eigensolves))
		// Every solve but the one at x0 ran inside the search.
		m.obs.ebOptEvals.Add(int64(dec.Eigensolves - 1))
		if dec.Refined {
			m.obs.ebRefines.Inc()
		}
		if m.radius != nil {
			m.radius.observeBuild(float64(dec.Eigensolves))
		}
		zone = BuildZoneXFrom(m.F, m.x0, l, u, bLo, bHi, dec)
	}
	m.zone = zone
	m.obs.estimate.Set(zone.F0)
	m.obs.tracer.Record(obs.EventFullSync, -1, float64(m.liveCount), zone.Method.String())

	// The template carries the zone's own X0 and ∇f(x0), not m.x0, which the
	// next sync overwrites: every node of this sync shares the two vectors
	// read-only (see Sync).
	m.own.Distribute(&Sync{
		Method: m.method,
		Kind:   zone.Kind,
		X0:     zone.X0,
		F0:     zone.F0,
		GradF0: zone.GradF0,
		L:      l,
		U:      u,
		Lam:    zone.Lam,
		R:      m.r,
	}, zone)
	if m.radius != nil {
		m.radius.recordSnapshot()
	}
	return nil
}

// clampToDomain keeps the reference point inside D; averaging cannot leave
// a convex domain box, but numerical round-off at the boundary can.
func (m *Machine) clampToDomain(x []float64) {
	if m.F.DomainLo != nil {
		for i := range x {
			if x[i] < m.F.DomainLo[i] {
				x[i] = m.F.DomainLo[i]
			}
		}
	}
	if m.F.DomainHi != nil {
		for i := range x {
			if x[i] > m.F.DomainHi[i] {
				x[i] = m.F.DomainHi[i]
			}
		}
	}
}
