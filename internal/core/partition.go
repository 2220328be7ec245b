package core

import "automon/internal/linalg"

// Partition is the one data plane beneath a Machine: the coordinator's table
// of last-known vectors xᵢ, slack assignments sᵢ and ADCD-E factor delivery
// flags for the contiguous node range [Lo, Hi). The flat Coordinator runs its
// machine over a single Partition{0, n}; every leaf of a shard tree is a
// Partition over its own range, and a leaf's absorb machine drives a Local
// view of the same arrays.
//
// A Partition is parameterised by two things only: the machine whose liveness
// and slack policy it reads (Bind), and the ID base it is addressed with
// (global node IDs by default, partition-local indices through Local). The
// fabric is always addressed with global node IDs.
type Partition struct {
	Lo, Hi int
	// base is the ID the caller uses for the partition's first node: Lo for a
	// globally addressed partition, 0 for a Local view.
	base int
	m    *Machine
	comm NodeComm

	lastX  [][]float64
	slacks [][]float64
	// slackMsg is the one Slack message Rebalance sends, re-addressed per
	// node. Its vector is the node's own slacks entry, so a fabric may read
	// it only during SendSlack (see NodeComm).
	slackMsg Slack
	// matrixSent tracks per node whether the (constant) ADCD-E factor has
	// been delivered. It is cleared when a node dies or rejoins: the node may
	// have restarted as a fresh process that never saw the factor.
	matrixSent []bool
}

// NewPartition allocates the table for nodes [lo, hi) of a dim-dimensional
// function over the comm fabric. It is returned by value so that an owner (a
// coordinator, a shard leaf) can hold it inline; Bind it to its machine
// before use.
func NewPartition(dim, lo, hi int, comm NodeComm) Partition {
	k := hi - lo
	p := Partition{
		Lo: lo, Hi: hi, base: lo, comm: comm,
		lastX:      make([][]float64, k),
		slacks:     make([][]float64, k),
		matrixSent: make([]bool, k),
	}
	for i := 0; i < k; i++ {
		p.lastX[i] = make([]float64, dim)
		p.slacks[i] = make([]float64, dim)
	}
	return p
}

// Bind sets the machine whose liveness and slack policy the partition reads.
// The machine must be addressed in the partition's own ID space: the root
// machine for a global partition, the absorb machine for a Local view.
func (p *Partition) Bind(m *Machine) { p.m = m }

// Local returns a view of the same table addressed by partition-local index
// (0 is node Lo), unbound. Writes through either are seen by both.
func (p *Partition) Local() *Partition {
	v := *p
	v.base, v.m = 0, nil
	return &v
}

// Store implements Ownership.
func (p *Partition) Store(id int, x []float64) { copy(p.lastX[id-p.base], x) }

// Refresh implements Ownership.
func (p *Partition) Refresh(id int) bool {
	i := id - p.base
	x := p.comm.RequestData(p.Lo + i)
	if x == nil {
		return false
	}
	copy(p.lastX[i], x)
	return true
}

// AddSlacked implements Ownership.
func (p *Partition) AddSlacked(sum []float64, id int) {
	i := id - p.base
	for j := range sum {
		sum[j] += p.lastX[i][j] + p.slacks[i][j]
	}
}

// Rebalance implements Ownership.
func (p *Partition) Rebalance(set []int, mean []float64) {
	for _, id := range set {
		i := id - p.base
		linalg.Sub(p.slacks[i], mean, p.lastX[i])
		p.slackMsg = Slack{NodeID: p.Lo + i, Slack: p.slacks[i]}
		p.comm.SendSlack(p.Lo+i, &p.slackMsg)
	}
}

// Collect implements Ownership: the full-sync gather over the partition, in
// ascending node order, folding each live vector as soon as it is pulled. A
// nil RequestData response means the fabric lost that node; unless it is
// still marked live, it is left out of the fold and its stale vector is kept.
func (p *Partition) Collect(fresh *Marks, accs []linalg.Acc) int {
	weight := 0
	for i := range p.lastX {
		id := p.base + i
		if !p.m.Live(id) {
			continue
		}
		if !fresh.Has(id) {
			if x := p.comm.RequestData(p.Lo + i); x != nil {
				copy(p.lastX[i], x)
			} else if !p.m.Live(id) {
				continue
			}
		}
		linalg.AddVec(accs, p.lastX[i])
		weight++
	}
	return weight
}

// Distribute implements Ownership: slack assignment and zone delivery for one
// full sync, in ascending node order.
func (p *Partition) Distribute(tmpl *Sync, zone *SafeZone) {
	for i := range p.lastX {
		if !p.m.Live(p.base + i) {
			// A dead node holds no slack: Σᵢ sᵢ = 0 must hold over the live
			// set alone, and the node's own copy is rebuilt on rejoin.
			clear(p.slacks[i])
			continue
		}
		if p.m.Cfg.DisableSlack {
			clear(p.slacks[i])
		} else {
			linalg.Sub(p.slacks[i], tmpl.X0, p.lastX[i])
		}
		withFactor := tmpl.Method == MethodE && !p.matrixSent[i]
		p.matrixSent[i] = true
		p.comm.SendSync(p.Lo+i, tmpl.ForNode(p.Lo+i, p.slacks[i], zone, withFactor))
	}
}

// Forget implements Ownership.
func (p *Partition) Forget(id int) { p.matrixSent[id-p.base] = false }

// Snapshot implements Ownership.
func (p *Partition) Snapshot() [][]float64 {
	round := make([][]float64, len(p.lastX))
	for i := range p.lastX {
		round[i] = linalg.Clone(p.lastX[i])
	}
	return round
}
