// Package oracle is the ε-oracle differential harness: it replays a
// deterministic drift schedule through a real node/coordinator cluster over
// loopback TCP and, in lockstep, through a centralized oracle that computes
// the exact f(x̄) from the very vectors the nodes hold. After every round the
// cluster is quiesced — so the comparison happens outside any sync window —
// and the coordinator's estimate is checked against the oracle value.
//
// For convex/concave difference decompositions and constant-Hessian
// functions (ADCD-E) the paper's guarantee is deterministic, so the bound is
// exactly ε. For the non-convex ADCD-X cases the guarantee holds only while
// the DC decomposition's neighborhood assumption does, so those specs run
// with an engineering bound of a small multiple of ε (see Spec.Tolerance).
package oracle

import (
	"fmt"
	"math"
	"time"

	"automon/internal/core"
	"automon/internal/linalg"
	"automon/internal/transport"
)

// Spec is one differential replay: a function, a cluster size, an ε, and a
// deterministic drift schedule.
type Spec struct {
	Name string
	F    *core.Function
	N    int     // nodes in the cluster
	Eps  float64 // the monitoring ε (written into Core.Epsilon)
	// Rounds is the number of monitored rounds after the initial sync.
	Rounds int
	// Gen returns node i's local vector at the given round; round 0 is the
	// initial vector. It must be deterministic.
	Gen func(round, node int) []float64
	// Tolerance is the allowed |estimate − f(x̄)| as a multiple of Eps.
	// 0 means 1 (the exact paper guarantee). Non-convex ADCD-X specs use 3.
	Tolerance float64
	// Core carries protocol settings (R for ADCD-X, ablations, …). Epsilon
	// is overwritten with Eps.
	Core core.Config
	// Opts configures the loopback transport (batching, groups, timeouts).
	Opts transport.Options
}

// Round is one quiesced comparison point.
type Round struct {
	Round           int
	Estimate, Truth float64
	Err             float64
}

// Report is the outcome of one differential replay.
type Report struct {
	Spec   string
	Bound  float64 // Tolerance · Eps
	Rounds []Round
	MaxErr float64
	// Bad lists the rounds whose error exceeded Bound. A correct protocol
	// produces none: every comparison happens after quiescence, outside any
	// sync window.
	Bad []int
	// Stats is the coordinator's protocol tally at the end of the replay,
	// so callers can verify the schedule actually exercised the protocol.
	Stats core.CoordStats
	// TreeDepth is the shard-tree depth of a ReplayTree run (tiers from the
	// root shard to the leaves); zero for the flat TCP replay.
	TreeDepth int
	// RefusedSyncs counts syncs a node could not check and refused. A correct
	// run produces none.
	RefusedSyncs int
}

// begin validates the spec and returns the protocol config to run it with
// and the report to fill.
func (sp Spec) begin() (core.Config, *Report, error) {
	if sp.F == nil || sp.N <= 0 || sp.Gen == nil || sp.Rounds <= 0 {
		return core.Config{}, nil, fmt.Errorf("oracle: spec %q needs F, N, Gen and Rounds", sp.Name)
	}
	tol := sp.Tolerance
	if tol == 0 {
		tol = 1
	}
	cfg := sp.Core
	cfg.Epsilon = sp.Eps
	return cfg, &Report{Spec: sp.Name, Bound: tol * sp.Eps}, nil
}

// compare records one quiesced comparison point: the estimate against the
// exact f(x̄) of the vectors the nodes hold.
func (rep *Report) compare(f *core.Function, r int, est float64, vecs [][]float64) {
	avg := make([]float64, f.Dim())
	linalg.Mean(avg, vecs...)
	truth := f.Value(avg)
	e := math.Abs(est - truth)
	rep.Rounds = append(rep.Rounds, Round{Round: r, Estimate: est, Truth: truth, Err: e})
	if e > rep.MaxErr {
		rep.MaxErr = e
	}
	if e > rep.Bound+1e-9 {
		rep.Bad = append(rep.Bad, r)
	}
}

// Replay runs the spec and returns the per-round differential report. It
// fails on any transport or protocol error; guarantee violations are not
// errors — they are recorded in Report.Bad for the caller to judge.
func Replay(sp Spec) (*Report, error) {
	cfg, rep, err := sp.begin()
	if err != nil {
		return nil, err
	}
	coord, err := transport.ListenCoordinator("127.0.0.1:0", sp.F, sp.N, cfg, sp.Opts)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: listen: %w", sp.Name, err)
	}
	defer coord.Close()

	// The oracle's copy of every node's vector — the ground truth the
	// protocol never sees in aggregate.
	vecs := make([][]float64, sp.N)
	nodes := make([]*transport.NodeClient, sp.N)
	defer func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Close()
			}
		}
	}()
	for i := 0; i < sp.N; i++ {
		vecs[i] = linalg.Clone(sp.Gen(0, i))
		nodes[i], err = transport.DialNode(coord.Addr(), i, sp.F, sp.Gen(0, i), sp.Opts)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: dial node %d: %w", sp.Name, i, err)
		}
	}
	select {
	case <-coord.Ready():
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("oracle: %s: coordinator never became ready", sp.Name)
	}
	for i, nd := range nodes {
		if err := nd.WaitReady(30 * time.Second); err != nil {
			return nil, fmt.Errorf("oracle: %s: node %d ready: %w", sp.Name, i, err)
		}
	}

	for r := 1; r <= sp.Rounds; r++ {
		for i, nd := range nodes {
			x := sp.Gen(r, i)
			if err := nd.Update(x); err != nil {
				return nil, fmt.Errorf("oracle: %s: round %d node %d: %w", sp.Name, r, i, err)
			}
			copy(vecs[i], x)
		}
		quiesce(coord, nodes)
		if err := coord.Err(); err != nil {
			return nil, fmt.Errorf("oracle: %s: round %d: coordinator: %w", sp.Name, r, err)
		}
		rep.compare(sp.F, r, coord.Estimate(), vecs)
	}
	rep.Stats = coord.CoordStats()
	for _, nd := range nodes {
		rep.RefusedSyncs += int(nd.RejectedSyncs())
	}
	return rep, nil
}

// quiesce waits until no message is in flight anywhere in the cluster, so
// the next comparison sees a settled protocol state outside any sync window.
func quiesce(coord *transport.Coordinator, nodes []*transport.NodeClient) {
	stable, last := 0, int64(-1)
	for stable < 3 {
		time.Sleep(10 * time.Millisecond)
		cur := coord.Stats.MessagesSent.Load() + coord.Stats.MessagesReceived.Load()
		for _, nd := range nodes {
			cur += nd.Stats.MessagesSent.Load() + nd.Stats.MessagesReceived.Load()
		}
		if cur == last {
			stable++
		} else {
			stable = 0
		}
		last = cur
	}
}
