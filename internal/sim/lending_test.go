package sim

import (
	"math"
	"reflect"
	"testing"

	"automon/internal/core"
)

// lender stands between a group and its coordinator and holds every message
// to the lending rule of core.NodeComm: it hands on copies in buffers of its
// own and poisons each with NaN as soon as its loan ends — a pulled vector at
// the next fabric call, a violation once HandleViolation returns, a Slack once
// SendSlack returns. A reader that kept any of them would read NaN.
type lender struct {
	core.Monitor
	g *core.Group

	pulls [2][]float64 // a pull fills one while the other stays poisoned
	turn  int
	viol  core.Violation
	slack core.Slack
}

func poison(x []float64) {
	for i := range x {
		x[i] = math.NaN()
	}
}

// expire ends the loan of the last pulled vector.
func (l *lender) expire() { poison(l.pulls[l.turn]) }

func (l *lender) RequestData(id int) []float64 {
	l.expire()
	x := l.g.RequestData(id)
	if x == nil {
		return nil
	}
	l.turn ^= 1
	l.pulls[l.turn] = append(l.pulls[l.turn][:0], x...)
	return l.pulls[l.turn]
}

func (l *lender) SendSync(id int, m *core.Sync) {
	l.expire()
	l.g.SendSync(id, m)
}

func (l *lender) SendSlack(id int, m *core.Slack) {
	l.expire()
	l.slack.NodeID = m.NodeID
	l.slack.Slack = append(l.slack.Slack[:0], m.Slack...)
	l.g.SendSlack(id, &l.slack)
	l.slack.NodeID = -1
	poison(l.slack.Slack)
}

func (l *lender) HandleViolation(v *core.Violation) error {
	l.expire()
	l.viol.NodeID, l.viol.Kind = v.NodeID, v.Kind
	l.viol.X = append(l.viol.X[:0], v.X...)
	err := l.Monitor.HandleViolation(&l.viol)
	l.viol.NodeID = -1
	poison(l.viol.X)
	return err
}

// TestLendingContractHolds replays the zoo through the flat coordinator, a
// routing tree and an absorbing tree, once over the group itself and once
// over a lender, and demands the same Result bit for bit: messages by type,
// payload bytes, estimates, errors and coordinator stats. Neither the machine
// nor a node may keep a message past its loan. The constant-Hessian cases
// carry the deterministic guarantee, so their ε oracle must stay green too.
func TestLendingContractHolds(t *testing.T) {
	lend := func(g *core.Group) (core.NodeComm, func(core.Monitor) core.Monitor) {
		l := &lender{g: g}
		return l, func(m core.Monitor) core.Monitor { l.Monitor = m; return l }
	}
	var lazy, full int // resolutions after the initial syncs, over the zoo
	for _, tc := range elideCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, topo := range []struct {
				shards int
				absorb bool
			}{{0, false}, {tc.cfg.Data.Nodes, false}, {tc.cfg.Data.Nodes, true}} {
				cfg := tc.cfg
				cfg.Trace = true
				cfg.Shards, cfg.ShardAbsorb = topo.shards, topo.absorb
				plain, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.lend = lend
				lent, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(*plain, *lent) {
					t.Errorf("%+v: a run over lent messages diverges\nplain %+v\nlent  %+v", topo, *plain, *lent)
				}
				lazy += lent.Stats.LazyResolved
				full += lent.Stats.FullSyncs - 1
				if cfg.F.HasConstantHessian() && lent.MaxErr > cfg.Core.Epsilon {
					t.Errorf("%+v: max error %v exceeds ε %v", topo, lent.MaxErr, cfg.Core.Epsilon)
				}
			}
		})
	}
	if lazy == 0 || full == 0 {
		t.Errorf("the zoo resolved %d violations lazily and %d by full sync; the loans went untested", lazy, full)
	}
}
