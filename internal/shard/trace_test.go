package shard_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/shard"
)

// traced is one message as the fabric carried it.
type traced struct {
	Type core.MsgType
	Node int
	Len  int
}

// topology is what the flat coordinator and the shard tree share beyond
// core.Monitor: the fault-handling surface the trace run exercises.
type topology interface {
	core.Monitor
	MarkDead(id int)
	HandleRejoin(ids []int, xs [][]float64) error
	Resync() error
}

// slackTolerance bounds |Σ slack over the live set|, per dimension, summed
// exactly (linalg.Acc) over the slack vectors the nodes were last sent. It is
// not zero because each delivered entry is one rounded subtraction x0 − xᵢ
// (or mean − xⱼ) of O(1) values around a reference point that itself carries
// a few units of roundoff: at most about 4u·n·max|x| ≈ 2·10⁻¹³ per full sync
// for n = 128, u = 2⁻⁵³, and every lazy sync since then adds its balancing
// set's share on top. 10⁻¹¹ leaves room for some fifty resolutions' worth
// (the largest sum these streams reach is 8·10⁻¹⁴); a lost or doubled slack
// would show at the 10⁻² scale of the data.
const slackTolerance = 1e-11

// runTraced streams a fixed drift through one topology and returns the
// fabric's message trace. After every step it asserts Σ slack = 0 over the
// live set, partition by partition in node order (a single partition for the
// flat coordinator and the 1-leaf tree; across a multi-leaf routing tree the
// root balances slack between leaves, so only the union sums to zero).
func runTraced(t *testing.T, f *core.Function, cfg core.Config, n, rounds int, build func(g *core.Group) (topology, error)) []traced {
	t.Helper()
	d := f.Dim()
	rng := rand.New(rand.NewSource(11))
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := range xs[i] {
			xs[i][j] = 0.4 + 0.05*rng.NormFloat64()
		}
	}
	g := core.NewGroup(f, xs)

	var trace []traced
	slack := make([][]float64, n) // what each node was last sent
	g.OnMessage = func(m core.Message) {
		e := traced{Type: m.Type(), Len: len(m.Encode())}
		switch msg := m.(type) {
		case *core.Violation:
			e.Node = msg.NodeID
		case *core.DataRequest:
			e.Node = msg.NodeID
		case *core.DataResponse:
			e.Node = msg.NodeID
		case *core.Sync:
			e.Node = msg.NodeID
			slack[msg.NodeID] = linalg.Clone(msg.Slack)
		case *core.Slack:
			e.Node = msg.NodeID
			slack[msg.NodeID] = linalg.Clone(msg.Slack)
		default:
			t.Fatalf("fabric carried an unexpected %T", m)
		}
		trace = append(trace, e)
	}
	top, err := build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(top); err != nil {
		t.Fatal(err)
	}

	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	accs := make([]linalg.Acc, d)
	checkSlack := func(when string) {
		t.Helper()
		for j := range accs {
			accs[j].Reset()
		}
		for i := range slack {
			if live[i] {
				linalg.AddVec(accs, slack[i])
			}
		}
		for j := range accs {
			if s := accs[j].Round(); math.Abs(s) > slackTolerance {
				t.Fatalf("%s: Σ slack over the live set = %g in dimension %d, want |·| ≤ %g", when, s, j, slackTolerance)
			}
		}
	}
	checkSlack("after init")

	const victim = 5
	for r := 0; r < rounds; r++ {
		switch r {
		case rounds / 3:
			// The fabric loses a node: it leaves the live set, and the resync
			// that follows re-establishes the invariant over the survivors.
			top.MarkDead(victim)
			live[victim] = false
			if err := top.Resync(); err != nil {
				t.Fatal(err)
			}
			checkSlack("after the death")
		case 2 * rounds / 3:
			live[victim] = true
			if err := top.HandleRejoin([]int{victim}, [][]float64{xs[victim]}); err != nil {
				t.Fatal(err)
			}
			checkSlack("after the rejoin")
		}
		for i := range xs {
			for j := range xs[i] {
				xs[i][j] += 0.012 + 0.01*rng.NormFloat64()
			}
			if !live[i] {
				continue // partitioned away: its updates never reach the wire
			}
			if err := g.Step(i, xs[i]); err != nil {
				t.Fatal(err)
			}
			checkSlack(fmt.Sprintf("round %d node %d", r, i))
		}
	}
	if g.RefusedSyncs != 0 {
		t.Fatalf("%d syncs refused", g.RefusedSyncs)
	}
	st := top.Stats()
	if st.LazyResolved == 0 || st.LazyAttempts == st.LazyResolved || st.NodeDeaths != 1 || st.Rejoins != 1 {
		t.Fatalf("stream did not exercise the protocol: %+v", st)
	}
	return trace
}

// TestFabricTraceIdenticalAcrossTopologies: the flat coordinator, a 1-leaf
// tree and a 64-leaf tree are one Machine over one Partition type cut
// differently, so the fabric must carry the very same messages — type, node,
// encoded length, order — under each, through a death and a rejoin.
func TestFabricTraceIdenticalAcrossTopologies(t *testing.T) {
	const n, rounds = 128, 12
	tree := func(f *core.Function, cfg core.Config, shards int) func(g *core.Group) (topology, error) {
		return func(g *core.Group) (topology, error) {
			return shard.NewTree(f, n, cfg, g, shard.Options{Shards: shards})
		}
	}
	for _, tc := range []struct {
		name string
		f    *core.Function
		cfg  core.Config
	}{
		// ADCD-E: the first sync to each node (and to the rejoined one)
		// carries the factor, so encoded lengths differ within the trace.
		{"sqnorm-adcd-e", funcs.SqNorm(3), core.Config{Epsilon: 0.05}},
		{"rosenbrock-adcd-x", funcs.Rosenbrock(), core.Config{Epsilon: 0.15, R: 0.5, Decomp: core.DecompOptions{Seed: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flat := runTraced(t, tc.f, tc.cfg, n, rounds, func(g *core.Group) (topology, error) {
				return core.NewCoordinator(tc.f, n, tc.cfg, g), nil
			})
			for _, shards := range []int{1, 64} {
				got := runTraced(t, tc.f, tc.cfg, n, rounds, tree(tc.f, tc.cfg, shards))
				if !reflect.DeepEqual(got, flat) {
					t.Fatalf("%d-leaf tree: fabric trace differs from flat (%d vs %d messages)", shards, len(got), len(flat))
				}
			}
		})
	}
}
