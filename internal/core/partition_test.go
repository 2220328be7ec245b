package core

import (
	"reflect"
	"testing"
)

// TestLocalViewDistributesCheckableSyncs drives a machine over the local-ID
// view of a leaf partition [2, 4) — the absorb machine's data plane — through
// full syncs of its own. Fresh nodes must accept what it distributes: the
// first ADCD-E sync carries the factor, delivery is recorded in the table the
// global view shares, and a hand-crafted zone rides along. (The former
// leafLocalOwner hand-built a Sync with none of the three.)
func TestLocalViewDistributesCheckableSyncs(t *testing.T) {
	f := saddleFunc() // constant Hessian ⇒ ADCD-E
	newLeaf := func(cfg Config) (*Fabric, *Partition, *Machine) {
		nodes := make([]*Node, 4)
		for i := range nodes {
			nodes[i] = NewNode(i, f)
			nodes[i].SetData([]float64{0.1 * float64(i), 0.5})
		}
		fab := &Fabric{Nodes: nodes}
		part := NewPartition(f.Dim(), 2, 4, fab)
		local := part.Local()
		m := NewMachine(f, 2, cfg, local)
		local.Bind(m)
		return fab, &part, m
	}

	t.Run("adcd-e factor", func(t *testing.T) {
		fab, part, m := newLeaf(Config{Epsilon: 0.1})
		var syncs []*Sync
		fab.OnMessage = func(msg Message) {
			if s, ok := msg.(*Sync); ok {
				syncs = append(syncs, s)
			}
		}
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
		if err := m.Resync(); err != nil {
			t.Fatal(err)
		}
		if fab.RefusedSyncs != 0 {
			t.Fatalf("%d syncs refused", fab.RefusedSyncs)
		}
		if len(syncs) != 4 {
			t.Fatalf("%d syncs sent, want 2 per full sync", len(syncs))
		}
		for k, s := range syncs {
			if want := 2 + k%2; s.NodeID != want {
				t.Errorf("sync %d addressed to node %d, want global id %d", k, s.NodeID, want)
			}
			if first := k < 2; s.WithMatrix != first {
				t.Errorf("sync %d: WithMatrix = %v, want the factor on the first sync only", k, s.WithMatrix)
			}
		}
		for i, nd := range fab.Nodes {
			if got, want := nd.Zone() != nil, i >= 2; got != want {
				t.Errorf("node %d has a zone: %v, want %v", i, got, want)
			}
		}
		if !part.matrixSent[0] || !part.matrixSent[1] {
			t.Errorf("factor delivery not recorded in the shared table: %v", part.matrixSent)
		}
		m.MarkDead(1)
		if part.matrixSent[1] {
			t.Error("a death seen through the local view did not clear the shared delivery flag")
		}
	})

	t.Run("custom zone", func(t *testing.T) {
		var built *SafeZone
		fab, _, m := newLeaf(Config{Epsilon: 0.1, ZoneBuilder: func(f *Function, x0 []float64, l, u float64) *SafeZone {
			built = BuildZoneNone(f, x0, l, u)
			built.Method = MethodCustom
			return built
		}})
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
		if fab.RefusedSyncs != 0 {
			t.Fatalf("%d syncs refused", fab.RefusedSyncs)
		}
		for _, id := range []int{2, 3} {
			if z := fab.Nodes[id].Zone(); z == nil || !reflect.DeepEqual(*z, *built) {
				t.Errorf("node %d did not receive the hand-crafted zone", id)
			}
		}
	})
}
