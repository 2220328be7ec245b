package core

import "testing"

// TestFabricCountsRefusedSyncs: a sync the node cannot check must not vanish
// in the in-process fabric.
func TestFabricCountsRefusedSyncs(t *testing.T) {
	f := saddleFunc()
	fab := &Fabric{Nodes: []*Node{NewNode(0, f)}}
	fab.SendSync(0, &Sync{X0: make([]float64, 3), GradF0: make([]float64, 3), Slack: make([]float64, 3)})
	if fab.RefusedSyncs != 1 || fab.Nodes[0].Zone() != nil {
		t.Fatalf("RefusedSyncs = %d, zone installed = %v; want 1 and false", fab.RefusedSyncs, fab.Nodes[0].Zone() != nil)
	}
	fab.SendSync(0, &Sync{Method: MethodX, X0: make([]float64, 2), GradF0: make([]float64, 2), Slack: make([]float64, 2), R: 1})
	if fab.RefusedSyncs != 1 || fab.Nodes[0].Zone() == nil {
		t.Fatalf("a well-formed sync was refused (RefusedSyncs = %d)", fab.RefusedSyncs)
	}
}
