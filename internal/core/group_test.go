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

// TestNodeRefusesWrongLengthSlack: a Slack shorter or longer than the
// node's dimension is refused and changes nothing; the fabric counts the
// refusal. A partial copy would leave the node's slack out of its
// partition's zero sum, voiding ε without a trace.
// TestApplySyncRefusesUncheckableSyncs covers a Sync's slack.
func TestNodeRefusesWrongLengthSlack(t *testing.T) {
	f := saddleFunc()
	fab := &Fabric{Nodes: []*Node{NewNode(0, f)}}
	node := fab.Nodes[0]
	fab.SendSync(0, &Sync{Method: MethodX, X0: make([]float64, 2), GradF0: make([]float64, 2), Slack: []float64{1, -1}, R: 1})
	for _, slack := range [][]float64{{5}, {5, 6, 7}} {
		fab.SendSlack(0, &Slack{Slack: slack})
		if node.slack[0] != 1 || node.slack[1] != -1 {
			t.Fatalf("a refused slack of %d entries changed the node's slack to %v", len(slack), node.slack)
		}
	}
	if fab.RefusedSyncs != 2 {
		t.Fatalf("RefusedSyncs = %d after a short and a long slack, want 2", fab.RefusedSyncs)
	}
	if !node.ApplySlack(&Slack{Slack: []float64{2, -2}}) || node.slack[0] != 2 || node.slack[1] != -2 {
		t.Fatalf("a well-formed slack was refused or not installed: %v", node.slack)
	}
}
