package automon

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// memComm is an in-memory NodeComm for the public-API round-trip test. It
// exercises the documented byte-level node interface: every coordinator-side
// call is turned into encoded messages and fed through HandleNodeMessage.
type memComm struct {
	t     *testing.T
	nodes []*Node
}

func (c *memComm) RequestData(id int) []float64 {
	req := &DataRequest{NodeID: id}
	reply, err := HandleNodeMessage(c.nodes[id], req.Encode())
	if err != nil {
		c.t.Fatal(err)
	}
	m, err := Decode(reply)
	if err != nil {
		c.t.Fatal(err)
	}
	return m.(*DataResponse).X
}

func (c *memComm) SendSync(id int, m *Sync) {
	if _, err := HandleNodeMessage(c.nodes[id], m.Encode()); err != nil {
		c.t.Fatal(err)
	}
}

func (c *memComm) SendSlack(id int, m *Slack) {
	if _, err := HandleNodeMessage(c.nodes[id], m.Encode()); err != nil {
		c.t.Fatal(err)
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	// The README quickstart, condensed: monitor ‖x̄‖² over three nodes.
	f := NewFunction("norm2", 2, func(b *Builder, x []Ref) Ref {
		return b.Add(b.Square(x[0]), b.Square(x[1]))
	})
	const n = 3
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{0.5, 0.5})
	}
	comm := &memComm{t: t, nodes: nodes}
	const eps = 0.1
	coord := NewCoordinator(f, n, Config{Epsilon: eps}, comm)
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	if got := coord.Estimate(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("initial estimate = %v, want 0.5", got)
	}

	// Drift all nodes; every violation goes through the byte codec.
	for step := 1; step <= 40; step++ {
		for i := range nodes {
			v := 0.5 + 0.02*float64(step)
			viol := nodes[i].UpdateData([]float64{v, v})
			if viol == nil {
				continue
			}
			decoded, err := Decode(viol.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.HandleViolation(decoded.(*Violation)); err != nil {
				t.Fatal(err)
			}
		}
		truth := 2 * (0.5 + 0.02*float64(step)) * (0.5 + 0.02*float64(step))
		if err := math.Abs(coord.Estimate() - truth); err > eps+1e-9 {
			t.Fatalf("step %d: estimate error %v above ε", step, err)
		}
	}
	// ‖·‖² is convex with constant Hessian: ADCD-E must have been chosen.
	if coord.Method().String() != "ADCD-E" {
		t.Fatalf("method = %v, want ADCD-E", coord.Method())
	}
}

func TestHandleNodeMessageRejectsViolation(t *testing.T) {
	f := NewFunction("id", 1, func(b *Builder, x []Ref) Ref { return x[0] })
	node := NewNode(0, f)
	raw := (&Violation{NodeID: 0, Kind: 2, X: []float64{1}}).Encode()
	if _, err := HandleNodeMessage(node, raw); err == nil {
		t.Fatal("violations must be rejected node-side")
	}
	if _, err := HandleNodeMessage(node, []byte{0xFF}); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

// TestHandleNodeMessageReportsRefusedSync: a well-formed Sync whose vectors
// do not fit the node's function is refused by the node, and the refusal must
// reach the application instead of vanishing.
func TestHandleNodeMessageReportsRefusedSync(t *testing.T) {
	f := NewFunction("norm2", 2, func(b *Builder, x []Ref) Ref {
		return b.Add(b.Square(x[0]), b.Square(x[1]))
	})
	node := NewNode(0, f)
	bad := &Sync{NodeID: 0, X0: make([]float64, 3), GradF0: make([]float64, 3), Slack: make([]float64, 3), L: -1, U: 1}
	if _, err := HandleNodeMessage(node, bad.Encode()); !errors.Is(err, ErrSyncRefused) {
		t.Fatalf("sync with len(X0) = 3 on a 2-dimensional node: err = %v, want ErrSyncRefused", err)
	}
	if node.Zone() != nil {
		t.Fatal("the refused sync installed a zone")
	}
	good := &Sync{NodeID: 0, X0: make([]float64, 2), GradF0: make([]float64, 2), Slack: make([]float64, 2), L: -1, U: 1}
	if _, err := HandleNodeMessage(node, good.Encode()); err != nil {
		t.Fatalf("well-formed sync: %v", err)
	}
}

// TestHandleNodeMessageReportsRefusedSlack: a Slack, or a Sync carrying a
// slack, whose length is not the node's dimension is refused, and the refusal
// reaches the application as ErrSyncRefused instead of overwriting part of
// the node's slack.
func TestHandleNodeMessageReportsRefusedSlack(t *testing.T) {
	f := NewFunction("norm2", 2, func(b *Builder, x []Ref) Ref {
		return b.Add(b.Square(x[0]), b.Square(x[1]))
	})
	node := NewNode(0, f)
	good := &Sync{NodeID: 0, X0: make([]float64, 2), GradF0: make([]float64, 2), Slack: make([]float64, 2), L: -1, U: 1}
	if _, err := HandleNodeMessage(node, good.Encode()); err != nil {
		t.Fatalf("well-formed sync: %v", err)
	}
	zone := *node.Zone() // the node rewrites its zone in place: keep a copy
	if _, err := HandleNodeMessage(node, (&Slack{NodeID: 0, Slack: []float64{1}}).Encode()); !errors.Is(err, ErrSyncRefused) {
		t.Fatalf("1-entry slack on a 2-dimensional node: err = %v, want ErrSyncRefused", err)
	}
	short := *good
	short.X0, short.Slack = []float64{1, 1}, []float64{1}
	if _, err := HandleNodeMessage(node, short.Encode()); !errors.Is(err, ErrSyncRefused) {
		t.Fatalf("sync with a 1-entry slack on a 2-dimensional node: err = %v, want ErrSyncRefused", err)
	}
	if !reflect.DeepEqual(*node.Zone(), zone) {
		t.Fatal("the refused sync replaced the zone")
	}
	if _, err := HandleNodeMessage(node, (&Slack{NodeID: 0, Slack: []float64{1, -1}}).Encode()); err != nil {
		t.Fatalf("well-formed slack: %v", err)
	}
}
