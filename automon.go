// Package automon is a Go implementation of AutoMon (Sivan, Gabel, Schuster;
// SIGMOD 2022): automatic, communication-efficient distributed monitoring of
// arbitrary multivariate functions over the average of dynamic local data
// vectors.
//
// Given the "source code" of a function f : R^d → R — a Program built from
// differentiable ops — and an approximation bound ε, AutoMon maintains an
// ε-approximation of f(x̄) over n distributed nodes while communicating only
// when local constraint violations make it necessary. The local constraints
// are derived automatically via automatic differentiation, numerical
// optimization and DC decompositions (ADCD-X for general functions, ADCD-E
// for constant-Hessian functions), and plugged into the geometric-monitoring
// protocol with slack vectors and LRU lazy sync.
//
// Like the paper's prototype, this library is an algorithmic building block,
// not a complete data-processing system: the application mediates between
// AutoMon and its messaging fabric. Nodes are driven by UpdateData and
// HandleNodeMessage; the coordinator pulls data and pushes constraints
// through the NodeComm interface the application implements (see
// internal/transport for a complete TCP reference implementation, and the
// examples/ directory for end-to-end programs).
//
// Minimal usage:
//
//	f := automon.NewFunction("norm2", 2, func(b *automon.Builder, x []automon.Ref) automon.Ref {
//		return b.Add(b.Square(x[0]), b.Square(x[1]))
//	})
//	coord := automon.NewCoordinator(f, n, automon.Config{Epsilon: 0.1}, comm)
//	node := automon.NewNode(0, f)
//	// on every local data change:
//	if v := node.UpdateData(x); v != nil {
//		sendToCoordinator(v.Encode())
//	}
//	// on every message from the coordinator:
//	reply, _ := automon.HandleNodeMessage(node, raw)
package automon

import (
	"errors"

	"automon/internal/autodiff"
	"automon/internal/core"
)

// Re-exported building blocks. These are aliases, so values flow freely
// between the public API and the internal packages.
type (
	// Builder constructs the computational graph of a monitored function.
	Builder = autodiff.Builder
	// Ref is a handle to a node in a function's computational graph.
	Ref = autodiff.Ref
	// Program is the "source code" of a monitored function.
	Program = autodiff.Program

	// Function is a compiled monitored function.
	Function = core.Function
	// Config configures a Coordinator (ε, error type, neighborhood size,
	// slack/lazy-sync switches, optimizer budget).
	Config = core.Config
	// Coordinator runs the AutoMon coordinator algorithm.
	Coordinator = core.Coordinator
	// Node runs the AutoMon node algorithm.
	Node = core.Node
	// NodeComm is the coordinator-side messaging hook the application
	// implements on top of its fabric.
	NodeComm = core.NodeComm
	// Message is an encodable protocol message.
	Message = core.Message
	// Violation reports a local constraint violation to the coordinator.
	Violation = core.Violation
	// Sync distributes a new safe zone to a node.
	Sync = core.Sync
	// Slack rebalances a node's slack vector.
	Slack = core.Slack
	// DataRequest asks a node for its local vector.
	DataRequest = core.DataRequest
	// DataResponse returns a node's local vector.
	DataResponse = core.DataResponse
	// Rejoin re-registers a node after a connection loss; the coordinator
	// answers with a full sync (see Coordinator.HandleRejoin).
	Rejoin = core.Rejoin
	// TuningData is a replayable prefix used by neighborhood-size tuning.
	TuningData = core.TuningData
	// TuneResult reports the outcome of neighborhood-size tuning.
	TuneResult = core.TuneResult
)

// Error types for Config.ErrorType.
const (
	// Additive approximation: L, U = f(x0) ∓ ε.
	Additive = core.Additive
	// Multiplicative approximation: L, U = (1 ∓ ε)·f(x0).
	Multiplicative = core.Multiplicative
)

// NewFunction compiles a Program into a monitored Function of dimension dim.
func NewFunction(name string, dim int, program Program) *Function {
	return core.NewFunction(name, dim, program)
}

// NewNode creates the node-side algorithm instance for function f. The node
// is silent until the coordinator's first Sync arrives.
func NewNode(id int, f *Function) *Node { return core.NewNode(id, f) }

// NewCoordinator creates the coordinator for n nodes over f, communicating
// through comm. Call Init once all nodes hold their initial vectors.
func NewCoordinator(f *Function, n int, cfg Config, comm NodeComm) *Coordinator {
	return core.NewCoordinator(f, n, cfg, comm)
}

// Decode parses one encoded protocol message.
func Decode(raw []byte) (Message, error) { return core.Decode(raw) }

// Tune runs the neighborhood-size tuning procedure (Algorithm 2 of the
// paper) on a replayable data prefix and returns the recommended size r̂ for
// Config.R.
func Tune(f *Function, data TuningData, n int, cfg Config) (TuneResult, error) {
	return core.Tune(f, data, n, cfg)
}

// ErrSyncRefused is returned by HandleNodeMessage when the node refuses a
// Sync it cannot check (vectors or an ADCD-E factor that do not fit its
// function, or an ADCD-E zone whose factor never arrived). The node keeps its
// previous zone while the coordinator believes the new one installed, so the
// application must not drop this error: re-register the node (Rejoin) to be
// sent a consistent zone.
var ErrSyncRefused = errors.New("automon: node refused a sync it cannot check")

// HandleNodeMessage applies one coordinator message to a node and returns
// the encoded reply to send back, if any (data requests produce a
// DataResponse; sync and slack messages produce no reply).
func HandleNodeMessage(n *Node, raw []byte) (reply []byte, err error) {
	m, err := core.Decode(raw)
	if err != nil {
		return nil, err
	}
	switch msg := m.(type) {
	case *core.DataRequest:
		resp := &core.DataResponse{NodeID: msg.NodeID, X: n.LocalVector()}
		return resp.Encode(), nil
	case *core.Sync:
		if !n.ApplySync(msg) {
			return nil, ErrSyncRefused
		}
		return nil, nil
	case *core.Slack:
		n.ApplySlack(msg)
		return nil, nil
	}
	return nil, errUnexpected(m)
}

type unexpectedError struct{ t core.MsgType }

func (e unexpectedError) Error() string {
	return "automon: unexpected message type for a node: " + e.t.String()
}

func errUnexpected(m Message) error { return unexpectedError{t: m.Type()} }
