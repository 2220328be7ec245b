package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"automon/internal/linalg"
)

// MsgType tags the wire format of protocol messages.
type MsgType uint8

// Protocol message types. Data requests/responses implement the
// coordinator's "pull"; violations flow node→coordinator; sync and slack
// messages flow coordinator→node.
const (
	MsgViolation MsgType = iota + 1
	MsgDataRequest
	MsgDataResponse
	MsgSync
	MsgSlack
	MsgRejoin
	// MsgPartial and MsgSubtreeRejoin are the shard-tier messages of the
	// hierarchical coordinator (internal/shard): partial aggregates flow
	// shard→parent, and a healed partition re-registers a whole sub-tree.
	MsgPartial
	MsgSubtreeRejoin
)

func (t MsgType) String() string {
	switch t {
	case MsgViolation:
		return "violation"
	case MsgDataRequest:
		return "data-request"
	case MsgDataResponse:
		return "data-response"
	case MsgSync:
		return "sync"
	case MsgSlack:
		return "slack"
	case MsgRejoin:
		return "rejoin"
	case MsgPartial:
		return "partial"
	case MsgSubtreeRejoin:
		return "subtree-rejoin"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// ViolationKind classifies node-side constraint violations (§3.5, §3.7).
type ViolationKind uint8

const (
	// ViolationNeighborhood: the slacked local vector left B.
	ViolationNeighborhood ViolationKind = iota + 1
	// ViolationSafeZone: the slacked local vector left the ADCD safe zone.
	ViolationSafeZone
	// ViolationFaulty: the vector is inside the safe zone but outside the
	// admissible region — the §3.7 sanity check detected that the
	// numerically-derived constraints are not a true DC decomposition.
	ViolationFaulty
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationNeighborhood:
		return "neighborhood"
	case ViolationSafeZone:
		return "safe-zone"
	case ViolationFaulty:
		return "faulty-constraint"
	}
	return fmt.Sprintf("violation(%d)", uint8(k))
}

// Violation is reported by a node whose local constraints no longer hold.
// It carries the node's fresh raw local vector so the coordinator does not
// need a separate data request for the violator.
type Violation struct {
	NodeID int
	Kind   ViolationKind
	X      []float64
}

// DataRequest asks a node for its current local vector.
type DataRequest struct {
	NodeID int
}

// DataResponse returns a node's current local vector.
type DataResponse struct {
	NodeID int
	X      []float64
}

// Sync distributes a new safe zone (and this node's slack vector) after a
// full sync. For ADCD-E the H⁻/H⁺ part is constant and only shipped, as its
// eigenpairs, when WithMatrix is set (the first sync); later syncs reuse the
// node's copy.
type Sync struct {
	NodeID     int
	Method     Method
	Kind       DCKind
	X0         []float64
	F0         float64
	GradF0     []float64
	L, U       float64
	Lam        float64 // ADCD-X curvature bound
	R          float64 // ADCD-X neighborhood radius (box rebuilt node-side)
	Slack      []float64
	WithMatrix bool
	Matrix     *linalg.EigFactor // H⁻ (convex kind) or H⁺ (concave kind)

	// Zone carries a hand-crafted (MethodCustom) safe zone to in-process
	// nodes. It is never serialized: Encode ignores it and the field is nil
	// after Decode. Byte accounting for custom zones therefore reflects only
	// the shared parameters, which is the correct comparison for the CB
	// baseline (its nodes rebuild the zone from x0 and the thresholds).
	Zone *SafeZone
}

// ForNode builds node id's message from a full sync's template: the node's
// own copies of the shared vectors and of its slack, the zone's ADCD-E
// eigen-factor when withFactor asks for it (the first sync to that node),
// and the in-memory zone itself for hand-crafted methods.
func (tmpl *Sync) ForNode(id int, slack []float64, zone *SafeZone, withFactor bool) *Sync {
	msg := *tmpl
	msg.NodeID = id
	msg.X0 = linalg.Clone(tmpl.X0)
	msg.GradF0 = linalg.Clone(tmpl.GradF0)
	msg.Slack = linalg.Clone(slack)
	if withFactor {
		msg.WithMatrix, msg.Matrix = true, zone.H
	}
	if tmpl.Method == MethodCustom {
		msg.Zone = zone
	}
	return &msg
}

// Slack rebalances a node's slack vector during lazy sync, leaving the safe
// zone untouched.
type Slack struct {
	NodeID int
	Slack  []float64
}

// Rejoin re-registers a node after a connection loss. It carries the node's
// fresh raw local vector; the coordinator answers with a full sync so the
// returning node gets a consistent zone and slack assignment.
type Rejoin struct {
	NodeID int
	X      []float64
}

// Message is the common interface of protocol messages; Encode produces the
// exact payload bytes, which the evaluation uses for bandwidth accounting
// and the transport layer for real delivery.
type Message interface {
	Type() MsgType
	Encode() []byte
}

// Type implements Message.
func (*Violation) Type() MsgType { return MsgViolation }

// Type implements Message.
func (*DataRequest) Type() MsgType { return MsgDataRequest }

// Type implements Message.
func (*DataResponse) Type() MsgType { return MsgDataResponse }

// Type implements Message.
func (*Sync) Type() MsgType { return MsgSync }

// Type implements Message.
func (*Slack) Type() MsgType { return MsgSlack }

// Type implements Message.
func (*Rejoin) Type() MsgType { return MsgRejoin }

type encoder struct{ buf []byte }

// newEncoder presizes the buffer to the message's known encoded length, so
// the appends below never reallocate.
func newEncoder(size int) *encoder { return &encoder{buf: make([]byte, 0, size)} }

// vecSize is the encoded length of a vector: length prefix plus floats.
func vecSize(v []float64) int { return 4 + 8*len(v) }

// encodeIDVec is the shared layout of the messages that carry one vector
// for one node: type, node ID, vector.
func encodeIDVec(t MsgType, id int, v []float64) []byte {
	e := newEncoder(3 + vecSize(v))
	e.u8(uint8(t))
	e.u16(uint16(id))
	e.vec(v)
	return e.buf
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) floats(v []float64) {
	for _, x := range v {
		e.f64(x)
	}
}
func (e *encoder) vec(v []float64) {
	e.u32(uint32(len(v)))
	e.floats(v)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil || len(d.buf) < 2 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) f64() float64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) vec() []float64 {
	n := d.u32()
	// 64-bit comparison: 8*n must not wrap around uint32, or a hostile
	// length prefix could pass the check and force a huge allocation.
	if d.err != nil || uint64(len(d.buf)) < 8*uint64(n) {
		d.fail()
		return nil
	}
	return d.floats(make([]float64, n))
}

func (d *decoder) floats(v []float64) []float64 {
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errors.New("core: truncated message")
	}
}

// Encode implements Message.
func (m *Violation) Encode() []byte {
	e := newEncoder(4 + vecSize(m.X))
	e.u8(uint8(MsgViolation))
	e.u16(uint16(m.NodeID))
	e.u8(uint8(m.Kind))
	e.vec(m.X)
	return e.buf
}

// Encode implements Message.
func (m *DataRequest) Encode() []byte {
	e := newEncoder(3)
	e.u8(uint8(MsgDataRequest))
	e.u16(uint16(m.NodeID))
	return e.buf
}

// Encode implements Message.
func (m *DataResponse) Encode() []byte { return encodeIDVec(MsgDataResponse, m.NodeID, m.X) }

// Encode implements Message.
func (m *Sync) Encode() []byte {
	size := 46 + vecSize(m.X0) + vecSize(m.GradF0) + vecSize(m.Slack)
	withMatrix := m.WithMatrix && m.Matrix != nil
	if withMatrix {
		size += 8 + 8*(len(m.Matrix.Lam)+len(m.Matrix.V.Data))
	}
	e := newEncoder(size)
	e.u8(uint8(MsgSync))
	e.u16(uint16(m.NodeID))
	e.u8(uint8(m.Method))
	e.u8(uint8(m.Kind))
	e.vec(m.X0)
	e.f64(m.F0)
	e.vec(m.GradF0)
	e.f64(m.L)
	e.f64(m.U)
	e.f64(m.Lam)
	e.f64(m.R)
	e.vec(m.Slack)
	if withMatrix {
		// The factor as k, d, λ[k], V[k·d]: k·(d+1) floats, none at rank 0.
		e.u8(1)
		e.u32(uint32(len(m.Matrix.Lam)))
		e.u32(uint32(m.Matrix.V.Cols))
		e.floats(m.Matrix.Lam)
		e.floats(m.Matrix.V.Data)
	} else {
		e.u8(0)
	}
	return e.buf
}

// Encode implements Message.
func (m *Slack) Encode() []byte { return encodeIDVec(MsgSlack, m.NodeID, m.Slack) }

// Encode implements Message.
func (m *Rejoin) Encode() []byte { return encodeIDVec(MsgRejoin, m.NodeID, m.X) }

// Decode parses one encoded message.
func Decode(buf []byte) (Message, error) {
	d := &decoder{buf: buf}
	t := MsgType(d.u8())
	switch t {
	case MsgViolation:
		m := &Violation{NodeID: int(d.u16()), Kind: ViolationKind(d.u8()), X: d.vec()}
		return m, d.err
	case MsgDataRequest:
		m := &DataRequest{NodeID: int(d.u16())}
		return m, d.err
	case MsgDataResponse:
		m := &DataResponse{NodeID: int(d.u16()), X: d.vec()}
		return m, d.err
	case MsgSync:
		m := &Sync{NodeID: int(d.u16())}
		m.Method = Method(d.u8())
		m.Kind = DCKind(d.u8())
		m.X0 = d.vec()
		m.F0 = d.f64()
		m.GradF0 = d.vec()
		m.L = d.f64()
		m.U = d.f64()
		m.Lam = d.f64()
		m.R = d.f64()
		m.Slack = d.vec()
		if d.u8() == 1 {
			k, n := uint64(d.u32()), uint64(d.u32())
			// A rank above the dimension or a dimension other than X0's is
			// malformed, and the k·(n+1) floats must actually be present:
			// guards against hostile prefixes forcing a huge allocation.
			if d.err != nil || k > n || n != uint64(len(m.X0)) || uint64(len(d.buf))/8 < k*(n+1) {
				d.fail()
				return nil, d.err
			}
			m.WithMatrix = true
			m.Matrix = &linalg.EigFactor{Lam: d.floats(make([]float64, k)), V: linalg.NewMat(int(k), int(n))}
			d.floats(m.Matrix.V.Data)
		}
		return m, d.err
	case MsgSlack:
		m := &Slack{NodeID: int(d.u16()), Slack: d.vec()}
		return m, d.err
	case MsgRejoin:
		m := &Rejoin{NodeID: int(d.u16()), X: d.vec()}
		return m, d.err
	case MsgPartial:
		return decodePartial(d)
	case MsgSubtreeRejoin:
		return decodeSubtreeRejoin(d)
	}
	return nil, fmt.Errorf("core: unknown message type %d", uint8(t))
}
