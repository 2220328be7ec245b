package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

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

// Check reports why a coordinator of a dim-dimensional function cannot act on
// v: a kind outside the three above, or a vector of another dimension. The
// decoder accepts both, so whatever takes violations off a wire checks them.
func (v *Violation) Check(dim int) error {
	if v.Kind < ViolationNeighborhood || v.Kind > ViolationFaulty {
		return fmt.Errorf("core: unknown violation kind %v", v.Kind)
	}
	if len(v.X) != dim {
		return fmt.Errorf("core: violation from node %d carries %d values for a %d-dimensional function", v.NodeID, len(v.X), dim)
	}
	return nil
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
//
// X0 and GradF0 are read-only. A full sync sends every node the zone's own
// two vectors, and Node.ApplySync installs them without a copy, so in
// process every node of one sync shares them with the coordinator's zone.
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

// ForNode builds node id's message from a full sync's template: the
// template's read-only X0 and GradF0, the node's own copy of its slack, the
// zone's ADCD-E eigen-factor when withFactor asks for it (the first sync to
// that node), and the in-memory zone itself for hand-crafted methods. Each
// node gets a message of its own, so a fabric may keep one.
func (tmpl *Sync) ForNode(id int, slack []float64, zone *SafeZone, withFactor bool) *Sync {
	msg := *tmpl
	msg.NodeID = id
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
// zone untouched. The coordinator lends it for one SendSlack (see NodeComm).
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

// Message is the common interface of protocol messages. AppendBinary
// appends the exact payload bytes to a caller's buffer: the transport
// encodes into its frame in place, and the simulators count bytes into a
// reused scratch. Encode returns the same bytes in a buffer of their own.
type Message interface {
	Type() MsgType
	Encode() []byte
	AppendBinary(buf []byte) []byte
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

// encoder appends to a caller's buffer; one lives on the stack of each
// AppendBinary.
type encoder struct{ buf []byte }

// appendTo starts an encoding of size bytes at the end of buf, growing buf
// once up front: float by float, append would double it up to twice the
// message, and a reused buffer keeps what it grew to.
func appendTo(buf []byte, size int) encoder { return encoder{buf: slices.Grow(buf, size)} }

// vecSize is the encoded length of a vector: length prefix plus floats.
func vecSize(v []float64) int { return 4 + 8*len(v) }

// appendIDVec is the shared layout of the messages that carry one vector
// for one node: type, node ID, vector.
func appendIDVec(buf []byte, t MsgType, id int, v []float64) []byte {
	e := appendTo(buf, 3+vecSize(v))
	e.u8(uint8(t))
	e.u16(uint16(id))
	e.vec(v)
	return e.buf
}

// decodeIDVec is appendIDVec's inverse; t is the type the caller expects.
func decodeIDVec(buf []byte, t MsgType) (int, []float64, error) {
	d := decoder{buf: buf}
	d.expect(t)
	id := int(d.u16())
	v := d.vec()
	return id, v, d.done()
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

// expect reads the type byte and fails unless it is t.
func (d *decoder) expect(t MsgType) {
	if got := MsgType(d.u8()); d.err == nil && got != t {
		d.err = fmt.Errorf("core: %v message where %v was expected", got, t)
	}
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errors.New("core: truncated message")
	}
}

// done ends every decode: it returns the first error, or an error when
// bytes remain after the message's last field. A message has exactly one
// encoding, so bytes the decoder never read are a corrupt or forged frame.
func (d *decoder) done() error {
	if d.err == nil && len(d.buf) > 0 {
		d.err = fmt.Errorf("core: %d bytes after the message's last field", len(d.buf))
	}
	return d.err
}

// Encode implements Message.
func (m *Violation) Encode() []byte { return m.AppendBinary(make([]byte, 0, m.size())) }

func (m *Violation) size() int { return 4 + vecSize(m.X) }

// AppendBinary implements Message.
func (m *Violation) AppendBinary(buf []byte) []byte {
	e := appendTo(buf, m.size())
	e.u8(uint8(MsgViolation))
	e.u16(uint16(m.NodeID))
	e.u8(uint8(m.Kind))
	e.vec(m.X)
	return e.buf
}

// UnmarshalBinary decodes an encoded Violation into m, overwriting every
// field; X is freshly allocated.
func (m *Violation) UnmarshalBinary(buf []byte) error {
	d := decoder{buf: buf}
	d.expect(MsgViolation)
	m.NodeID = int(d.u16())
	m.Kind = ViolationKind(d.u8())
	m.X = d.vec()
	return d.done()
}

// Encode implements Message.
func (m *DataRequest) Encode() []byte { return m.AppendBinary(make([]byte, 0, 3)) }

// AppendBinary implements Message.
func (m *DataRequest) AppendBinary(buf []byte) []byte {
	e := appendTo(buf, 3)
	e.u8(uint8(MsgDataRequest))
	e.u16(uint16(m.NodeID))
	return e.buf
}

// UnmarshalBinary decodes an encoded DataRequest into m.
func (m *DataRequest) UnmarshalBinary(buf []byte) error {
	d := decoder{buf: buf}
	d.expect(MsgDataRequest)
	m.NodeID = int(d.u16())
	return d.done()
}

// Encode implements Message.
func (m *DataResponse) Encode() []byte { return m.AppendBinary(make([]byte, 0, 3+vecSize(m.X))) }

// AppendBinary implements Message.
func (m *DataResponse) AppendBinary(buf []byte) []byte {
	return appendIDVec(buf, MsgDataResponse, m.NodeID, m.X)
}

// UnmarshalBinary decodes an encoded DataResponse into m; X is freshly
// allocated.
func (m *DataResponse) UnmarshalBinary(buf []byte) (err error) {
	m.NodeID, m.X, err = decodeIDVec(buf, MsgDataResponse)
	return err
}

// Encode implements Message.
func (m *Sync) Encode() []byte { return m.AppendBinary(make([]byte, 0, m.size())) }

func (m *Sync) size() int {
	size := 46 + vecSize(m.X0) + vecSize(m.GradF0) + vecSize(m.Slack)
	if m.WithMatrix && m.Matrix != nil {
		size += 8 + 8*(len(m.Matrix.Lam)+len(m.Matrix.V.Data))
	}
	return size
}

// AppendBinary implements Message.
func (m *Sync) AppendBinary(buf []byte) []byte {
	e := appendTo(buf, m.size())
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
	if m.WithMatrix && m.Matrix != nil {
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
func (m *Slack) Encode() []byte { return m.AppendBinary(make([]byte, 0, 3+vecSize(m.Slack))) }

// AppendBinary implements Message.
func (m *Slack) AppendBinary(buf []byte) []byte {
	return appendIDVec(buf, MsgSlack, m.NodeID, m.Slack)
}

// UnmarshalBinary decodes an encoded Slack into m; Slack is freshly
// allocated.
func (m *Slack) UnmarshalBinary(buf []byte) (err error) {
	m.NodeID, m.Slack, err = decodeIDVec(buf, MsgSlack)
	return err
}

// Encode implements Message.
func (m *Rejoin) Encode() []byte { return m.AppendBinary(make([]byte, 0, 3+vecSize(m.X))) }

// AppendBinary implements Message.
func (m *Rejoin) AppendBinary(buf []byte) []byte {
	return appendIDVec(buf, MsgRejoin, m.NodeID, m.X)
}

// Decode parses one encoded message into a struct of its own. The types
// with an UnmarshalBinary, which a reader may also decode into a reused
// struct, decode through it.
func Decode(buf []byte) (Message, error) {
	d := &decoder{buf: buf}
	t := MsgType(d.u8())
	var m interface {
		Message
		UnmarshalBinary([]byte) error
	}
	switch t {
	case MsgViolation:
		m = new(Violation)
	case MsgDataRequest:
		m = new(DataRequest)
	case MsgDataResponse:
		m = new(DataResponse)
	case MsgSlack:
		m = new(Slack)
	case MsgRejoin:
		m := &Rejoin{NodeID: int(d.u16()), X: d.vec()}
		return m, d.done()
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
		switch flag := d.u8(); {
		case d.err != nil || flag == 0:
		case flag != 1:
			return nil, fmt.Errorf("core: sync matrix flag %d is neither 0 nor 1", flag)
		default:
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
		return m, d.done()
	case MsgPartial:
		return decodePartial(d)
	case MsgSubtreeRejoin:
		return decodeSubtreeRejoin(d)
	default:
		return nil, fmt.Errorf("core: unknown message type %d", uint8(t))
	}
	return m, m.UnmarshalBinary(buf)
}
