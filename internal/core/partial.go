package core

import (
	"automon/internal/linalg"
)

// Partial is the partial-aggregate frame a sub-coordinator sends up a
// socket to its parent (transport.SubtreeUplink): the exact per-dimension
// sums (linalg.Acc) over its live partition plus the weight (live-node
// count) it folded in. Because the accumulators are exact, a parent that
// merges any number of them reproduces the flat coordinator's reference
// point bit-for-bit. The in-process shard tree builds no Partial: its leaves
// fold straight into the root machine's accumulators.
//
// Epoch tags the root full-sync generation the partial was computed against.
// A parent discards partials from a stale epoch: they describe a reference
// point that no longer exists (e.g. a sub-tree that missed a sync while
// partitioned away and answers an old collect after rejoining).
type Partial struct {
	ShardID int
	Kind    ViolationKind // carried and validated by the codec; senders set 0
	Epoch   uint64
	NodeID  int // -1 when Kind is 0
	Weight  int // live nodes folded into Accs
	Accs    []linalg.Acc
}

// SubtreeRejoin re-registers an entire sub-tree after a partition heals: the
// shard's global node IDs and their fresh vectors, in ascending ID order.
// The parent re-admits every node and runs one full sync over the healed
// population, exactly like a single-node Rejoin writ large.
type SubtreeRejoin struct {
	ShardID int
	IDs     []int
	Xs      [][]float64
}

// Type implements Message.
func (*Partial) Type() MsgType { return MsgPartial }

// Type implements Message.
func (*SubtreeRejoin) Type() MsgType { return MsgSubtreeRejoin }

// Encode implements Message.
func (m *Partial) Encode() []byte { return m.AppendBinary(nil) }

// AppendBinary implements Message.
func (m *Partial) AppendBinary(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u8(uint8(MsgPartial))
	e.u16(uint16(m.ShardID))
	e.u8(uint8(m.Kind))
	e.u64(m.Epoch)
	// NodeID is offset by one on the wire so the no-violator sentinel (-1)
	// stays in unsigned range.
	e.u32(uint32(m.NodeID + 1))
	e.u32(uint32(m.Weight))
	e.u32(uint32(len(m.Accs)))
	for i := range m.Accs {
		e.buf = m.Accs[i].AppendBinary(e.buf)
	}
	return e.buf
}

// Encode implements Message.
func (m *SubtreeRejoin) Encode() []byte { return m.AppendBinary(nil) }

// AppendBinary implements Message.
func (m *SubtreeRejoin) AppendBinary(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u8(uint8(MsgSubtreeRejoin))
	e.u16(uint16(m.ShardID))
	e.u32(uint32(len(m.IDs)))
	for i, id := range m.IDs {
		e.u32(uint32(id))
		e.vec(m.Xs[i])
	}
	return e.buf
}

// decodePartial parses a Partial body (after the type byte). Every length is
// validated against the remaining buffer before allocation, and each
// accumulator is decoded in place through linalg.Acc.Decode, which rejects
// out-of-range windows; hostile input fails cleanly instead of panicking or
// allocating unboundedly.
func decodePartial(d *decoder) (*Partial, error) {
	m := &Partial{ShardID: int(d.u16())}
	m.Kind = ViolationKind(d.u8())
	m.Epoch = d.u64()
	m.NodeID = int(int32(d.u32())) - 1
	m.Weight = int(int32(d.u32()))
	dims := d.u32()
	// Each accumulator occupies at least 1 byte on the wire; a dims prefix
	// larger than the remaining buffer is hostile.
	if d.err != nil || uint64(len(d.buf)) < uint64(dims) {
		d.fail()
		return nil, d.err
	}
	if m.Kind != 0 && m.Kind != ViolationNeighborhood && m.Kind != ViolationSafeZone && m.Kind != ViolationFaulty {
		d.fail()
		return nil, d.err
	}
	if m.Weight < 0 || (m.Kind != 0 && m.NodeID < 0) {
		d.fail()
		return nil, d.err
	}
	m.Accs = make([]linalg.Acc, dims)
	for i := range m.Accs {
		rest, err := m.Accs[i].Decode(d.buf)
		if err != nil {
			d.err = err
			return nil, d.err
		}
		d.buf = rest
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeSubtreeRejoin parses a SubtreeRejoin body (after the type byte).
func decodeSubtreeRejoin(d *decoder) (*SubtreeRejoin, error) {
	m := &SubtreeRejoin{ShardID: int(d.u16())}
	n := d.u32()
	// Each entry needs at least an ID word and a vector length word.
	if d.err != nil || uint64(len(d.buf)) < 8*uint64(n) {
		d.fail()
		return nil, d.err
	}
	m.IDs = make([]int, 0, n)
	m.Xs = make([][]float64, 0, n)
	prev := -1
	for i := uint32(0); i < n; i++ {
		id := int(int32(d.u32()))
		x := d.vec()
		if d.err != nil {
			return nil, d.err
		}
		if id <= prev {
			// IDs must be ascending and non-negative: duplicates or shuffled
			// numbering would double-count nodes in the healed population.
			d.fail()
			return nil, d.err
		}
		prev = id
		m.IDs = append(m.IDs, id)
		m.Xs = append(m.Xs, x)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}
