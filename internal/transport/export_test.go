package transport

import (
	"io"

	"automon/internal/core"
)

// Methods and helpers only tests use.

// RejectedSyncs returns how many syncs the node refused as uncheckable; each
// one cost a reconnect.
func (c *NodeClient) RejectedSyncs() int64 { return c.rejectedSyncs.Load() }

// Err returns the first protocol or handler error any uplink produced (nil
// while all frames were clean). Connection-level errors do not stop the
// listener: surviving links keep flowing.
func (l *SubtreeListener) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// SendSubtreeRejoin re-registers the whole sub-tree after a partition heals.
func (u *SubtreeUplink) SendSubtreeRejoin(m *core.SubtreeRejoin) error {
	return u.w.writeMsg(m, true)
}

// Group returns this coordinator's group id (0 under ListenCoordinator).
func (c *Coordinator) Group() GroupID { return c.gid }

// DropConnection forcibly closes the current connection, as a network fault
// would. The client reconnects and rejoins through its normal recovery path;
// chaos tests use it to schedule deterministic node kills.
func (c *NodeClient) DropConnection() {
	if conn := c.currentConn(); conn != nil {
		conn.Close()
	}
}

// decodeAnyFrame reads one frame from r with a fresh frameReader, so the
// frame it returns stays valid for good.
func decodeAnyFrame(r io.Reader, stats *TrafficStats) (*inFrame, error) {
	return new(frameReader).read(r, stats)
}
