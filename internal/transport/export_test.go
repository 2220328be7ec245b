package transport

import "io"

// Methods and helpers only tests use.

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
