package core

// Fabric is the in-process messaging fabric: a NodeComm that delivers
// synchronously into Node objects, with no wire. Every simulated, replayed
// or in-process run uses this one type; only deployments over real sockets
// (internal/transport) and fault-injecting test doubles implement NodeComm
// themselves.
type Fabric struct {
	Nodes []*Node
	// OnMessage, when set, observes every message the fabric carries, in
	// order: a DataRequest and its DataResponse per pull, each Sync and each
	// Slack. Message and byte accounting hangs here. Every message is lent
	// for the call only, as NodeComm lends them: an observer copies what it
	// keeps.
	OnMessage func(Message)
	// RefusedSyncs counts syncs and slacks a node could not check and
	// refused (see Node.ApplySync and Node.ApplySlack). The coordinator
	// believes those installed, so anything but zero means the run's
	// guarantee is void.
	RefusedSyncs int

	// req and resp are the pull's two messages, re-addressed per pull and
	// lent to OnMessage for the call only.
	req  DataRequest
	resp DataResponse
}

// RequestData implements NodeComm. The vector it returns is the node's own,
// lent until the node's next update (see Node.LocalVector).
//
//automon:hotpath
func (c *Fabric) RequestData(id int) []float64 {
	nd := c.Nodes[id]
	if c.OnMessage != nil {
		c.req.NodeID = id
		c.OnMessage(&c.req) //automon:allow hotpath the run's own accounting hook, handed a fabric-owned message
		nd.Respond(&c.resp)
		c.OnMessage(&c.resp) //automon:allow hotpath the run's own accounting hook, handed a fabric-owned message
	}
	return nd.LocalVector()
}

// SendSync implements NodeComm.
func (c *Fabric) SendSync(id int, m *Sync) {
	if c.OnMessage != nil {
		c.OnMessage(m)
	}
	if !c.Nodes[id].ApplySync(m) {
		c.RefusedSyncs++
	}
}

// SendSlack implements NodeComm.
func (c *Fabric) SendSlack(id int, m *Slack) {
	if c.OnMessage != nil {
		c.OnMessage(m)
	}
	if !c.Nodes[id].ApplySlack(m) {
		c.RefusedSyncs++
	}
}

// Monitor is the coordinator surface a Group drives; *Coordinator and
// *shard.Tree both satisfy it, so which one runs is purely a topology choice.
type Monitor interface {
	Init() error
	HandleViolation(v *Violation) error
	Estimate() float64
	Stats() CoordStats
	R() float64
	// Resync runs a full sync from the nodes' current vectors.
	Resync() error
}

// Group is one in-process monitoring group: the nodes, the Fabric between
// them and the coordinator, and the round loop's single step. Tuning replays,
// the simulator, the oracle's tree replay and the ingest pipeline are all
// configurations of it: they differ in where vectors come from and in what
// they hang on the fabric's hooks, not in how a violation is resolved.
//
// A Group is itself the NodeComm to build its Monitor over.
type Group struct {
	Fabric
	Mon Monitor

	// Elided counts Steps whose safe-zone check the elision budget skipped.
	Elided int
}

// NewGroup creates one node per initial vector.
func NewGroup(f *Function, initial [][]float64) *Group {
	g := &Group{}
	g.Nodes = make([]*Node, len(initial))
	for i, x := range initial {
		g.Nodes[i] = NewNode(i, f)
		g.Nodes[i].SetData(x)
	}
	return g
}

// EnableElision switches Step to safe-zone check elision (Node.UpdateElided):
// each step measures the vector's displacement from the last checked point
// against the node's cached distance-to-boundary radius and re-runs the check
// only once the displacement reaches it. Returns false when the function carries no curvature bound.
func (g *Group) EnableElision() bool {
	for _, nd := range g.Nodes {
		if !nd.EnableElision() {
			return false
		}
	}
	return true
}

// Start attaches the monitor built over this group and runs the initial full
// sync.
func (g *Group) Start(mon Monitor) error {
	g.Mon = mon
	return mon.Init()
}

// SetData replaces node i's vector without a constraint check (a fresh start
// ahead of an Init or Resync).
func (g *Group) SetData(i int, x []float64) { g.Nodes[i].SetData(x) }

// Update offers node i its new local vector and returns the violation the
// node raises, if any.
func (g *Group) Update(i int, x []float64) *Violation {
	v, skipped := g.Nodes[i].UpdateElided(x)
	if skipped {
		g.Elided++
	}
	return v
}

// Resolve reports a violation to the monitor, counting it as a message first.
func (g *Group) Resolve(v *Violation) error {
	if g.OnMessage != nil {
		g.OnMessage(v)
	}
	return g.Mon.HandleViolation(v)
}

// Step is one node update end to end: update, and resolve the violation if
// one was raised.
func (g *Group) Step(i int, x []float64) error {
	if v := g.Update(i, x); v != nil {
		return g.Resolve(v)
	}
	return nil
}
