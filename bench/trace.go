package main

// trace.go holds what a traced run records, all of it from the benchmark's
// side of each call into the system: contiguous spans along every driver's
// path, a timestamping connection on the node side of each socket, and the
// start/end of every call the coordinator makes into the in-process fabric.
// Spans inside the program are a later change.

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// clock reads nanoseconds since the run started (monotonic).
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// spanKind names one kind of span on a driver's path. A driver's spans are
// contiguous — each starts where the previous one ended — so their sum is the
// driver's wall time and anything left over is loop and clock overhead.
type spanKind uint8

const (
	spGen     spanKind = iota // replayer bookkeeping: fetch a sample, slide a window
	spApply                   // sketch update (ingest source → sketch)
	spVector                  // local-vector materialization
	spFast                    // update call that never talked to the coordinator
	spBlocked                 // update call that did: violation → resolution
	spOffer                   // fleet: node-side constraint check
	spResolve                 // fleet: coordinator resolving queued violations
	spBarrier                 // waiting for the other driver
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"gen", "sketch.apply", "ingest.vector_into", "core.node.update_fast",
	"transport.update_blocked", "core.node.offer", "core.machine.resolve", "harness.barrier",
}

// span is one kept span. Per-event spans are aggregated, not kept; those kept
// are the violation-level ones (and their children), up to spanCap per shard.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Node   int    `json:"node"`
}

const spanCap = 4000

// traceShard is one driver's private recorder.
type traceShard struct {
	sum, cnt [nSpanKinds]int64
	durs     [nSpanKinds][]int64 // every duration of rare kinds, 1 in 8 of per-event kinds
	spans    []span
	nextID   int
	driver   int
}

func (t *traceShard) add(k spanKind, start, end int64, keep bool) {
	d := end - start
	t.sum[k] += d
	t.cnt[k]++
	if keep || t.cnt[k]&7 == 0 {
		t.durs[k] = append(t.durs[k], d)
	}
}

// keepSpan records an individual span and returns its id (0 when full).
func (t *traceShard) keepSpan(name string, start, end int64, parent, node int) int {
	if len(t.spans) >= spanCap {
		return 0
	}
	t.nextID++
	id := t.driver<<24 | t.nextID
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, ID: id, Parent: parent, Node: node})
	return id
}

// stampConn is the node side of one socket with timestamps at its boundary,
// installed through the transport's public dial hook. It sees bytes, not
// messages: which write is which follows from when it happens.
type stampConn struct {
	net.Conn
	clk clock
	// firstWrite is the start of the first Write since the driver last reset
	// it (0 = none yet); lastRead is the completion of the latest Read.
	firstWrite atomic.Int64
	lastRead   atomic.Int64
	// inCall is set while the driver is inside an update call on this node.
	// A Write outside a call can only be the node's reader answering a data
	// pull, so Read completion → that Write's completion is the pull service
	// time at a bystander node.
	inCall atomic.Bool
	mu     sync.Mutex
	pulls  []int64
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.lastRead.Store(c.clk.now())
	return n, err
}

func (c *stampConn) Write(p []byte) (int, error) {
	bystander := !c.inCall.Load()
	c.firstWrite.CompareAndSwap(0, c.clk.now())
	n, err := c.Conn.Write(p)
	if bystander {
		if lr := c.lastRead.Load(); lr != 0 {
			c.mu.Lock()
			c.pulls = append(c.pulls, c.clk.now()-lr)
			c.mu.Unlock()
		}
	}
	return n, err
}

func (c *stampConn) takePulls() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pulls
	c.pulls = nil
	return p
}

// commCall is one coordinator→fabric call seen by the in-process fabric.
type commCall struct {
	kind       commKind
	start, end int64
}

// machineTrace splits each coordinator call (Init, HandleViolation) into the
// machine's self time and the time spent inside the fabric, and a full sync
// into its three phases, from the fabric's timestamps alone:
//
//	collect    = call start → end of the last data pull, minus the pulls
//	zone build = end of the last pull → start of the first Sync send
//	distribute = start of the first Sync send → call end, minus the sends
//
// The zone-build gap therefore also holds the exact-accumulator fold and the
// rounding of x̄, which the linalg.acc_* registry entries size.
type machineTrace struct {
	calls []commCall

	lazy, full                 []int64 // self time per resolved violation
	hv                         []int64 // whole call per violation, fabric included
	collect, zoneBuild, distNs []int64
	violationSelfNs            int64 // Σ self time over violations
	initSelfNs                 int64 // Σ self time of initial syncs
	pulls, violations          int64
}

func (m *machineTrace) hook(k commKind, start, end int64) {
	m.calls = append(m.calls, commCall{k, start, end})
}

// closeInit closes an initial sync that took totalNs and returns its self
// time.
func (m *machineTrace) closeInit(totalNs int64) int64 {
	var inside int64
	for _, c := range m.calls {
		inside += c.end - c.start
	}
	m.calls = m.calls[:0]
	m.initSelfNs += totalNs - inside
	return totalNs - inside
}

// discard drops the fabric calls of a coordinator call that is not reported
// (a forced resync).
func (m *machineTrace) discard() { m.calls = m.calls[:0] }

func (m *machineTrace) merge(o *machineTrace) {
	m.lazy, m.full, m.hv = append(m.lazy, o.lazy...), append(m.full, o.full...), append(m.hv, o.hv...)
	m.collect = append(m.collect, o.collect...)
	m.zoneBuild = append(m.zoneBuild, o.zoneBuild...)
	m.distNs = append(m.distNs, o.distNs...)
	m.violationSelfNs += o.violationSelfNs
	m.initSelfNs += o.initSelfNs
	m.pulls += o.pulls
	m.violations += o.violations
}

// finish closes the HandleViolation call that ran over [t0, t1).
func (m *machineTrace) finish(t0, t1 int64) {
	var inside int64
	firstSync, lastPullEnd := int64(-1), t0
	var pullNs, sendNs int64
	npulls := int64(0)
	for _, c := range m.calls {
		d := c.end - c.start
		inside += d
		switch c.kind {
		case commRequest:
			npulls++
			if firstSync < 0 {
				pullNs += d
				lastPullEnd = c.end
			}
		case commSync:
			if firstSync < 0 {
				firstSync = c.start
			}
			sendNs += d
		}
	}
	m.calls = m.calls[:0]
	self := (t1 - t0) - inside
	m.violationSelfNs += self
	m.violations++
	m.pulls += npulls
	m.hv = append(m.hv, t1-t0)
	if firstSync < 0 {
		m.lazy = append(m.lazy, self)
		return
	}
	m.full = append(m.full, self)
	m.collect = append(m.collect, (lastPullEnd-t0)-pullNs)
	m.zoneBuild = append(m.zoneBuild, firstSync-lastPullEnd)
	m.distNs = append(m.distNs, (t1-firstSync)-sendNs)
}

// traceFile is what a traced run writes to bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Totals   map[string]spanSum `json:"span_totals"`
	Spans    []span             `json:"spans"`
}

type spanSum struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

func writeTrace(dir string, tf *traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, tf.Workload+".trace.json"), data, 0o644)
}
