package sim

import (
	"fmt"
	"sync"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
)

// Issuer is the model half of a Replay.  The driver calls Issue once per
// gate, in (data readiness, flat gate index) order, when gate fi's operands
// are all ready at time ready.  The model finishes the gate through
// Replay.Finish, either at once (a fluid supply answers immediately) or from
// a later kernel event of its own (a buffered grant, a teleport arrival).
type Issuer interface {
	Issue(fi int, ready float64)
}

// replayGate is one gate of a replay's flattened multi-circuit gate space:
// where it comes from and its dataflow state.
type replayGate struct {
	circuit int
	gate    int
	ready   float64 // latest finish among the predecessors completed so far
	indeg   int     // predecessors not yet completed
}

// replayCircuit is one circuit of a replay.
type replayCircuit struct {
	dag *quantum.DAG
	off int     // flat index of the circuit's first gate
	top float64 // latest finish among the circuit's gates
}

// Replay is the event-driven DAG replay driver every speed-of-data
// simulator runs on: it list-schedules the gate DAGs of one or more circuits
// on a Kernel.  Gate completions are normal-priority events carrying the
// flat gate index; a late-priority dispatcher pops newly ready gates from a
// TaskQueue in (readiness, flat index) order — the closed forms' issue
// order, which is what keeps fluid-supply replays bit-identical to them —
// and hands each to the model's Issuer.  The driver tracks per-circuit
// finish times and the overall makespan, and reports a run that leaves
// gates unexecuted as an error.
//
// A Replay implements Handler for its own events (payload -1 dispatches,
// [0, Total) completes a gate), so scheduling allocates nothing; models
// schedule their own events on Kernel with a Handler of their own.  Replays
// are pooled: AcquireReplay, Run once, Release.
type Replay struct {
	k  *Kernel
	rq *TaskQueue
	m  Issuer

	gates    []replayGate
	circuits []replayCircuit

	total    int
	finished int
	makespan float64
	armed    bool // a dispatch is scheduled at the current time
	err      error
}

var replayPool = sync.Pool{New: func() any { return new(Replay) }}

// dispatchIdx is the dispatcher's event payload.
const dispatchIdx = -1

// AcquireReplay returns a pooled driver over the flattened gate space of
// cs, which numbers every gate of every circuit with one flat index in
// circuit order, then gate order.  The circuits must be valid.  A kernel
// and ready queue are attached only when there is a gate to replay.
func AcquireReplay(cs []*quantum.Circuit) *Replay {
	r := replayPool.Get().(*Replay)
	total := 0
	for _, c := range cs {
		total += len(c.Gates)
	}
	r.total, r.finished, r.makespan, r.armed, r.err = total, 0, 0, false, nil
	r.gates = resize(r.gates, total)
	r.circuits = resize(r.circuits, len(cs))
	fi := 0
	for ci, c := range cs {
		d := c.DAG()
		r.circuits[ci] = replayCircuit{dag: d, off: fi}
		for gi, deg := range d.InDegree {
			r.gates[fi] = replayGate{circuit: ci, gate: gi, indeg: deg}
			fi++
		}
	}
	if total > 0 {
		r.k = AcquireKernel()
		r.rq = AcquireTaskQueue()
	}
	return r
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Release returns the driver, its kernel and its ready queue to their
// pools.  The caller must not use it afterwards.
func (r *Replay) Release() {
	if r.k != nil {
		r.k.Release()
		r.rq.Release()
	}
	clear(r.circuits)
	r.k, r.rq, r.m, r.err = nil, nil, nil, nil
	replayPool.Put(r)
}

// Kernel returns the kernel the replay runs on (nil for an empty replay).
func (r *Replay) Kernel() *Kernel { return r.k }

// Total returns the number of gates across every circuit.
func (r *Replay) Total() int { return r.total }

// Gate maps flat gate index fi to its circuit index and the gate itself.
func (r *Replay) Gate(fi int) (ci int, g quantum.Gate) {
	rg := &r.gates[fi]
	return rg.circuit, r.circuits[rg.circuit].dag.Circuit.Gates[rg.gate]
}

// Ready returns the time flat gate fi became data-ready; once the gate has
// been issued this is the ready time Issue was called with.
func (r *Replay) Ready(fi int) float64 { return r.gates[fi].ready }

// Makespan returns the latest finish time across every circuit.
func (r *Replay) Makespan() iontrap.Microseconds { return iontrap.Microseconds(r.makespan) }

// CircuitMakespan returns the latest finish time among circuit ci's gates.
func (r *Replay) CircuitMakespan(ci int) iontrap.Microseconds {
	return iontrap.Microseconds(r.circuits[ci].top)
}

// Finish records that flat gate fi finishes at time at and schedules its
// completion, which releases the gate's successors.
func (r *Replay) Finish(fi int, at float64) {
	c := &r.circuits[r.gates[fi].circuit]
	if at > c.top {
		c.top = at
	}
	if at > r.makespan {
		r.makespan = at
	}
	r.k.AtFire(iontrap.Microseconds(at), PriorityNormal, r, fi)
}

// Fail aborts the run with err; the first failure wins.  The dispatcher
// stops issuing and the kernel stops after the current event.
func (r *Replay) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.k.Stop()
	}
}

// Failed reports whether the run has been aborted by Fail.
func (r *Replay) Failed() bool { return r.err != nil }

// Run replays every gate through m and returns the kernel statistics.  It
// returns the error passed to Fail, or an error when the run drained with
// gates still unexecuted (a cyclic dependence graph).  Models set up their
// supplies and any events of their own before calling Run, so those events
// keep their place in the kernel's insertion order.
func (r *Replay) Run(m Issuer) (Stats, error) {
	r.m = m
	for i := range r.gates {
		if r.gates[i].indeg == 0 {
			r.rq.Push(Task{Index: i, Ready: 0})
		}
	}
	r.k.AtFire(0, PriorityLate, r, dispatchIdx)
	r.armed = true
	stats := r.k.Run()
	if r.err != nil {
		return stats, r.err
	}
	if r.finished != r.total {
		return stats, fmt.Errorf("sim: replay left %d gates unexecuted (cyclic dependence graph?)", r.total-r.finished)
	}
	return stats, nil
}

// Fire implements Handler: -1 dispatches, [0, Total) completes a gate.
func (r *Replay) Fire(idx int) {
	if idx == dispatchIdx {
		r.dispatch()
	} else {
		r.completed(idx)
	}
}

// dispatch issues every ready gate in (readiness, flat index) order.
func (r *Replay) dispatch() {
	r.armed = false
	for r.err == nil && r.rq.Len() > 0 {
		t := r.rq.Pop()
		r.m.Issue(t.Index, t.Ready)
	}
}

// completed fires at a gate's finish time: successors whose last operand
// this was become ready, and the dispatcher is armed for them.
func (r *Replay) completed(fi int) {
	now := float64(r.k.Now())
	g := r.gates[fi]
	c := r.circuits[g.circuit]
	r.finished++
	for _, s := range c.dag.Succ[g.gate] {
		sg := &r.gates[c.off+s]
		if now > sg.ready {
			sg.ready = now
		}
		sg.indeg--
		if sg.indeg == 0 {
			r.rq.Push(Task{Index: c.off + s, Ready: sg.ready})
			if !r.armed {
				r.armed = true
				r.k.AtFire(r.k.Now(), PriorityLate, r, dispatchIdx)
			}
		}
	}
	if r.finished == r.total {
		// The workload is done; drop any still-ticking producers.
		r.k.Stop()
	}
}
