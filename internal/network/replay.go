package network

import (
	"errors"
	"fmt"
	"sync"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
	"speedofdata/internal/sim"
)

// ReplayResult is one circuit's share of a routed-mesh replay.  It embeds
// the where-time-went decomposition shared with internal/schedule (compute
// busy, factory-starved AncillaWait, NetworkBlocked) and adds the
// interconnect metrics only a routed mesh has.
type ReplayResult struct {
	schedule.ReplayResult
	// CrossGates counts multi-qubit gates whose operands spanned tiles and
	// therefore issued routed teleports.
	CrossGates int
	// Teleports counts routed operand movements; every cross-tile gate
	// teleports each remote operand to the execution tile and back, so it
	// contributes two per remote operand.
	Teleports int
	// Hops counts link traversals summed over all teleports.
	Hops int
	// HopHistogram[d] counts teleports whose one-way route was d links
	// long; index 0 exists but stays zero (local operands never teleport).
	HopHistogram []int
	// TeleportAncillae counts the encoded zeros consumed by teleports, a
	// subset of AncillaeConsumed.
	TeleportAncillae int
}

// LinkStat reports one directed link's behaviour over a replay.
type LinkStat struct {
	// Link identifies the channel.
	Link Link
	// PairsConsumed is the number of EPR pairs teleports drew through it.
	PairsConsumed float64
	// HighWater is the peak buffered pair level the channel reached.
	HighWater float64
	// ProducerStall is the time the link's pair generator spent blocked on
	// a full channel buffer.
	ProducerStall iontrap.Microseconds
}

// ReplayRun is a completed routed-mesh replay.
type ReplayRun struct {
	// Results holds one entry per replayed circuit.
	Results []ReplayResult
	// Topology is the mesh the run executed on.
	Topology Topology
	// Partitions records each circuit's qubit→tile assignment.
	Partitions []Partition
	// Makespan is the completion time across every circuit.
	Makespan iontrap.Microseconds
	// Events is the number of kernel events processed.
	Events int
	// Links holds per-channel statistics in Topology.Links order (empty on
	// a 1-tile mesh).
	Links []LinkStat
	// Faults is the fault decomposition of the run: reroutes, detour hops
	// and degradation wait caused by the injected Config.Faults (the zero
	// value for a zero-fault replay).
	Faults FaultStats
}

// MaxLinkHighWater returns the largest buffered-pair peak across links.
func (r ReplayRun) MaxLinkHighWater() float64 {
	max := 0.0
	for _, l := range r.Links {
		if l.HighWater > max {
			max = l.HighWater
		}
	}
	return max
}

// Replay executes one circuit's dataflow graph across the configured mesh.
// On a 1-tile mesh every gate is local and the run reproduces the fluid-mode
// schedule.Replay bit for bit (same issue order, same token-bucket
// arithmetic) provided the config charges nothing schedule.Replay cannot
// model: Movement.BallisticPerGateUs zero and TileZeroRatePerMs equal to
// the supply rate.  Multi-tile meshes add routed teleports, link contention
// and per-tile ancilla accounting the single-region replay cannot express.
func Replay(c *quantum.Circuit, cfg Config) (ReplayRun, error) {
	return ReplayShared([]*quantum.Circuit{c}, cfg)
}

// netGate is the in-flight state of one dispatched cross-tile gate: its
// operand movements, the join counters for inbound and return teleports,
// and the times the joins resolve to.
type netGate struct {
	moves    [][]Link
	inbound  int
	outbound int
	arrival  float64
	execDone float64
	retDone  float64
}

// teleState is one active routed operand movement.  Teleports are pooled by
// index in netState and step through their route via kernel events carrying
// that index — the closure-free replacement for the recursive hop closure.
type teleState struct {
	fi       int    // owning flat gate
	route    []Link // cached route (read-only; replaced on mid-flight reroute)
	hop      int
	dest     int     // final tile, for re-resolving after a fault
	ret      bool    // return trip (fires the outbound join)
	waiting  bool    // an EPR-pair acquire is pending on route[hop]
	hopReady float64 // when the current hop requested its EPR pair
}

// netState is ReplayShared's issue hook on the sim.Replay driver: teleport
// the remote operands in, issue the gate on its execution tile, teleport
// them back, then finish the gate through the driver.  It implements
// sim.Handler for its own events, and is pooled with its supply banks.
// Event payloads: a negative idx applies scheduled fault -1-idx, [0,total)
// launches gate idx's return teleports, and beyond that teleport steps
// (even = EPR pair granted, odd = hop arrival).
type netState struct {
	d *sim.Replay

	run     *ReplayRun
	m       schedule.LatencyModel
	topo    Topology
	pend    []netGate
	tiles   sim.SupplyBank // per-tile zero factories (fluid)
	links   sim.SupplyBank // per-link EPR channels (buffered)
	rates   []float64      // scratch for the banks' per-site rates
	linkIdx map[Link]int
	routes  [][]Link // (from*tiles+to) -> cached dimension-order route

	// Fault state.  faulted is false for an empty Config.Faults, keeping
	// the route cache on the plain dimension-order path; everything below
	// it is only touched when a plan is present.
	faulted      bool
	plan         FaultPlan
	linkRate     float64 // healthy per-link EPR rate (pairs/us)
	linkDown     []bool  // per linkIdx: the link is dead
	linkDegraded []bool  // per linkIdx: the link runs at a reduced rate
	rerouted     []bool  // per routes index: cached route deviates from dimension order
	fstats       FaultStats

	tele     []teleState
	teleFree []int32

	perGate  float64
	teleAnc  float64
	teleAncN int
	teleUs   float64
	ballUs   float64

	total  int
	nTiles int
}

var netStatePool = sync.Pool{New: func() any { return new(netState) }}

// Fire implements sim.Handler.
func (r *netState) Fire(idx int) {
	switch {
	case idx < 0:
		r.applyFault(-1 - idx)
	case idx < r.total:
		r.launchReturns(idx)
	default:
		t := idx - r.total
		if t&1 == 0 {
			r.teleGranted(t >> 1)
		} else {
			r.teleArrived(t >> 1)
		}
	}
}

// teleIdx is the event payload of teleport ts's EPR grant; its hop arrival
// is teleIdx+1.
func (r *netState) teleIdx(ts int) int { return r.total + 2*ts }

// route returns the cached route between two tiles: the plain dimension-order
// route on a pristine mesh, the fault-avoiding fallback (opposite dimension
// order, then a bounded BFS detour) when a fault plan is active.  On a
// partitioned mesh it fails the replay and returns nil; callers must check
// d.Failed before using the route.
func (r *netState) route(from, to int) []Link {
	i := from*r.nTiles + to
	if r.routes[i] == nil {
		if r.faulted {
			rt, rer, err := r.topo.RouteAvoiding(from, to, r.linkIsDown)
			if err != nil {
				r.d.Fail(err)
				return nil
			}
			r.routes[i], r.rerouted[i] = rt, rer
		} else {
			r.routes[i] = r.topo.Route(from, to)
		}
	}
	return r.routes[i]
}

// linkIsDown is the RouteAvoiding predicate over the per-replay link-status
// table.
func (r *netState) linkIsDown(l Link) bool { return r.linkDown[r.linkIdx[l]] }

// clearRoutes drops every cached route so the next lookup re-resolves
// against the updated link-status table.  In-flight teleports keep their old
// slices; teleStep re-checks each hop against linkDown, so stale routes
// self-heal at the next hop.
func (r *netState) clearRoutes() {
	for i := range r.routes {
		r.routes[i] = nil
		r.rerouted[i] = false
	}
}

// noteSpawn accounts a teleport launched on a non-preferred route.
func (r *netState) noteSpawn(route []Link) {
	from, to := route[0].From, route[len(route)-1].To
	if r.rerouted[from*r.nTiles+to] {
		r.fstats.Reroutes++
		r.fstats.DetourHops += len(route) - r.topo.HopDistance(from, to)
	}
}

// applyFault applies one scheduled fault at its kernel timestamp.
func (r *netState) applyFault(pi int) {
	f := r.plan[pi]
	li := r.linkIdx[f.Link]
	if !f.Dead {
		if r.linkDown[li] {
			return // degrading a dead link changes nothing
		}
		if !r.linkDegraded[li] {
			r.linkDegraded[li] = true
			r.fstats.DegradedLinks++
		}
		// RateFactor scales the link's configured rate; a later fault on
		// the same link overrides an earlier one rather than compounding.
		if err := r.links.Producer(li).SetRate(r.linkRate * f.RateFactor); err != nil {
			r.d.Fail(err)
		}
		return
	}
	if r.linkDown[li] {
		return
	}
	r.linkDown[li] = true
	r.fstats.FailedLinks++
	r.links.Producer(li).Halt()
	r.clearRoutes()
	// Teleports queued on the dying link re-route from where they stand.
	// A request whose pair already left the buffer is not pending any
	// more: that grant event is en route and the teleport crosses on the
	// last pair out.
	for ts := range r.tele {
		s := &r.tele[ts]
		if !s.waiting || s.hop >= len(s.route) || r.linkIdx[s.route[s.hop]] != li {
			continue
		}
		if !r.links.Buffer(li).CancelAcquireFire(r, r.teleIdx(ts)) {
			continue
		}
		s.waiting = false
		ci, _ := r.d.Gate(s.fi)
		now := float64(r.d.Kernel().Now())
		r.run.Results[ci].NetworkBlocked += iontrap.Microseconds(now - s.hopReady)
		cur := s.route[s.hop].From
		nr := r.route(cur, s.dest)
		if r.d.Failed() {
			return
		}
		r.fstats.InFlightReroutes++
		r.fstats.DetourHops += len(nr) - r.topo.HopDistance(cur, s.dest)
		s.route, s.hop = nr, 0
		r.teleStep(ts)
	}
}

// spawnTele claims a pooled teleport state and starts its first hop.
func (r *netState) spawnTele(fi int, route []Link, ret bool) {
	var ts int
	if n := len(r.teleFree); n > 0 {
		ts = int(r.teleFree[n-1])
		r.teleFree = r.teleFree[:n-1]
	} else {
		ts = len(r.tele)
		r.tele = append(r.tele, teleState{})
	}
	r.tele[ts] = teleState{fi: fi, route: route, ret: ret, dest: route[len(route)-1].To}
	r.teleStep(ts)
}

// teleStep requests the current hop's EPR pair, or resolves the teleport
// when the route is exhausted.  Under an active fault plan the planned hop
// is re-checked against the link-status table first: a teleport headed for a
// link that died while it was in transit re-resolves from its current tile
// instead of queueing on a dead channel forever.
func (r *netState) teleStep(ts int) {
	s := &r.tele[ts]
	now := float64(r.d.Kernel().Now())
	if s.hop == len(s.route) {
		fi, ret := s.fi, s.ret
		r.teleFree = append(r.teleFree, int32(ts))
		if ret {
			r.returnArrived(fi, now)
		} else {
			r.operandArrived(fi, now)
		}
		return
	}
	l := s.route[s.hop]
	if r.faulted && r.linkDown[r.linkIdx[l]] {
		cur := l.From
		nr := r.route(cur, s.dest)
		if r.d.Failed() {
			return
		}
		r.fstats.InFlightReroutes++
		r.fstats.DetourHops += len(nr) - r.topo.HopDistance(cur, s.dest)
		s.route, s.hop = nr, 0
		l = nr[0]
	}
	s.hopReady = now
	s.waiting = true
	r.links.Buffer(r.linkIdx[l]).AcquireFire(1, r, r.teleIdx(ts))
}

// teleGranted fires when the hop's EPR pair is delivered: draw the teleport
// ancillae from the departing tile's zero supply, then transit.
func (r *netState) teleGranted(ts int) {
	s := &r.tele[ts]
	s.waiting = false
	ci, _ := r.d.Gate(s.fi)
	res := &r.run.Results[ci]
	l := s.route[s.hop]
	granted := float64(r.d.Kernel().Now())
	res.NetworkBlocked += iontrap.Microseconds(granted - s.hopReady)
	if r.faulted && r.linkDegraded[r.linkIdx[l]] {
		r.fstats.DegradedWaitUs += granted - s.hopReady
	}
	depart := granted
	if r.teleAnc > 0 {
		depart, _ = r.tiles.Acquire(l.From, r.teleAnc, granted, nil, 0)
	}
	res.AncillaWait += iontrap.Microseconds(depart - granted)
	res.TeleportAncillae += r.teleAncN
	res.AncillaeConsumed += r.teleAncN
	res.Hops++
	arrive := depart + r.teleUs
	res.NetworkBlocked += iontrap.Microseconds(arrive - depart)
	r.d.Kernel().AtFire(iontrap.Microseconds(arrive), sim.PriorityNormal, r, r.teleIdx(ts)+1)
}

// teleArrived fires at the hop's arrival time.
func (r *netState) teleArrived(ts int) {
	r.tele[ts].hop++
	r.teleStep(ts)
}

// issueGate runs a gate's execution phase at the given start time: QEC
// ancillae from the execution tile, then ballistic movement (multi-qubit
// gates) and the gate itself.  It returns the execution finish time.
func (r *netState) issueGate(ci int, g quantum.Gate, start float64, execTile int) float64 {
	res := &r.run.Results[ci]
	issue, _ := r.tiles.Acquire(execTile, r.perGate, start, nil, 0)
	res.AncillaWait += iontrap.Microseconds(issue - start)
	res.AncillaeConsumed += r.m.ZeroAncillaePerQEC
	extra := 0.0
	if g.Kind.Arity() >= 2 {
		extra = r.ballUs
	}
	return issue + extra + float64(r.m.GateWeightSpeedOfData(g))
}

// execTile returns the tile gate g of circuit ci executes on: the home of
// its last operand.
func (r *netState) execTile(ci int, g quantum.Gate) int {
	return r.run.Partitions[ci].TileOf[g.Qubits[len(g.Qubits)-1]]
}

// Issue implements sim.Issuer: a gate with every operand on its execution
// tile issues at once; otherwise each remote operand teleports in first.
func (r *netState) Issue(fi int, start float64) {
	ci, g := r.d.Gate(fi)
	part := r.run.Partitions[ci]
	execTile := r.execTile(ci, g)
	p := &r.pend[fi]
	p.moves = p.moves[:0]
	for _, q := range g.Qubits[:len(g.Qubits)-1] {
		if from := part.TileOf[q]; from != execTile {
			p.moves = append(p.moves, r.route(from, execTile))
		}
	}
	if r.d.Failed() {
		return
	}
	if len(p.moves) == 0 {
		r.d.Finish(fi, r.issueGate(ci, g, start, execTile))
		return
	}
	res := &r.run.Results[ci]
	p.inbound = len(p.moves)
	p.arrival = start
	for _, route := range p.moves {
		res.Teleports++
		res.HopHistogram[len(route)]++
		if r.faulted {
			r.noteSpawn(route)
		}
		r.spawnTele(fi, route, false)
	}
}

// operandArrived joins one inbound teleport; the last arrival executes the
// gate and schedules the return trips at its completion.
func (r *netState) operandArrived(fi int, arrive float64) {
	p := &r.pend[fi]
	if arrive > p.arrival {
		p.arrival = arrive
	}
	p.inbound--
	if p.inbound > 0 {
		return
	}
	ci, g := r.d.Gate(fi)
	p.execDone = r.issueGate(ci, g, p.arrival, r.execTile(ci, g))
	// Return the moved operands home; the gate completes (and unblocks its
	// successors) once placement is restored, the same to-and-back
	// convention the microarch teleport accounting uses.
	r.d.Kernel().AtFire(iontrap.Microseconds(p.execDone), sim.PriorityNormal, r, fi)
}

// launchReturns fires at a cross-tile gate's execution completion and sends
// every moved operand back.
func (r *netState) launchReturns(fi int) {
	p := &r.pend[fi]
	ci, _ := r.d.Gate(fi)
	res := &r.run.Results[ci]
	p.outbound = len(p.moves)
	p.retDone = p.execDone
	for _, route := range p.moves {
		back := r.route(route[len(route)-1].To, route[0].From)
		if r.d.Failed() {
			return
		}
		res.Teleports++
		res.HopHistogram[len(back)]++
		if r.faulted {
			r.noteSpawn(back)
		}
		r.spawnTele(fi, back, true)
	}
}

// returnArrived joins one return teleport; the last one finishes the gate.
func (r *netState) returnArrived(fi int, arrive float64) {
	p := &r.pend[fi]
	if arrive > p.retDone {
		p.retDone = arrive
	}
	p.outbound--
	if p.outbound == 0 {
		r.d.Finish(fi, p.retDone)
	}
}

// staticFault applies the plan's static faults (At == 0) to link i before
// the run starts, marking it dead or degraded, and returns its EPR rate.  A
// later plan entry on the same link overrides an earlier one.
func (r *netState) staticFault(i int, l Link, plan FaultPlan) float64 {
	rate, dead := r.linkRate, false
	for _, f := range plan {
		if f.At != 0 || f.Link != l {
			continue
		}
		if f.Dead {
			dead = true
		} else {
			rate = r.linkRate * f.RateFactor
		}
	}
	if dead {
		r.linkDown[i] = true
		r.fstats.FailedLinks++
	} else if rate != r.linkRate {
		r.linkDegraded[i] = true
		r.fstats.DegradedLinks++
	}
	return rate
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ReplayShared co-schedules several circuits on one mesh — the network
// contention scenario: each circuit is partitioned across the same tiles,
// and all of them compete for the same links and the same per-tile zero
// factories.  Gates issue in first-come-first-served order of data readiness
// (ties broken by circuit, then gate index), exactly like
// schedule.ReplayShared.
func ReplayShared(cs []*quantum.Circuit, cfg Config) (ReplayRun, error) {
	if err := cfg.Validate(); err != nil {
		return ReplayRun{}, err
	}
	if len(cs) == 0 {
		return ReplayRun{}, fmt.Errorf("network: no circuits to replay")
	}
	m := cfg.Latency
	topo := NewTopology(len(cfg.Machine.Tiles))
	nTiles := topo.TileCount()
	maxDist := topo.Cols + topo.Rows - 1
	faulted := len(cfg.Faults) > 0
	if faulted && nTiles > maxDist {
		// Detours may be longer than any Manhattan distance; a BFS route
		// is still bounded by the tile count.  Zero-fault histograms keep
		// their original size, preserving byte identity.
		maxDist = nTiles
	}

	run := ReplayRun{
		Topology:   topo,
		Results:    make([]ReplayResult, len(cs)),
		Partitions: make([]Partition, len(cs)),
	}
	if len(cfg.Partitions) > 0 && len(cfg.Partitions) != len(cs) {
		return ReplayRun{}, fmt.Errorf("network: %d pinned partitions for %d circuits", len(cfg.Partitions), len(cs))
	}
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			return ReplayRun{}, err
		}
	}
	for ci, c := range cs {
		var part Partition
		if len(cfg.Partitions) > 0 {
			part = cfg.Partitions[ci]
			if part.Tiles != nTiles || len(part.TileOf) != c.NumQubits {
				return ReplayRun{}, fmt.Errorf("network: pinned partition %d covers %d qubits on %d tiles, want %d on %d",
					ci, len(part.TileOf), part.Tiles, c.NumQubits, nTiles)
			}
		} else {
			var err error
			if part, err = PartitionCircuit(c, nTiles); err != nil {
				return ReplayRun{}, err
			}
		}
		run.Partitions[ci] = part
		res := &run.Results[ci]
		res.ReplayResult = schedule.BaseResult(c, m)
		res.CrossGates = part.CrossGates
		res.HopHistogram = make([]int, maxDist)
	}
	d := sim.AcquireReplay(cs)
	defer d.Release()
	if d.Total() == 0 {
		return run, nil
	}

	r := netStatePool.Get().(*netState)
	defer func() {
		r.d, r.run, r.plan = nil, nil, nil
		netStatePool.Put(r)
	}()
	r.d, r.run, r.m, r.topo = d, &run, m, topo
	r.perGate = float64(m.ZeroAncillaePerQEC)
	r.teleAncN = cfg.Machine.Movement.TeleportAncillae
	r.teleAnc = float64(r.teleAncN)
	r.teleUs = float64(cfg.Machine.Movement.TeleportUs)
	r.ballUs = float64(cfg.Machine.Movement.BallisticPerGateUs)
	r.faulted, r.plan = faulted, cfg.Faults
	r.fstats = FaultStats{}
	r.total, r.nTiles = d.Total(), nTiles
	r.pend = resize(r.pend, r.total)
	for i := range r.pend {
		r.pend[i] = netGate{moves: r.pend[i].moves[:0]}
	}
	r.routes = resize(r.routes, nTiles*nTiles)
	r.rerouted = resize(r.rerouted, nTiles*nTiles)
	r.clearRoutes()
	r.tele, r.teleFree = r.tele[:0], r.teleFree[:0]
	k := d.Kernel()

	// Per-tile zero supplies are fluid token buckets (the same arithmetic
	// schedule.Replay uses), fed by the tile's own factories.
	r.rates = resize(r.rates, nTiles)
	for i := range r.rates {
		r.rates[i] = cfg.tileRatePerMs(i) / 1000.0
	}
	if err := r.tiles.ResetFluid(r.rates); err != nil {
		return ReplayRun{}, err
	}
	// Each directed link is a finite EPR-pair channel behind a rate-matched
	// generator.
	links := topo.Links()
	if r.linkIdx == nil {
		r.linkIdx = make(map[Link]int, len(links))
	} else {
		clear(r.linkIdx)
	}
	r.linkRate = cfg.linkRatePerMs() / 1000.0
	r.rates = resize(r.rates, len(links))
	if faulted {
		r.linkDown = resize(r.linkDown, len(links))
		r.linkDegraded = resize(r.linkDegraded, len(links))
		clear(r.linkDown)
		clear(r.linkDegraded)
	}
	for i, l := range links {
		r.linkIdx[l] = i
		r.rates[i] = r.linkRate
		if faulted {
			r.rates[i] = r.staticFault(i, l, cfg.Faults)
		}
	}
	if err := r.links.ResetBuffered(k, r.rates, cfg.LinkBufferPairs, func(i int) string {
		return "EPR link " + links[i].String()
	}); err != nil {
		return ReplayRun{}, err
	}
	for i := range links {
		// A statically dead link's generator never starts: the channel
		// stays empty and every route avoids it from the first dispatch.
		if !faulted || !r.linkDown[i] {
			r.links.Producer(i).Start()
		}
	}
	// Scheduled faults fire as ordinary kernel events at their timestamps;
	// one scheduled past the makespan never applies.
	for pi, f := range cfg.Faults {
		if f.At > 0 {
			k.AtFire(f.At, sim.PriorityNormal, r, -1-pi)
		}
	}

	stats, err := d.Run(r)
	if err != nil {
		obsRecordReplay(r.fstats, errors.Is(err, ErrPartitioned))
		return ReplayRun{}, err
	}
	for ci := range cs {
		run.Results[ci].ExecutionTime = d.CircuitMakespan(ci)
	}
	run.Makespan = d.Makespan()
	run.Events = stats.Events
	run.Faults = r.fstats
	obsRecordReplay(r.fstats, false)
	run.Links = make([]LinkStat, len(links))
	for i, l := range links {
		run.Links[i] = LinkStat{
			Link:          l,
			PairsConsumed: r.links.Buffer(i).Consumed(),
			HighWater:     r.links.Buffer(i).HighWater(),
			ProducerStall: r.links.Producer(i).StallTime(),
		}
	}
	return run, nil
}
