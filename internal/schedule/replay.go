package schedule

import (
	"fmt"
	"math"
	"sync"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/sim"
)

// Supply configures the encoded-zero ancilla supply an event-driven Replay
// executes against: an aggregate production rate (a bank of factories) and an
// output buffer capacity.
type Supply struct {
	// RatePerMs is the aggregate encoded-zero production rate.  +Inf models
	// an unbounded supply (the speed-of-data limit).
	RatePerMs float64
	// BufferAncillae bounds the supply's output buffer; zero buffers
	// infinitely (the accumulating token bucket of Figure 8's closed form).
	BufferAncillae float64
}

// Validate rejects supplies no simulation can run.
func (s Supply) Validate() error {
	if !(s.RatePerMs > 0) {
		return fmt.Errorf("schedule: supply rate %v/ms: %w", s.RatePerMs, sim.ErrZeroRate)
	}
	if s.BufferAncillae < 0 {
		return fmt.Errorf("schedule: negative supply buffer %v", s.BufferAncillae)
	}
	if s.BufferAncillae > 0 && math.IsInf(s.RatePerMs, 1) {
		return fmt.Errorf("schedule: a finite buffer needs a finite production rate")
	}
	return nil
}

// ReplayResult reports, for one circuit of a replay, where the execution time
// actually went — set against the Table 2 decomposition, which splits the
// same circuit analytically.
type ReplayResult struct {
	Name string
	// ExecutionTime is the circuit's event-driven makespan under the supply.
	ExecutionTime iontrap.Microseconds
	// SpeedOfData is the circuit's dataflow bound (infinite supply), the
	// floor the makespan approaches as the supply improves.
	SpeedOfData iontrap.Microseconds
	// DataOpBusy and QECInteractBusy are the total useful-gate and
	// QEC-interaction latencies summed over all gates (the Table 2 columns,
	// but summed over the whole circuit rather than the critical path).
	DataOpBusy      iontrap.Microseconds
	QECInteractBusy iontrap.Microseconds
	// AncillaWait is the total time gates waited on encoded-zero delivery
	// beyond data readiness — the time the Table 2 "ancilla prep" column
	// turns into when preparation is overlapped but supply-limited.
	AncillaWait iontrap.Microseconds
	// NetworkBlocked is the total time gates spent in the teleport
	// interconnect: EPR-pair queueing at contended links plus hop transit.
	// The single-region replays of this package never touch the interconnect
	// and leave it zero; the routed mesh replayer (internal/network) embeds
	// this type and fills it in, so both report one where-time-went shape.
	NetworkBlocked iontrap.Microseconds
	// AncillaeConsumed counts encoded zeros drawn from the supply.
	AncillaeConsumed int
	// Gates is the circuit's gate count.
	Gates int
}

// Slowdown is the makespan relative to the circuit's own dataflow bound.
func (r ReplayResult) Slowdown() float64 {
	if r.SpeedOfData == 0 {
		return 0
	}
	return float64(r.ExecutionTime) / float64(r.SpeedOfData)
}

// ReplayRun is a completed replay: per-circuit results plus the shared-supply
// statistics of the run as a whole.
type ReplayRun struct {
	Results []ReplayResult
	// Makespan is the overall completion time across every circuit.
	Makespan iontrap.Microseconds
	// ProducerStall is the total time production was blocked on a full
	// buffer (finite-buffer supplies only).
	ProducerStall iontrap.Microseconds
	// BufferHighWater is the peak buffered ancilla level (finite-buffer
	// supplies only).
	BufferHighWater float64
	// Events is the number of kernel events processed.
	Events int
}

// Replay executes one circuit's dataflow graph on the discrete-event kernel
// against the configured ancilla supply.  With an infinite buffer the fluid
// supply model reproduces SimulateWithThroughput bit for bit (same issue
// order, same arithmetic); a finite buffer adds the production stalls the
// closed form cannot express.
func Replay(c *quantum.Circuit, m LatencyModel, supply Supply) (ReplayRun, error) {
	return ReplayShared([]*quantum.Circuit{c}, m, supply)
}

// BaseResult returns the part of a circuit's replay result that no supply
// changes: its name, gate count, dataflow bound and the Table 2 busy totals.
// Every replayer starts its per-circuit result from it.
func BaseResult(c *quantum.Circuit, m LatencyModel) ReplayResult {
	res := ReplayResult{Name: c.Name, Gates: len(c.Gates)}
	_, sod := c.DAG().WeightedCriticalPath(func(g quantum.Gate) float64 {
		return float64(m.GateWeightSpeedOfData(g))
	})
	res.SpeedOfData = iontrap.Microseconds(sod)
	for _, g := range c.Gates {
		res.DataOpBusy += m.DataOpLatency(g)
		res.QECInteractBusy += m.QECInteractLatency()
	}
	return res
}

// sharedModel is ReplayShared's issue hook on the sim.Replay driver: every
// gate draws its QEC step's encoded zeros from the one shared supply site,
// then runs for its speed-of-data weight.  It implements sim.Handler for
// the grants of a buffered supply, whose payload is the flat gate index.
type sharedModel struct {
	d      *sim.Replay
	m      LatencyModel
	res    []ReplayResult
	supply sim.SupplyBank
}

var sharedModelPool = sync.Pool{New: func() any { return new(sharedModel) }}

// Issue implements sim.Issuer.
func (s *sharedModel) Issue(fi int, ready float64) {
	ci, _ := s.d.Gate(fi)
	s.res[ci].AncillaeConsumed += s.m.ZeroAncillaePerQEC
	if issue, ok := s.supply.Acquire(0, float64(s.m.ZeroAncillaePerQEC), ready, s, fi); ok {
		s.run(fi, ready, issue)
	}
}

// Fire implements sim.Handler: gate fi's buffered supply grant.
func (s *sharedModel) Fire(fi int) {
	s.run(fi, s.d.Ready(fi), float64(s.d.Kernel().Now()))
}

// run executes gate fi once its ancillae arrive at issue.
func (s *sharedModel) run(fi int, ready, issue float64) {
	ci, g := s.d.Gate(fi)
	s.res[ci].AncillaWait += iontrap.Microseconds(issue - ready)
	s.d.Finish(fi, issue+float64(s.m.GateWeightSpeedOfData(g)))
}

// ReplayShared co-schedules several circuits against one shared ancilla
// supply — the contention scenario: independent benchmarks, one factory
// bank.  Gates from all circuits issue in first-come-first-served order of
// data readiness (ties broken by circuit, then gate index) and draw from the
// same supply, so a bursty neighbour slows everyone down.
func ReplayShared(cs []*quantum.Circuit, m LatencyModel, supply Supply) (ReplayRun, error) {
	if err := m.Validate(); err != nil {
		return ReplayRun{}, err
	}
	if err := supply.Validate(); err != nil {
		return ReplayRun{}, err
	}
	if len(cs) == 0 {
		return ReplayRun{}, fmt.Errorf("schedule: no circuits to replay")
	}
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			return ReplayRun{}, err
		}
	}
	run := ReplayRun{Results: make([]ReplayResult, len(cs))}
	for ci, c := range cs {
		run.Results[ci] = BaseResult(c, m)
	}
	d := sim.AcquireReplay(cs)
	defer d.Release()
	if d.Total() == 0 {
		return run, nil
	}

	s := sharedModelPool.Get().(*sharedModel)
	defer func() {
		s.d, s.res = nil, nil
		sharedModelPool.Put(s)
	}()
	s.d, s.m, s.res = d, m, run.Results
	rates := [1]float64{supply.RatePerMs / 1000.0}
	if err := s.supply.Reset(d.Kernel(), rates[:], supply.BufferAncillae,
		func(int) string { return "shared zero supply" }); err != nil {
		return ReplayRun{}, err
	}
	stats, err := d.Run(s)
	if err != nil {
		return ReplayRun{}, err
	}
	for ci := range cs {
		run.Results[ci].ExecutionTime = d.CircuitMakespan(ci)
	}
	run.Makespan = d.Makespan()
	run.Events = stats.Events
	run.ProducerStall = s.supply.StallTime()
	run.BufferHighWater = s.supply.HighWater()
	return run, nil
}
