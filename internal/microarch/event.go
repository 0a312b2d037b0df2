package microarch

import (
	"fmt"
	"sync"

	"speedofdata/internal/iontrap"
	"speedofdata/internal/quantum"
	"speedofdata/internal/schedule"
	"speedofdata/internal/sim"
)

// replayModel is Simulate's issue hook on the sim.Replay driver: the cost
// model picks each gate's supply site, movement latency and ancilla demand
// in issue order — the order the closed form uses, so with fluid sources
// the two perform identical arithmetic and produce bit-identical results.
// With cfg.BufferAncillae > 0 each site is a finite buffer fed by a
// rate-matched producer: gates stall until their demand is delivered and
// producers stall when the buffer fills, the dynamics the closed form
// cannot express.
//
// It implements sim.Handler for buffered grants (payload: the gate index)
// and is pooled with its supply bank, so the steady-state scheduling path
// allocates nothing (see TestSimulateEventsSteadyStateAllocations).
type replayModel struct {
	d      *sim.Replay
	lat    schedule.LatencyModel
	cost   *costModel
	res    *Result
	supply sim.SupplyBank
	extra  []float64 // buffered sites: per-gate movement latency, held until the grant
}

var replayModelPool = sync.Pool{New: func() any { return new(replayModel) }}

// Issue implements sim.Issuer.
func (r *replayModel) Issue(gi int, ready float64) {
	_, g := r.d.Gate(gi)
	site, extra, ancillae := r.cost.dispatch(g)
	if issue, ok := r.supply.Acquire(site, ancillae, ready, r, gi); ok {
		r.run(gi, g, ready, issue, extra)
		return
	}
	r.extra[gi] = extra
}

// Fire implements sim.Handler: gate gi's buffered ancilla grant.
func (r *replayModel) Fire(gi int) {
	_, g := r.d.Gate(gi)
	r.run(gi, g, r.d.Ready(gi), float64(r.d.Kernel().Now()), r.extra[gi])
}

// run executes gate gi once its ancillae arrive at issue.
func (r *replayModel) run(gi int, g quantum.Gate, ready, issue, extra float64) {
	r.res.AncillaStallTime += iontrap.Microseconds(issue - ready)
	r.d.Finish(gi, issue+extra+float64(r.lat.GateWeightSpeedOfData(g)))
}

// Simulate runs the dataflow simulation of a logical circuit on the selected
// microarchitecture.  Gates issue in first-come-first-served order of data
// readiness (ties broken by gate index); each gate waits for its operands,
// for any required data movement (ballistic, teleportation, or cache
// fetch/writeback), and for the encoded ancillae its QEC step and teleports
// consume, drawn from the architecture's generator sources.
//
// Simulate executes on the discrete-event kernel of internal/sim and honours
// cfg.BufferAncillae: zero buffers the generators infinitely (the paper's
// closed-form token-bucket model, reproduced bit for bit — see
// SimulateClosedForm), a positive capacity bounds each source's buffer so
// production stalls when it fills and gates stall when it empties.
func Simulate(c *quantum.Circuit, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Arch: cfg.Arch, AncillaFactoryArea: cfg.AncillaFactoryArea(c.NumQubits)}
	if len(c.Gates) == 0 {
		return res, nil
	}
	rates, err := sourceRates(cfg, c.NumQubits)
	if err != nil {
		return Result{}, err
	}

	d := sim.AcquireReplay([]*quantum.Circuit{c})
	defer d.Release()
	r := replayModelPool.Get().(*replayModel)
	defer func() {
		r.d, r.cost, r.res = nil, nil, nil
		replayModelPool.Put(r)
	}()
	r.d, r.lat, r.res = d, cfg.Latency, &res
	r.cost = newCostModel(cfg, &res)
	if cfg.BufferAncillae > 0 && cap(r.extra) < len(c.Gates) {
		r.extra = make([]float64, len(c.Gates))
	}
	if err := r.supply.Reset(d.Kernel(), rates, cfg.BufferAncillae, func(i int) string {
		return fmt.Sprintf("%v ancilla source %d", cfg.Arch, i)
	}); err != nil {
		return Result{}, err
	}
	stats, err := d.Run(r)
	if err != nil {
		return Result{}, err
	}
	res.ExecutionTime = d.Makespan()
	res.Events = stats.Events
	res.BufferHighWater = r.supply.HighWater()
	res.ProducerStallTime = r.supply.StallTime()
	return res, nil
}
