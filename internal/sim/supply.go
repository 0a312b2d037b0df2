package sim

import "speedofdata/internal/iontrap"

// SupplyBank is a set of supply sites a replay model draws from: the
// per-qubit or shared ancilla generators of a microarchitecture, the shared
// factory bank of a contention run, a mesh's per-tile zero factories or its
// per-link EPR channels.  Every site is either a fluid token bucket (the
// closed forms' infinite buffer) or a finite Resource fed by a rate-matched
// one-unit Producer.  The zero value is an empty bank; Reset reuses the
// storage of earlier runs, so a bank embedded in pooled run state rebuilds
// without allocating.
type SupplyBank struct {
	fluid  bool
	fluids []FluidSource
	bufs   []Resource
	prods  []Producer
}

// Reset rebuilds the bank with one site per rate (units per microsecond).
// A non-positive capacity makes every site a fluid token bucket; a positive
// one makes each a buffer of that capacity on k whose producer is started,
// labelled name(i) in diagnostics.
func (b *SupplyBank) Reset(k *Kernel, rates []float64, capacity float64, name func(i int) string) error {
	if capacity <= 0 {
		return b.ResetFluid(rates)
	}
	if err := b.ResetBuffered(k, rates, capacity, name); err != nil {
		return err
	}
	for i := range b.prods {
		b.prods[i].Start()
	}
	return nil
}

// ResetFluid rebuilds the bank as fluid token buckets, one per rate.
func (b *SupplyBank) ResetFluid(rates []float64) error {
	b.fluid = true
	b.fluids = resize(b.fluids, len(rates))
	for i, rate := range rates {
		if err := b.fluids[i].Reset(rate); err != nil {
			return err
		}
	}
	return nil
}

// ResetBuffered rebuilds the bank as buffers of the given capacity on k
// (non-positive = unbounded), each fed by a one-unit producer at its rate.
// The producers are not started: start them with Producer(i).Start, which
// lets a caller leave a site dead from the outset.
func (b *SupplyBank) ResetBuffered(k *Kernel, rates []float64, capacity float64, name func(i int) string) error {
	b.fluid = false
	b.bufs = resize(b.bufs, len(rates))
	b.prods = resize(b.prods, len(rates))
	for i, rate := range rates {
		n := name(i)
		b.bufs[i].Reset(k, n, capacity)
		if err := b.prods[i].Reset(k, n, &b.bufs[i], rate, 1); err != nil {
			return err
		}
	}
	return nil
}

// Acquire draws n units from site i for a request made at time start.  A
// fluid site answers at once: it returns the time the draw is satisfied
// (start, or later if the bucket has not yet produced the cumulative
// demand) and true.  A buffered site queues a FIFO request whose grant
// fires h.Fire(idx) as a normal-priority kernel event, and returns false.
func (b *SupplyBank) Acquire(i int, n, start float64, h Handler, idx int) (float64, bool) {
	if b.fluid {
		if t := b.fluids[i].AvailableAt(n); t > start {
			return t, true
		}
		return start, true
	}
	b.bufs[i].AcquireFire(n, h, idx)
	return 0, false
}

// Buffer returns buffered site i's resource.
func (b *SupplyBank) Buffer(i int) *Resource { return &b.bufs[i] }

// Producer returns buffered site i's producer.
func (b *SupplyBank) Producer(i int) *Producer { return &b.prods[i] }

// HighWater returns the peak buffered level across the sites (zero for a
// fluid bank, which has no buffer to measure).
func (b *SupplyBank) HighWater() float64 {
	peak := 0.0
	if b.fluid {
		return peak
	}
	for i := range b.bufs {
		if hw := b.bufs[i].HighWater(); hw > peak {
			peak = hw
		}
	}
	return peak
}

// StallTime returns the time the sites' producers spent blocked on full
// buffers, summed over sites (zero for a fluid bank).
func (b *SupplyBank) StallTime() iontrap.Microseconds {
	var total iontrap.Microseconds
	if b.fluid {
		return total
	}
	for i := range b.prods {
		total += b.prods[i].StallTime()
	}
	return total
}
