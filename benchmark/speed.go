package main

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// The reference box is a shared two-core VM whose speed moves with its
// neighbours: the same fixed loop takes 290 ms in a quiet minute and 480 ms
// in a loud one, for minutes on end, on both cores at once (measured while
// this benchmark was written; README.md has the numbers). Wall-clock metrics
// inherit that 1.6× as run-to-run spread, and no regression bound survives
// it. So every run carries a speed probe: a goroutine that, every
// probePeriod, times a fixed piece of work that no change to the repository
// can alter (speedKernel below), and so records how fast the machine was at
// each moment of the run. A time measured over an interval is divided by the
// probe's slowdown over that same interval, which turns it into
// "milliseconds at reference speed". The probe costs about 2 % of one core,
// the same on both sides of any comparison.

const (
	probePeriod = 50 * time.Millisecond
	probeSpan   = time.Second // the shortest stretch a slowdown is taken over
	// referenceKernelNS is speedKernel's duration on the reference box in a
	// quiet minute; it only fixes the scale (slowdown 1.0 = that state).
	referenceKernelNS = 1.0e6
	// kernelRounds is sized so that the kernel takes that long.
	kernelRounds = 35000
)

// speedKernel is the fixed work: 4-limb schoolbook multiply-accumulates —
// independent 64-bit multiplies feeding carry chains, the instruction mix of
// the field arithmetic the workloads spend their time in. It allocates
// nothing and touches no memory beyond its stack frame, so nothing the
// program under test does to the heap or the collector changes its speed.
func speedKernel() uint64 {
	x := [4]uint64{0x9E3779B97F4A7C15, 0xD1B54A32D192ED03, 0x8CB92BA72F3D8DD7, 0x2545F4914F6CDD1D}
	var sink uint64
	for i := 0; i < kernelRounds; i++ {
		var z [8]uint64
		for a := 0; a < 4; a++ {
			var carry uint64
			for b := 0; b < 4; b++ {
				hi, lo := bits.Mul64(x[a], x[b]^uint64(i))
				var c uint64
				lo, c = bits.Add64(lo, carry, 0)
				hi += c
				z[a+b], c = bits.Add64(z[a+b], lo, 0)
				carry = hi + c
			}
			z[a+4] += carry
		}
		x[i&3] ^= z[4+(i&3)] | 1
		sink += z[7]
	}
	return sink
}

// interval is a stretch of wall-clock time.
type interval struct{ from, to time.Time }

func (iv interval) seconds() float64 { return iv.to.Sub(iv.from).Seconds() }

// probe is the running record of the machine's speed. A nil probe reads
// the clock as it is (slowdown 1).
type probe struct {
	stop chan struct{}
	done sync.WaitGroup

	mu   sync.Mutex
	at   []time.Time // when each sample started
	slow []float64   // its duration ÷ referenceKernelNS
	sink uint64      // keeps the kernel's result alive
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			sink := speedKernel()
			d := time.Since(t0)
			p.mu.Lock()
			p.at = append(p.at, t0)
			p.slow = append(p.slow, float64(d.Nanoseconds())/referenceKernelNS)
			p.sink += sink
			p.mu.Unlock()
		}
	}()
	return p
}

// finish stops the probe and waits for its goroutine.
func (p *probe) finish() {
	close(p.stop)
	p.done.Wait()
}

// slowdown is the machine's slowdown over iv: the median of the samples
// taken inside the interval, after widening it to at least probeSpan. The
// machine's speed moves over seconds, not milliseconds, so a short interval
// is better served by the twenty samples around it than by the one or two
// inside it, any of which may have been preempted.
func (p *probe) slowdown(iv interval) float64 {
	if p == nil {
		return 1
	}
	if short := probeSpan - iv.to.Sub(iv.from); short > 0 {
		iv = interval{iv.from.Add(-short / 2), iv.to.Add(short / 2)}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	lo := sort.Search(len(p.at), func(i int) bool { return !p.at[i].Before(iv.from) })
	hi := sort.Search(len(p.at), func(i int) bool { return p.at[i].After(iv.to) })
	if lo == hi {
		return 1 // the probe has no sample near iv
	}
	return median(p.slow[lo:hi])
}

// ms is the length of iv in milliseconds at reference speed.
func (p *probe) ms(iv interval) float64 { return 1e3 * iv.seconds() / p.slowdown(iv) }

// each is ms for every interval of ivs.
func (p *probe) each(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = p.ms(iv)
	}
	return out
}
