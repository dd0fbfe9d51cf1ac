package gpusim

import (
	"fmt"
	mrand "math/rand"
	"strconv"
	"strings"
	"sync"

	"gzkp/internal/resilience"
)

// FaultKind names one injectable failure mode.
type FaultKind int

const (
	// FaultDeviceLost permanently kills the device at the chosen step: the
	// triggering launch and every later launch on it fail with
	// *resilience.DeviceLostError.
	FaultDeviceLost FaultKind = iota
	// FaultTransient fails Times consecutive launches with a retryable
	// *resilience.TransientError; later launches succeed.
	FaultTransient
	// FaultOOM fails Times launches with *resilience.OOMError, modeling
	// the memory exhaustion of the paper's Table 7 / Fig. 9 rows.
	FaultOOM
	// FaultPanic panics inside the launching goroutine — it exercises
	// internal/par's panic containment, standing in for driver bugs that
	// do not fail cleanly.
	FaultPanic
)

func (k FaultKind) String() string {
	switch k {
	case FaultDeviceLost:
		return "kill"
	case FaultTransient:
		return "transient"
	case FaultOOM:
		return "oom"
	case FaultPanic:
		return "panic"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault schedules one injection on a logical device.
type Fault struct {
	Kind   FaultKind
	Device int // logical device index
	// Step is the 0-based launch index on Device at which the fault fires;
	// a negative Step is resolved deterministically from the plan seed
	// (uniform in [0, 8)).
	Step int
	// Times is the number of consecutive launches affected (Transient and
	// OOM; 0 means 1). DeviceLost is sticky regardless.
	Times int
}

// FaultPlan deterministically injects device faults into pipeline
// launches. Consumers (groth16's prover and Device.Run) call BeforeLaunch
// once per kernel launch / shard compute; the plan keeps a per-device
// launch counter and fires the scheduled faults at their steps. The same seed and schedule always
// produce the same fault sequence, which is what makes fault-recovery tests
// reproducible.
type FaultPlan struct {
	mu       sync.Mutex
	launches map[int]int
	dead     map[int]bool
	faults   []Fault
}

// NewFaultPlan builds a plan from a seed and a schedule. The seed only
// matters for faults with a negative Step.
func NewFaultPlan(seed int64, faults ...Fault) *FaultPlan {
	rng := mrand.New(mrand.NewSource(seed))
	p := &FaultPlan{launches: map[int]int{}, dead: map[int]bool{}}
	for _, f := range faults {
		if f.Step < 0 {
			f.Step = rng.Intn(8)
		}
		if f.Times <= 0 {
			f.Times = 1
		}
		p.faults = append(p.faults, f)
	}
	return p
}

// BeforeLaunch accounts one launch on device dev and returns the injected
// fault for this step, if any. A device killed by FaultDeviceLost keeps
// failing every subsequent launch. FaultPanic panics instead of returning.
func (p *FaultPlan) BeforeLaunch(dev int) error {
	p.mu.Lock()
	step := p.launches[dev]
	p.launches[dev] = step + 1
	if p.dead[dev] {
		p.mu.Unlock()
		return &resilience.DeviceLostError{Device: dev}
	}
	var hit Fault
	found := false
	for _, f := range p.faults {
		if f.Device == dev && step >= f.Step && step < f.Step+f.Times {
			hit, found = f, true
			break
		}
	}
	if found && hit.Kind == FaultDeviceLost {
		p.dead[dev] = true
	}
	p.mu.Unlock()
	if !found {
		return nil
	}
	op := fmt.Sprintf("device %d launch %d", dev, step)
	switch hit.Kind {
	case FaultDeviceLost:
		return &resilience.DeviceLostError{Device: dev}
	case FaultTransient:
		return &resilience.TransientError{Op: op}
	case FaultOOM:
		return &resilience.OOMError{Op: op}
	case FaultPanic:
		panic(fmt.Sprintf("gpusim: injected panic at %s", op))
	}
	return nil
}

// Launches reports how many launches have been accounted on dev.
func (p *FaultPlan) Launches(dev int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.launches[dev]
}

// Reset clears the launch counters and revives dead devices, keeping the
// schedule — reusing one plan across pipeline runs.
func (p *FaultPlan) Reset() {
	p.mu.Lock()
	p.launches = map[int]int{}
	p.dead = map[int]bool{}
	p.mu.Unlock()
}

// ParseFaultPlan parses the --inject-faults syntax: comma-separated
// entries of the form KIND:DEV@STEP[xN] where KIND is kill | transient |
// oom | panic, DEV is the logical device index, STEP is the 0-based launch
// index on that device (or "?" for a seeded random step) and the optional
// xN repeats the fault for N consecutive launches.
//
//	kill:1@2            kill device 1 at its 3rd launch
//	transient:0@1x2     fail device 0's launches 1 and 2 transiently
//	oom:2@0             OOM device 2's first launch
func ParseFaultPlan(spec string, seed int64) (*FaultPlan, error) {
	var faults []Fault
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("gpusim: fault %q: want KIND:DEV@STEP[xN]", entry)
		}
		var kind FaultKind
		switch kindStr {
		case "kill":
			kind = FaultDeviceLost
		case "transient":
			kind = FaultTransient
		case "oom":
			kind = FaultOOM
		case "panic":
			kind = FaultPanic
		default:
			return nil, fmt.Errorf("gpusim: fault %q: unknown kind %q", entry, kindStr)
		}
		devStr, stepStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("gpusim: fault %q: missing @STEP", entry)
		}
		dev, err := strconv.Atoi(devStr)
		if err != nil || dev < 0 {
			return nil, fmt.Errorf("gpusim: fault %q: bad device %q", entry, devStr)
		}
		times := 1
		if stepStr2, timesStr, ok := strings.Cut(stepStr, "x"); ok {
			if times, err = strconv.Atoi(timesStr); err != nil || times < 1 {
				return nil, fmt.Errorf("gpusim: fault %q: bad repeat %q", entry, timesStr)
			}
			stepStr = stepStr2
		}
		step := -1
		if stepStr != "?" {
			if step, err = strconv.Atoi(stepStr); err != nil || step < 0 {
				return nil, fmt.Errorf("gpusim: fault %q: bad step %q", entry, stepStr)
			}
		}
		faults = append(faults, Fault{Kind: kind, Device: dev, Step: step, Times: times})
	}
	if len(faults) == 0 {
		return nil, fmt.Errorf("gpusim: empty fault spec %q", spec)
	}
	return NewFaultPlan(seed, faults...), nil
}
