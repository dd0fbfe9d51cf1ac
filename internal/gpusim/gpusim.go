// Package gpusim is the deterministic GPU execution-model simulator that
// stands in for the CUDA/V100 hardware of the GZKP paper (DESIGN.md §1).
//
// It is an *analytic* model: NTT and MSM strategies describe the kernels
// they would launch (grid shape, per-warp global-memory access pattern,
// field-operation counts, load balance), and the simulator prices them with
// the mechanisms the paper's results hinge on:
//
//   - warp-level coalescing: global traffic is rounded up to L2-line
//     granularity, so strided/fine-grained segments waste bandwidth
//     (§2.2's 13%→53% strided-access overhead, §3's shuffle motivation);
//   - occupancy: blocks whose thread count is not a multiple of the warp
//     size waste lanes (§5.3's "30 threads idling" in bellperson's last
//     batch), and grids far larger than the SM count pay per-block
//     scheduling overhead;
//   - separate integer and floating-point pipes, so routing limb products
//     to the FP units adds throughput (§4.3's finite-field library);
//   - load imbalance: a kernel's duration is set by its heaviest block
//     (§4.2's sparse-scalar straggler problem).
//
// Absolute times are not calibrated to silicon; the model preserves the
// relative shapes the paper reports, which is what EXPERIMENTS.md compares.
package gpusim

import (
	"fmt"
	"math"

	"gzkp/internal/telemetry"
)

// Device models one GPU.
type Device struct {
	Name            string
	SMs             int
	WarpSize        int
	MaxWarpsPerSM   int
	SharedMemPerSM  int64   // bytes
	L2LineBytes     int64   // coalescing granularity
	GlobalBytesPerS float64 // effective DRAM bandwidth
	ClockHz         float64
	// Per-SM per-cycle throughput of 64×64→128 integer multiply-adds.
	IntMulPerCycle float64
	// Per-SM per-cycle throughput of double-precision FMA ops.
	FPMulPerCycle float64
	// Fixed scheduling cost charged per launched block, in cycles.
	BlockOverheadCycles float64
	// Global memory capacity (for OOM checks, Fig. 9 / Table 7).
	MemBytes int64

	// Index is this device's logical index: its telemetry track.
	Index int
	// Telemetry, when non-nil, records every priced kernel launch as an
	// instant event on this device's track plus traffic/occupancy
	// counters (coalesced DRAM bytes actually moved vs. the useful bytes
	// requested — §2.2's strided-access gap, made observable).
	Telemetry *telemetry.Tracer
}

// V100 returns the NVIDIA Tesla V100 model used in the paper's main rig.
func V100() *Device {
	return &Device{
		Name: "V100", SMs: 80, WarpSize: 32, MaxWarpsPerSM: 64,
		SharedMemPerSM: 48 << 10, L2LineBytes: 32,
		GlobalBytesPerS: 900e9, ClockHz: 1.53e9,
		IntMulPerCycle: 32, FPMulPerCycle: 32,
		BlockOverheadCycles: 600,
		MemBytes:            32 << 30,
	}
}

// GTX1080Ti returns the lower-end GPU of Tables 6 and 8 (fewer SMs, less
// bandwidth, no fast FP64 pipe).
func GTX1080Ti() *Device {
	return &Device{
		Name: "GTX1080Ti", SMs: 28, WarpSize: 32, MaxWarpsPerSM: 64,
		SharedMemPerSM: 48 << 10, L2LineBytes: 32,
		GlobalBytesPerS: 484e9, ClockHz: 1.58e9,
		IntMulPerCycle: 32, FPMulPerCycle: 1, // consumer part: crippled FP64
		BlockOverheadCycles: 600,
		MemBytes:            11 << 30,
	}
}

// Access describes a global-memory access pattern issued by one kernel:
// Count segments of SegmentBytes contiguous bytes each. Segments shorter
// than the L2 line still move a full line (the coalescing penalty).
type Access struct {
	Count        int64
	SegmentBytes int64
}

// Traffic returns the DRAM bytes actually moved for the pattern.
func (a Access) Traffic(line int64) int64 {
	if a.Count == 0 || a.SegmentBytes == 0 {
		return 0
	}
	seg := a.SegmentBytes
	lines := (seg + line - 1) / line
	// A segment not aligned/contiguous with the line still occupies whole
	// lines; short segments are the pathological strided case.
	return a.Count * lines * line
}

// Kernel is one launch: the work shape plus aggregate op counts.
type Kernel struct {
	Name            string
	Blocks          int64
	ThreadsPerBlock int

	Loads  []Access
	Stores []Access

	// Aggregate field-operation counts over the whole grid, in units of
	// base-field (Fq/Fr) operations of LimbWords 64-bit words.
	FieldMuls int64
	FieldAdds int64
	LimbWords int

	// UseFPPipe routes the multiplier work through the FP units (§4.3's
	// library); otherwise the integer pipe is used.
	UseFPPipe bool

	// Imbalance is max-block-work / mean-block-work (≥ 1). The kernel's
	// compute time is stretched by it: stragglers gate the launch (§4.2).
	Imbalance float64

	// SharedMemPerBlock bounds occupancy.
	SharedMemPerBlock int64
}

// Result is the priced kernel.
type Result struct {
	Time        float64 // seconds
	ComputeTime float64
	MemTime     float64
	Overhead    float64
	TrafficB    int64
	Occupancy   float64 // fraction of SM warp slots doing useful work
}

// Run prices one kernel on the device.
func (d *Device) Run(k Kernel) (Result, error) {
	if k.Blocks <= 0 || k.ThreadsPerBlock <= 0 {
		return Result{}, fmt.Errorf("gpusim: kernel %q has empty grid", k.Name)
	}
	if k.LimbWords <= 0 && (k.FieldMuls > 0 || k.FieldAdds > 0) {
		return Result{}, fmt.Errorf("gpusim: kernel %q has field ops but no limb width", k.Name)
	}
	if k.SharedMemPerBlock > d.SharedMemPerSM {
		return Result{}, fmt.Errorf("gpusim: kernel %q wants %d B shared memory, SM has %d",
			k.Name, k.SharedMemPerBlock, d.SharedMemPerSM)
	}

	// --- Memory time: total coalesced traffic over device bandwidth.
	var traffic int64
	for _, a := range k.Loads {
		traffic += a.Traffic(d.L2LineBytes)
	}
	for _, a := range k.Stores {
		traffic += a.Traffic(d.L2LineBytes)
	}
	memTime := float64(traffic) / d.GlobalBytesPerS

	// --- Occupancy: lane waste from partial warps, SM-count underuse, and
	// shared-memory limits on resident blocks.
	warpsPerBlock := (k.ThreadsPerBlock + d.WarpSize - 1) / d.WarpSize
	laneUse := float64(k.ThreadsPerBlock) / float64(warpsPerBlock*d.WarpSize)
	residentBlocks := d.MaxWarpsPerSM / warpsPerBlock
	if residentBlocks < 1 {
		residentBlocks = 1
	}
	if k.SharedMemPerBlock > 0 {
		bySmem := int(d.SharedMemPerSM / k.SharedMemPerBlock)
		if bySmem < 1 {
			bySmem = 1
		}
		if bySmem < residentBlocks {
			residentBlocks = bySmem
		}
	}
	// Fraction of the device the grid can actually fill.
	gridWarps := float64(k.Blocks) * float64(warpsPerBlock)
	devWarps := float64(d.SMs) * float64(min(d.MaxWarpsPerSM, residentBlocks*warpsPerBlock))
	fill := gridWarps / devWarps
	if fill > 1 {
		fill = 1
	}
	occupancy := laneUse * fill

	// --- Compute time. GPU integer units multiply 32×32: a CIOS field mul
	// of w 64-bit limbs costs ≈ 4·(2w²+w) IMAD ops. The FP path (§4.3)
	// instead issues (64/26·w)² double FMAs (26-bit limbs, exact products)
	// on the FP pipe, with ≈2w² integer ops of carry recombination
	// co-issued on the integer pipe; the slower pipe gates the kernel.
	w := float64(k.LimbWords)
	intOpsPerSM := d.IntMulPerCycle * float64(d.SMs) * occupancy
	intPathOps := float64(k.FieldMuls)*4*(2*w*w+w) + float64(k.FieldAdds)*w
	cycles := intPathOps / intOpsPerSM
	if k.UseFPPipe {
		// The library dispatches per device: take the FP path only where
		// it wins (on a 1:32-FP64 consumer part it never does).
		fmas := float64(k.FieldMuls) * math.Pow(64.0/26.0*w, 2)
		intOps := float64(k.FieldMuls)*2*w*w + float64(k.FieldAdds)*w
		fpPerSM := d.FPMulPerCycle * float64(d.SMs) * occupancy
		fpCycles := math.Max(fmas/fpPerSM, intOps/intOpsPerSM)
		if fpCycles < cycles {
			cycles = fpCycles
		}
	}
	computeTime := cycles / d.ClockHz
	imb := k.Imbalance
	if imb < 1 {
		imb = 1
	}
	computeTime *= imb

	// --- Scheduling overhead: per-block fixed cost, amortized over SMs.
	overhead := float64(k.Blocks) * d.BlockOverheadCycles / (float64(d.SMs) * d.ClockHz)

	t := math.Max(computeTime, memTime) + overhead
	res := Result{
		Time: t, ComputeTime: computeTime, MemTime: memTime,
		Overhead: overhead, TrafficB: traffic, Occupancy: occupancy,
	}
	if d.Telemetry != nil {
		d.recordKernel(k, res)
	}
	return res, nil
}

// recordKernel publishes one priced launch to the attached tracer: an
// instant event on the device's track carrying the modeled time, plus
// counters separating the DRAM bytes actually moved (line-granular) from
// the useful bytes the access pattern asked for.
func (d *Device) recordKernel(k Kernel, r Result) {
	useful := int64(0)
	for _, a := range k.Loads {
		useful += a.Count * a.SegmentBytes
	}
	for _, a := range k.Stores {
		useful += a.Count * a.SegmentBytes
	}
	tr := d.Telemetry
	tr.Emit(telemetry.DeviceTrack(d.Index), "kernel", k.Name,
		telemetry.Int("modeled_ns", int64(r.Time*1e9)),
		telemetry.Int("traffic_bytes", r.TrafficB),
		telemetry.Int("useful_bytes", useful),
		telemetry.Int("occupancy_pct", int64(r.Occupancy*100)),
	)
	reg := tr.Registry()
	reg.Counter("gpusim.kernels").Add(1)
	reg.Counter("gpusim.modeled_ns").Add(int64(r.Time * 1e9))
	reg.Counter("gpusim.bytes_moved").Add(r.TrafficB)
	reg.Counter("gpusim.bytes_useful").Add(useful)
	reg.Gauge("gpusim.occupancy").Set(r.Occupancy)
}

// RunSeq prices a dependent kernel sequence (one stream: times add).
func (d *Device) RunSeq(ks []Kernel) (Result, error) {
	var total Result
	total.Occupancy = 1
	for _, k := range ks {
		r, err := d.Run(k)
		if err != nil {
			return Result{}, err
		}
		total.Time += r.Time
		total.ComputeTime += r.ComputeTime
		total.MemTime += r.MemTime
		total.Overhead += r.Overhead
		total.TrafficB += r.TrafficB
		if r.Occupancy < total.Occupancy {
			total.Occupancy = r.Occupancy
		}
	}
	return total, nil
}

// Cluster models a multi-GPU rig (Table 4): identical devices joined by an
// interconnect. Work split across devices finishes at the slowest device
// plus the cost of moving partition inputs/results.
type Cluster struct {
	Device        *Device
	N             int
	LinkBytesPerS float64 // per-direction interconnect bandwidth (PCIe/NVLink)
	LinkLatency   float64 // per-transfer fixed latency, seconds
}

// NewCluster builds an n-device cluster with a PCIe-3 x16-class link.
func NewCluster(d *Device, n int) *Cluster {
	return &Cluster{Device: d, N: n, LinkBytesPerS: 12e9, LinkLatency: 20e-6}
}

// RunPartitioned prices a workload split into N per-device kernel sequences
// plus exchangedBytes of inter-device traffic per device.
func (c *Cluster) RunPartitioned(perDevice [][]Kernel, exchangedBytes int64) (Result, error) {
	if len(perDevice) != c.N {
		return Result{}, fmt.Errorf("gpusim: cluster of %d devices given %d partitions", c.N, len(perDevice))
	}
	var worst Result
	for _, ks := range perDevice {
		r, err := c.Device.RunSeq(ks)
		if err != nil {
			return Result{}, err
		}
		if r.Time > worst.Time {
			worst = r
		}
	}
	xfer := c.LinkLatency + float64(exchangedBytes)/c.LinkBytesPerS
	worst.Time += xfer
	return worst, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
