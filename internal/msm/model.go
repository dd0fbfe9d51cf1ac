package msm

import (
	"fmt"
	mrand "math/rand"

	"gzkp/internal/ff"
	"gzkp/internal/gpusim"
)

// DigitStats summarizes a scalar vector's windowed digit distribution —
// everything the GPU cost model needs, without materializing points. Stats
// can be collected from real scalars or synthesized for paper-scale N.
type DigitStats struct {
	N          int
	WindowBits int
	Windows    int
	// NonzeroDigits is the total point-merging work (Σ over windows of
	// nonzero digits); zero digits are free (§4.2).
	NonzeroDigits int64
	// BucketLoads[j-1] is the number of points merged into bucket j.
	BucketLoads []int64
	// WindowNonzeros[t] is the nonzero-digit count of window t (drives the
	// window-parallel baselines' imbalance on sparse ū).
	WindowNonzeros []int64
}

// CollectDigitStats summarizes real scalars.
func CollectDigitStats(f *ff.Field, scalars []ff.Element, k int) DigitStats {
	dg := newDigits(f, scalars, k)
	st := DigitStats{
		N: len(scalars), WindowBits: k, Windows: dg.windows,
		BucketLoads:    make([]int64, 1<<k-1),
		WindowNonzeros: make([]int64, dg.windows),
	}
	for i := 0; i < dg.n; i++ {
		for t := 0; t < dg.windows; t++ {
			j := dg.digit(i, t)
			if j == 0 {
				continue
			}
			st.NonzeroDigits++
			st.BucketLoads[j-1]++
			st.WindowNonzeros[t]++
		}
	}
	return st
}

// SyntheticDigitStats builds a deterministic paper-scale distribution
// mirroring workload.SparseScalars: of the `sparsity` fraction, 3/4 are
// zeros (no digits anywhere), 1/8 exact ones (bucket 1, window 0 — the
// Fig. 6 spike) and 1/8 small 16-bit values (digits only in the lowest
// ⌈16/k⌉ windows); the rest contribute uniform digits with deterministic
// jitter. sparsity 0 models the dense h̄ vector.
func SyntheticDigitStats(n int, k, scalarBits int, sparsity float64, seed int64) DigitStats {
	windows := (scalarBits + k - 1) / k
	numBuckets := 1<<k - 1
	rng := mrand.New(mrand.NewSource(seed))
	st := DigitStats{
		N: n, WindowBits: k, Windows: windows,
		BucketLoads:    make([]int64, numBuckets),
		WindowNonzeros: make([]int64, windows),
	}
	ones := int64(float64(n) * sparsity * 0.125)
	smalls := int64(float64(n) * sparsity * 0.125)
	dense := float64(n) * (1 - sparsity)

	// Dense scalars: each window's digit is uniform in [0, 2^k); nonzero
	// with probability (2^k-1)/2^k.
	perWindowDense := dense * float64(numBuckets) / float64(numBuckets+1)
	for t := 0; t < windows; t++ {
		st.WindowNonzeros[t] = int64(perWindowDense)
	}
	// Small values: digits in the lowest ⌈16/k⌉ windows only.
	smallWindows := (16 + k - 1) / k
	if smallWindows > windows {
		smallWindows = windows
	}
	for t := 0; t < smallWindows; t++ {
		st.WindowNonzeros[t] += smalls * int64(numBuckets) / int64(numBuckets+1)
	}
	// Ones: digit 1 in window 0 only.
	st.WindowNonzeros[0] += ones
	// Bucket loads: uniform dense share with jitter, the small-value mass
	// spread evenly, and the ones spike on bucket 1.
	denseTotal := int64(perWindowDense) * int64(windows)
	smallTotal := smalls * int64(smallWindows)
	mean := float64(denseTotal+smallTotal) / float64(numBuckets)
	for j := 0; j < numBuckets; j++ {
		jitter := 1 + 0.35*(rng.Float64()*2-1)
		st.BucketLoads[j] = int64(mean * jitter)
	}
	st.BucketLoads[0] += ones
	for _, l := range st.BucketLoads {
		st.NonzeroDigits += l
	}
	return st
}

// LoadSpread returns max/min over nonzero bucket loads (Fig. 6's metric).
func (s DigitStats) LoadSpread() float64 {
	var max, min int64 = 0, 1 << 62
	for _, l := range s.BucketLoads {
		if l > max {
			max = l
		}
		if l > 0 && l < min {
			min = l
		}
	}
	if min == 0 || min == 1<<62 {
		return 0
	}
	return float64(max) / float64(min)
}

// imbalanceOver computes max/mean chunk work when items are statically
// chunked over `chunks` workers in index order.
func imbalanceOver(loads []int64, chunks int) float64 {
	if len(loads) == 0 || chunks <= 0 {
		return 1
	}
	if chunks > len(loads) {
		chunks = len(loads)
	}
	size := (len(loads) + chunks - 1) / chunks
	var total, maxChunk int64
	for c := 0; c < chunks; c++ {
		lo, hi := c*size, (c+1)*size
		if lo > len(loads) {
			lo = len(loads)
		}
		if hi > len(loads) {
			hi = len(loads)
		}
		var sum int64
		for _, l := range loads[lo:hi] {
			sum += l
		}
		total += sum
		if sum > maxChunk {
			maxChunk = sum
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(chunks)
	if mean == 0 {
		return 1
	}
	imb := float64(maxChunk) / mean
	if imb < 1 {
		return 1
	}
	return imb
}

// Per-operation coordinate-field multiply costs (Jacobian formulas of
// internal/curve): mixed add ≈ 11 mul+sq, full add ≈ 16, double ≈ 8.
const (
	mixedAddMuls = 11
	mixedAddAdds = 7
	fullAddMuls  = 16
	doubleMuls   = 8
)

// ModelVariantMSM names the priced MSM plans (Tables 7-8, Fig. 10).
type ModelVariantMSM int

const (
	// ModelBellperson is "BG": sub-MSM × window grid, window reduction on
	// the host, integer library.
	ModelBellperson ModelVariantMSM = iota
	// ModelGZKPNoLB: bucket partitioning + consolidation, no load-grouped
	// scheduling, integer library ("GZKP-no-LB").
	ModelGZKPNoLB
	// ModelGZKPNoLBLib: + FP library ("GZKP-no-LB w. lib").
	ModelGZKPNoLBLib
	// ModelGZKPFull: + load balancing (the complete §4 design).
	ModelGZKPFull
	// ModelStraus is MINA: per-point tables, window walk (753-bit baseline).
	ModelStraus
)

func (v ModelVariantMSM) String() string {
	switch v {
	case ModelBellperson:
		return "BG"
	case ModelGZKPNoLB:
		return "GZKP-no-LB"
	case ModelGZKPNoLBLib:
		return "GZKP-no-LB w. lib"
	case ModelGZKPFull:
		return "GZKP"
	case ModelStraus:
		return "MINA(Straus)"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// BellpersonPlan returns the sub-MSM grid and window size the bellperson
// baseline would configure for an n-point MSM on dev: enough sub-MSMs to
// fill the device (~1k points each), windows sized to the chunk so the
// per-chunk bucket sets stay proportionate.
func BellpersonPlan(n int, dev *gpusim.Device) (numSub int64, k int) {
	numSub = int64(n) / 1024
	// Enough 256-thread blocks to fill every warp slot on the device.
	if floor := int64(dev.SMs * dev.MaxWarpsPerSM / 8); numSub < floor {
		numSub = floor
	}
	if numSub > int64(n) {
		numSub = maxI64(int64(n)/16, 1)
	}
	chunk := int64(n) / maxI64(numSub, 1)
	k = 0
	for 1<<uint(k+1) <= chunk {
		k++
	}
	if k < 4 {
		k = 4
	}
	if k > 10 {
		k = 10
	}
	return numSub, k
}

// ModelResult bundles the priced kernels with the plan's memory footprint.
type ModelResult struct {
	Kernels  []gpusim.Kernel
	MemBytes int64
	OOM      bool
}

// ModelMSM builds the kernel sequence for one MSM of the given digit
// distribution on dev. coordWords is the coordinate-field width in 64-bit
// words (Fq for G1); checkpointM is Algorithm 1's M for the GZKP variants
// (0 = auto against the device's memory).
func ModelMSM(dev *gpusim.Device, v ModelVariantMSM, stats DigitStats, coordWords, checkpointM int) (ModelResult, error) {
	n := int64(stats.N)
	if n == 0 {
		return ModelResult{}, fmt.Errorf("msm: empty stats")
	}
	k := stats.WindowBits
	nw := int64(stats.Windows)
	pointB := int64(2 * coordWords * 8)
	numBuckets := int64(1<<k - 1)

	switch v {
	case ModelStraus:
		// MINA: per-point tables 2^k-1 entries. Memory explodes with N —
		// Table 7's OOM row.
		tableB := n * numBuckets * pointB
		adds := stats.NonzeroDigits // one table add per nonzero digit
		doubles := nw * int64(k)    // per chunk; chunks run in parallel
		kern := gpusim.Kernel{
			Name: "straus-walk", Blocks: maxI64(n/256, 1), ThreadsPerBlock: 256,
			Loads:     []gpusim.Access{{Count: adds, SegmentBytes: pointB}},
			FieldMuls: adds*mixedAddMuls + doubles*doubleMuls,
			FieldAdds: adds * mixedAddAdds,
			LimbWords: coordWords,
			Imbalance: imbalanceOver(stats.WindowNonzeros, dev.SMs),
		}
		build := gpusim.Kernel{
			Name: "straus-tables", Blocks: maxI64(n/256, 1), ThreadsPerBlock: 256,
			Stores:    []gpusim.Access{{Count: 1, SegmentBytes: tableB}},
			FieldMuls: n * numBuckets * mixedAddMuls,
			FieldAdds: n * numBuckets * mixedAddAdds,
			LimbWords: coordWords,
		}
		return ModelResult{
			Kernels:  []gpusim.Kernel{build, kern},
			MemBytes: tableB + n*pointB,
			OOM:      tableB+n*pointB > dev.MemBytes,
		}, nil

	case ModelBellperson:
		// Sub-MSM grid: every (sub, window) task owns a private bucket set;
		// the redundant per-sub bucket reductions are the cost GZKP's
		// consolidation removes (§4.1).
		numSub, _ := BellpersonPlan(int(n), dev)
		adds := stats.NonzeroDigits
		redAdds := numSub * nw * 2 * numBuckets
		// Bucket storage is bounded by the resident grid (sub-MSMs beyond
		// it run in later waves reusing the same buffers), which is why
		// bellperson's memory curve stays below GZKP's on BLS12-381
		// (Fig. 9) — it trades memory for the redundant reductions.
		resident := numSub
		if cap := int64(dev.SMs * 8); resident > cap {
			resident = cap
		}
		buckets := resident * nw * numBuckets * 3 * int64(coordWords) * 8
		merge := gpusim.Kernel{
			Name: "submsm-merge+reduce", Blocks: numSub,
			ThreadsPerBlock: 256,
			Loads: []gpusim.Access{
				{Count: adds, SegmentBytes: pointB},
			},
			FieldMuls: adds*mixedAddMuls + redAdds*fullAddMuls,
			FieldAdds: adds * mixedAddAdds,
			LimbWords: coordWords,
			Imbalance: imbalanceOver(stats.WindowNonzeros, int(nw)),
		}
		// Host-side window reduction (serial k doublings per window) is
		// modeled as a single-block kernel.
		wred := gpusim.Kernel{
			Name: "window-reduce", Blocks: 1, ThreadsPerBlock: 32,
			FieldMuls: nw * (int64(k)*doubleMuls + fullAddMuls) * numSub / numSub,
			LimbWords: coordWords,
		}
		return ModelResult{
			Kernels:  []gpusim.Kernel{merge, wred},
			MemBytes: buckets + n*pointB,
			OOM:      buckets+n*pointB > dev.MemBytes,
		}, nil

	case ModelGZKPNoLB, ModelGZKPNoLBLib, ModelGZKPFull:
		m := checkpointM
		if m <= 0 {
			// Auto: biggest table fitting half the device memory.
			m = AutoCheckpoint(coordWords, int(n), k, int(nw)*k, dev.MemBytes/2)
		}
		checkpoints := (int(nw) + m - 1) / m
		tableB := int64(checkpoints) * n * pointB
		pidxB := stats.NonzeroDigits * 4
		adds := stats.NonzeroDigits
		// Checkpoint fix-up via the paper's per-bucket Horner chain: (M-1)·k
		// doublings plus M-1 adds per bucket, independent of N. (The CPU
		// kernel runs one chain per MSM instead; the model prices the paper's.)
		fixDoubles := numBuckets * int64((m-1)*k)
		adds += numBuckets * int64(m-1)
		useFP := v != ModelGZKPNoLB
		imb := imbalanceOver(stats.BucketLoads, dev.SMs)
		if v == ModelGZKPFull {
			// Load-grouped heaviest-first dispatch levels the chunks.
			imb = 1.05
		}
		merge := gpusim.Kernel{
			Name:   "bucket-merge",
			Blocks: maxI64(numBuckets/8, 1), ThreadsPerBlock: 256,
			Loads: []gpusim.Access{
				{Count: adds, SegmentBytes: pointB},
				{Count: 1, SegmentBytes: pidxB},
			},
			FieldMuls: adds*mixedAddMuls + fixDoubles*doubleMuls,
			FieldAdds: adds * mixedAddAdds,
			LimbWords: coordWords,
			UseFPPipe: useFP,
			Imbalance: imb,
		}
		reduce := gpusim.Kernel{
			Name:   "bucket-reduce",
			Blocks: maxI64(numBuckets/256, 1), ThreadsPerBlock: 256,
			FieldMuls: 2 * numBuckets * fullAddMuls,
			LimbWords: coordWords,
			UseFPPipe: useFP,
		}
		return ModelResult{
			Kernels:  []gpusim.Kernel{merge, reduce},
			MemBytes: tableB + pidxB,
			OOM:      tableB+pidxB > dev.MemBytes,
		}, nil
	}
	return ModelResult{}, fmt.Errorf("msm: unknown model variant %d", v)
}

// ModelTime prices one MSM end to end (returns OOM as an error-free flag in
// the result so tables can print "-" like the paper).
func ModelTime(dev *gpusim.Device, v ModelVariantMSM, stats DigitStats, coordWords, checkpointM int) (gpusim.Result, ModelResult, error) {
	mr, err := ModelMSM(dev, v, stats, coordWords, checkpointM)
	if err != nil {
		return gpusim.Result{}, mr, err
	}
	if mr.OOM {
		return gpusim.Result{}, mr, nil
	}
	r, err := dev.RunSeq(mr.Kernels)
	return r, mr, err
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
