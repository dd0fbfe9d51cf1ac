package bench

import (
	"fmt"

	"gzkp/internal/core"
	"gzkp/internal/curve"
	"gzkp/internal/gpusim"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/workload"
)

// engineSet bundles the three contenders of Tables 2-3.
type engineSet struct {
	bestCPU *core.Engine
	bestGPU *core.Engine
	gzkp    *core.Engine
}

func enginesFor(id curve.ID) engineSet {
	cpu := &core.Engine{
		Curve: curve.Get(id),
		NTT:   ntt.Config{Strategy: ntt.Serial},
		MSM:   msm.Config{Strategy: msm.PippengerWindows, Workers: 1},
	}
	var gpu *core.Engine
	if id == curve.MNT4753Sim {
		// Best-GPU for 753-bit is MINA: Straus MSM, POLY left on the CPU.
		gpu = &core.Engine{
			Curve: curve.Get(id),
			NTT:   ntt.Config{Strategy: ntt.Serial},
			MSM:   msm.Config{Strategy: msm.Straus},
		}
	} else {
		// Best-GPU for BLS12-381 is bellperson.
		gpu = core.NewBaseline(id)
	}
	return engineSet{bestCPU: cpu, bestGPU: gpu, gzkp: core.NewGZKP(id)}
}

// runE2E measures the three engines on one workload.
func runE2E(o Options, tb *table, app workload.App, maxN int, seed int64) error {
	p, err := workload.BuildPipeline(app, maxN, seed)
	if err != nil {
		return err
	}
	es := enginesFor(app.Curve)
	rc, err := es.bestCPU.ProvePipeline(p)
	if err != nil {
		return err
	}
	rg, err := es.bestGPU.ProvePipeline(p)
	if err != nil {
		return err
	}
	rz, err := es.gzkp.ProvePipeline(p)
	if err != nil {
		return err
	}
	for _, m := range []struct {
		name string
		r    *core.Result
	}{
		{"best-cpu", rc}, {"best-gpu", rg}, {"gzkp", rz},
	} {
		s := Sample{Section: "measured", Name: app.Name + "/" + m.name, N: p.N,
			NSOp: m.r.TotalNS()}
		for _, ms := range m.r.MSMStats {
			s.PointAdds += ms.PointAdds
			s.Doubles += ms.Doubles
			s.TableBytes += ms.TableBytes
			s.TrafficBytes += ms.TrafficBytes
		}
		o.record(s)
	}
	tb.row(app.Name, fmt.Sprintf("%d", p.N),
		fmtNS(rc.PolyNS), fmtNS(rc.MSMNS),
		fmtNS(rg.PolyNS), fmtNS(rg.MSMNS),
		fmtNS(rz.PolyNS), fmtNS(rz.MSMNS),
		fmtX(float64(rc.TotalNS())/float64(rz.TotalNS())),
		fmtX(float64(rg.TotalNS())/float64(rz.TotalNS())),
	)
	return nil
}

// windowFor returns the window size each system's own tuning would pick:
// GZKP profiles per scale (§4.1); bellperson sizes windows to its sub-MSM
// chunks; MINA's Straus tables force a small fixed window.
func windowFor(v msm.ModelVariantMSM, logN int) int {
	switch v {
	case msm.ModelStraus:
		return 5
	case msm.ModelBellperson:
		// Windows sized to bellperson's sub-MSM chunks (V100 grid).
		_, k := msm.BellpersonPlan(1<<logN, gpusim.V100())
		return k
	default:
		return msm.AutoWindow(1 << logN)
	}
}

// modelE2E prices the paper-scale pipeline on the V100 model: 7 NTTs +
// 5 MSMs (4 sparse-ū + 1 dense-h̄) per proof.
func modelE2E(dev *gpusim.Device, app workload.App, nttBG, nttGZ ntt.ModelVariant,
	msmBG msm.ModelVariantMSM) (bg, gz float64, bgOOM bool, err error) {
	c := curve.Get(app.Curve)
	words := c.Fq.Limbs()
	frWords := c.Fr.Limbs()
	logN := log2ceil(app.VectorSize)

	stage := func(nv ntt.ModelVariant, mv msm.ModelVariantMSM) (float64, bool, error) {
		k := windowFor(mv, logN)
		nttRes, err := ntt.ModelTime(dev, nv, logN, frWords)
		if err != nil {
			return 0, false, err
		}
		total := 7 * nttRes.Time
		for i := 0; i < 5; i++ {
			sp := app.Sparsity
			if i == 4 {
				sp = 0
			}
			st := msm.SyntheticDigitStats(1<<logN, k, c.Fr.Bits(), sp, 7)
			r, mr, err := msm.ModelTime(dev, mv, st, words, 0)
			if err != nil {
				return 0, false, err
			}
			if mr.OOM {
				return 0, true, nil
			}
			total += r.Time
		}
		return total, false, nil
	}
	bg, bgOOM, err = stage(nttBG, msmBG)
	if err != nil {
		return 0, 0, false, err
	}
	gz, _, err = stage(nttGZ, msm.ModelGZKPFull)
	return bg, gz, bgOOM, err
}

// Table2 regenerates the zkSNARK end-to-end comparison (753-bit).
func Table2(o Options) error {
	w := o.out()
	// 753-bit wall-clock work is ~25× costlier per element than 256-bit;
	// the default cap keeps the six-app sweep around a minute.
	maxN := 1 << 10
	if o.MaxScale > 0 {
		maxN = 1 << o.MaxScale
	}
	if o.Quick {
		maxN = minInt(maxN, 1<<9)
	}

	section(w, "Table 2 (modeled, V100, paper scales): MNT4753-sim 753-bit")
	tm := newTable(w, "Application", "Vector", "BG total", "GZKP total", "Speedup(BG)")
	for _, app := range workload.Table2 {
		bg, gz, oom, err := modelE2E(gpusim.V100(), app, ntt.ModelBaseline, ntt.ModelGZKP, msm.ModelStraus)
		if err != nil {
			return err
		}
		bgCell, spd := fmtDur(bg), fmtX(bg/gz)
		if oom {
			bgCell, spd = "OOM", "-"
		}
		tm.row(app.Name, fmt.Sprintf("%d", app.VectorSize), bgCell, fmtDur(gz), spd)
	}
	tm.flush()

	section(w, fmt.Sprintf("Table 2 (measured, capped at N=%d): Best-CPU vs Best-GPU-plan vs GZKP", maxN))
	tb := newTable(w, "Application", "N",
		"BC.POLY", "BC.MSM", "BG.POLY", "BG.MSM", "GZ.POLY", "GZ.MSM",
		"Spd(BC)", "Spd(BG)")
	for i, app := range workload.Table2 {
		if err := runE2E(o, tb, app, maxN, int64(100+i)); err != nil {
			return err
		}
		if o.Quick {
			break
		}
	}
	tb.flush()
	return nil
}

// Table3 regenerates the Zcash comparison (BLS12-381).
func Table3(o Options) error {
	w := o.out()
	maxN := 1 << 12
	if o.MaxScale > 0 {
		maxN = 1 << o.MaxScale
	}
	if o.Quick {
		maxN = minInt(maxN, 1<<9)
	}

	section(w, "Table 3 (modeled, V100, paper scales): BLS12-381")
	tm := newTable(w, "Workload", "Vector", "BG total", "GZKP total", "Speedup(BG)")
	for _, app := range workload.Table3 {
		bg, gz, oom, err := modelE2E(gpusim.V100(), app, ntt.ModelBaseline, ntt.ModelGZKP, msm.ModelBellperson)
		if err != nil {
			return err
		}
		bgCell, spd := fmtDur(bg), fmtX(bg/gz)
		if oom {
			bgCell, spd = "OOM", "-"
		}
		tm.row(app.Name, fmt.Sprintf("%d", app.VectorSize), bgCell, fmtDur(gz), spd)
	}
	tm.flush()

	section(w, fmt.Sprintf("Table 3 (measured, capped at N=%d)", maxN))
	tb := newTable(w, "Workload", "N",
		"BC.POLY", "BC.MSM", "BG.POLY", "BG.MSM", "GZ.POLY", "GZ.MSM",
		"Spd(BC)", "Spd(BG)")
	for i, app := range workload.Table3 {
		if err := runE2E(o, tb, app, maxN, int64(200+i)); err != nil {
			return err
		}
		if o.Quick {
			break
		}
	}
	tb.flush()
	return nil
}

// Table4 regenerates the 4-GPU scaling experiment on the cluster model.
func Table4(o Options) error {
	w := o.out()
	dev := gpusim.V100()
	cluster := gpusim.NewCluster(dev, 4)

	section(w, "Table 4 (modeled): Zcash on 4×V100, BLS12-381")
	tb := newTable(w, "Workload", "Vector",
		"GZKP 1dev", "GZKP 4dev", "4dev gain", "BG 4dev", "Speedup(BG)")
	c := curve.Get(curve.BLS12381)
	words, frWords := c.Fq.Limbs(), c.Fr.Limbs()
	for _, app := range workload.Table3 {
		logN := log2ceil(app.VectorSize)
		mkKernels := func(mv msm.ModelVariantMSM, nv ntt.ModelVariant, n int) ([]gpusim.Kernel, error) {
			k := windowFor(mv, logN)
			var ks []gpusim.Kernel
			nttK, err := ntt.Model(dev, nv, logN, frWords)
			if err != nil {
				return nil, err
			}
			// 7 NTTs round-robined over 4 devices → ceil(7/4) = 2 each.
			for i := 0; i < 2; i++ {
				ks = append(ks, nttK...)
			}
			for i := 0; i < 5; i++ {
				sp := app.Sparsity
				if i == 4 {
					sp = 0
				}
				st := msm.SyntheticDigitStats(n, k, c.Fr.Bits(), sp, 7)
				mr, err := msm.ModelMSM(dev, mv, st, words, 0)
				if err != nil {
					return nil, err
				}
				ks = append(ks, mr.Kernels...)
			}
			return ks, nil
		}
		single, _, err := singleDeviceE2E(dev, app, frWords, words, msm.AutoWindow(1<<logN))
		if err != nil {
			return err
		}
		quarter, err := mkKernels(msm.ModelGZKPFull, ntt.ModelGZKP, (1<<logN)/4)
		if err != nil {
			return err
		}
		exchanged := int64(1<<logN) * int64(words*16) / 4
		parts := [][]gpusim.Kernel{quarter, quarter, quarter, quarter}
		multi, err := cluster.RunPartitioned(parts, exchanged)
		if err != nil {
			return err
		}
		bgQuarter, err := mkKernels(msm.ModelBellperson, ntt.ModelBaseline, (1<<logN)/4)
		if err != nil {
			return err
		}
		bgParts := [][]gpusim.Kernel{bgQuarter, bgQuarter, bgQuarter, bgQuarter}
		bgMulti, err := cluster.RunPartitioned(bgParts, exchanged)
		if err != nil {
			return err
		}
		tb.row(app.Name, fmt.Sprintf("%d", app.VectorSize),
			fmtDur(single), fmtDur(multi.Time),
			fmtX(single/multi.Time),
			fmtDur(bgMulti.Time), fmtX(bgMulti.Time/multi.Time))
	}
	tb.flush()
	return nil
}

func singleDeviceE2E(dev *gpusim.Device, app workload.App, frWords, words, k int) (float64, bool, error) {
	c := curve.Get(app.Curve)
	logN := log2ceil(app.VectorSize)
	nttRes, err := ntt.ModelTime(dev, ntt.ModelGZKP, logN, frWords)
	if err != nil {
		return 0, false, err
	}
	total := 7 * nttRes.Time
	for i := 0; i < 5; i++ {
		sp := app.Sparsity
		if i == 4 {
			sp = 0
		}
		st := msm.SyntheticDigitStats(1<<logN, k, c.Fr.Bits(), sp, 7)
		r, mr, err := msm.ModelTime(dev, msm.ModelGZKPFull, st, words, 0)
		if err != nil {
			return 0, false, err
		}
		if mr.OOM {
			return 0, true, nil
		}
		total += r.Time
	}
	return total, false, nil
}

func log2ceil(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
