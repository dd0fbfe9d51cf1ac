package ntt

import (
	"context"
	"time"

	"gzkp/internal/ff"
	"gzkp/internal/par"
)

// Batched-iteration machinery shared by ShuffleBaseline and GZKP.
//
// After s_done completed iterations, the butterflies of the next Bb
// iterations couple exactly the indices that agree on every bit outside
// [s_done, s_done+Bb): an independent group (§2.2, Fig. 4). Writing an
// index as
//
//	idx = hi·2^(s_done+Bb) + t·2^s_done + lo,   lo < 2^s_done, t < 2^Bb,
//
// the group is identified by g = hi·2^s_done + lo and t enumerates its 2^Bb
// members at stride 2^s_done. Consecutive g (same hi, consecutive lo) have
// members at consecutive addresses, which is what GZKP's G-groups-per-block
// internal shuffle exploits to fill L2 lines.

// groupIndex returns the canonical array index of member t of group g.
func groupIndex(g, t, sdone, bb int) int {
	loMask := 1<<sdone - 1
	lo := g & loMask
	hi := g >> sdone
	return hi<<(sdone+bb) | t<<sdone | lo
}

// physPos returns where canonical index idx lives after the shuffle that
// makes every batch-(sdone,bb) group contiguous.
func physPos(idx, sdone, bb int) int {
	loMask := 1<<sdone - 1
	lo := idx & loMask
	t := (idx >> sdone) & (1<<bb - 1)
	hi := idx >> (sdone + bb)
	g := hi<<sdone | lo
	return g<<bb | t
}

// processGroup runs bb local butterfly iterations over sub (len 2^bb),
// which holds group members in t-order. lo is the group's low-bit part
// (twiddle phase); roots is the ω^i (or ω^-i) table.
func (d *Domain) processGroup(sub []ff.Element, sdone, bb, lo int, roots []ff.Element, t, u ff.Element) {
	kr := d.F.Kernels() // hoisted: one width decision per group
	n := len(sub)
	for l := 0; l < bb; l++ {
		half := 1 << l
		mloc := half << 1
		// twiddle exponent: ((j·2^sdone)+lo) << (LogN - sdone - l - 1)
		shift := int(d.LogN) - sdone - l - 1
		for k := 0; k < n; k += mloc {
			for j := 0; j < half; j++ {
				exp := (j<<sdone | lo) << shift
				w := roots[exp]
				kr.Mul(t, w, sub[k+j+half])
				copy(u, sub[k+j])
				kr.Add(sub[k+j], u, t)
				kr.Sub(sub[k+j+half], u, t)
			}
		}
	}
}

// groupScratch is a block's scratch: its local buffer and a butterfly's
// two temporaries, from the domain's free list.
type groupScratch struct {
	local []ff.Element
	t, u  ff.Element
}

// scratch takes a block scratch with room for n elements (putScratch returns it).
func (d *Domain) scratch(n int) *groupScratch {
	var s *groupScratch
	select {
	case s = <-d.blocks:
	default:
		s = &groupScratch{t: d.F.New(), u: d.F.New()}
	}
	if len(s.local) < n {
		s.local = d.F.NewVector(n)
	}
	return s
}

// putScratch returns s to the free list, dropping it when the list is full.
func (d *Domain) putScratch(s *groupScratch) {
	select {
	case d.blocks <- s:
	default:
	}
}

// gzkp runs the paper's shuffle-less strategy: the array stays in canonical
// order; each "block" claims G consecutive groups, gathers their members
// into a local (shared-memory-like) buffer with coalesced chunked reads,
// runs the batch's butterflies locally, and scatters back.
func (d *Domain) gzkp(ctx context.Context, a []ff.Element, dir Direction, cfg Config) (Stats, error) {
	start := time.Now()
	bitReverse(a, d.LogN)
	roots := [...][]ff.Element{Forward: d.roots, Inverse: d.rootsInv}[dir]
	var st Stats
	sdone := 0
	for sdone < int(d.LogN) {
		bb := cfg.BatchBits
		if rem := int(d.LogN) - sdone; bb > rem {
			bb = rem
		}
		size := 1 << bb
		groups := d.N >> bb
		g := cfg.GroupsPerBlock
		if g > groups {
			g = groups
		}
		blocks := (groups + g - 1) / g
		sdoneB, bbB := sdone, bb
		err := par.ItemsErr(ctx, blocks, 0, nil,
			func(_ struct{}, blk int) error {
				s := d.scratch(g * size)
				defer d.putScratch(s)
				g0 := blk * g
				gn := g0 + g
				if gn > groups {
					gn = groups
				}
				// Internal shuffle in: t-major so global reads are
				// contiguous runs of (gn-g0) elements.
				for t := 0; t < size; t++ {
					for gi := g0; gi < gn; gi++ {
						copy(s.local[(gi-g0)*size+t], a[groupIndex(gi, t, sdoneB, bbB)])
					}
				}
				loMask := 1<<sdoneB - 1
				for gi := g0; gi < gn; gi++ {
					sub := s.local[(gi-g0)*size : (gi-g0+1)*size]
					d.processGroup(sub, sdoneB, bbB, gi&loMask, roots, s.t, s.u)
				}
				// Internal shuffle out (reverse order, same pattern).
				for t := 0; t < size; t++ {
					for gi := g0; gi < gn; gi++ {
						copy(a[groupIndex(gi, t, sdoneB, bbB)], s.local[(gi-g0)*size+t])
					}
				}
				return nil
			})
		if err != nil {
			return st, err
		}
		sdone += bb
		st.Batches++
	}
	st.ButterflyNS = time.Since(start).Nanoseconds()
	st.TotalNS = st.ButterflyNS
	return st, nil
}

// shuffleBaseline reproduces the bellperson-like plan: before every batch
// after the first, a global shuffle pass rearranges the whole array so each
// independent group is contiguous; each group is then one block's worth of
// contiguous compute. The data stays in the shuffled layout between batches
// (each shuffle maps the previous layout to the next), and a final pass
// restores canonical order.
func (d *Domain) shuffleBaseline(ctx context.Context, a []ff.Element, dir Direction, cfg Config) (Stats, error) {
	startAll := time.Now()
	bitReverse(a, d.LogN)
	roots := [...][]ff.Element{Forward: d.roots, Inverse: d.rootsInv}[dir]
	var st Stats
	buf := d.F.NewVector(d.N)
	cur, oth := a, buf
	prevSdone, prevBb := -1, 0 // identity layout marker
	sdone := 0
	for sdone < int(d.LogN) {
		bb := cfg.BatchBits
		if rem := int(d.LogN) - sdone; bb > rem {
			bb = rem
		}
		size := 1 << bb
		groups := d.N >> bb
		identityLayout := prevSdone < 0
		batchIsIdentity := sdone == 0 // batch-0 groups are already contiguous
		if !batchIsIdentity || !identityLayout {
			// Global shuffle: move every element from the previous layout
			// to the new grouped layout.
			t0 := time.Now()
			sdB, bbB, psd, pbb := sdone, bb, prevSdone, prevBb
			src, dst := cur, oth
			err := par.RangeErr(ctx, d.N, 0, func(lo, hi int) error {
				for pos := lo; pos < hi; pos++ {
					g := pos >> bbB
					t := pos & (1<<bbB - 1)
					idx := groupIndex(g, t, sdB, bbB)
					srcPos := idx
					if psd >= 0 {
						srcPos = physPos(idx, psd, pbb)
					}
					copy(dst[pos], src[srcPos])
				}
				return nil
			})
			if err != nil {
				return st, err
			}
			cur, oth = oth, cur
			st.ShuffleNS += time.Since(t0).Nanoseconds()
		}
		// Compute: one group per block, contiguous.
		t1 := time.Now()
		loMask := 1<<sdone - 1
		sdB, bbB := sdone, bb
		data := cur
		err := par.ItemsErr(ctx, groups, 0, nil,
			func(_ struct{}, g int) error {
				s := d.scratch(0)
				defer d.putScratch(s)
				sub := data[g*size : (g+1)*size]
				d.processGroup(sub, sdB, bbB, g&loMask, roots, s.t, s.u)
				return nil
			})
		if err != nil {
			return st, err
		}
		st.ButterflyNS += time.Since(t1).Nanoseconds()
		prevSdone, prevBb = sdone, bb
		sdone += bb
		st.Batches++
	}
	copyRange := func(dst, src []ff.Element, mapIdx func(int) int) error {
		return par.RangeErr(ctx, d.N, 0, func(lo, hi int) error {
			for idx := lo; idx < hi; idx++ {
				copy(dst[idx], src[mapIdx(idx)])
			}
			return nil
		})
	}
	ident := func(idx int) int { return idx }
	// Restore canonical order into a.
	needRestore := prevSdone != 0 // a single batch at sdone 0 is identity
	if needRestore {
		t0 := time.Now()
		psd, pbb := prevSdone, prevBb
		fromPhys := func(idx int) int { return physPos(idx, psd, pbb) }
		if sameVector(cur, a) {
			// Restore through the spare buffer, then copy values back.
			if err := copyRange(oth, cur, fromPhys); err != nil {
				return st, err
			}
			if err := copyRange(a, oth, ident); err != nil {
				return st, err
			}
		} else {
			if err := copyRange(a, cur, fromPhys); err != nil {
				return st, err
			}
		}
		st.ShuffleNS += time.Since(t0).Nanoseconds()
	} else if !sameVector(cur, a) {
		if err := copyRange(a, cur, ident); err != nil {
			return st, err
		}
	}
	st.TotalNS = time.Since(startAll).Nanoseconds()
	return st, nil
}

func sameVector(x, y []ff.Element) bool {
	return len(x) > 0 && len(y) > 0 && &x[0][0] == &y[0][0]
}
