package bench

import (
	"bytes"
	"strings"
	"testing"

	"gzkp/internal/gpusim"
	"gzkp/internal/msm"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure with data in §5 must be present.
	want := []string{"table2", "table3", "table4", "table5", "table6",
		"table7", "table8", "fig6", "fig8", "fig9", "fig10", "shufflecost"}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.Name] = true
		if e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.Name)
		}
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("missing experiment %q", n)
		}
	}
	if _, err := Find("table7"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown experiment found")
	}
}

// TestExperimentsRunQuick executes every experiment in quick mode and
// checks the output contains its paper anchor (integration smoke).
func TestExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take tens of seconds")
	}
	anchors := map[string][]string{
		"table2":      {"Table 2 (modeled", "GZKP total"},
		"table3":      {"Table 3 (modeled", "Sprout"},
		"table4":      {"4dev gain"},
		"table5":      {"753b GZKP", "serial(libsnark)"},
		"table6":      {"GTX1080Ti"},
		"table7":      {"753b MINA", "381b BG"},
		"table8":      {"GTX1080Ti"},
		"fig6":        {"bucket load spread", "zero digits"},
		"fig8":        {"GZKP-no-GM-shuffle", "shuffle"},
		"fig9":        {"OOM", "GZKP-BLS"},
		"fig10":       {"GZKP-no-LB w. lib", "PADDs"},
		"shufflecost": {"strided", "shuffle"},
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Options{Out: &buf, Quick: true}); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			out := buf.String()
			for _, a := range anchors[e.Name] {
				if !strings.Contains(out, a) {
					t.Errorf("%s output missing %q:\n%s", e.Name, a, out)
				}
			}
		})
	}
}

func TestTablePrinter(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable(&buf, "A", "LongHeader")
	tb.row("x", "1")
	tb.row("yyyy", "2")
	tb.flush()
	out := buf.String()
	if !strings.Contains(out, "LongHeader") || !strings.Contains(out, "yyyy") {
		t.Fatalf("table output malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d", len(lines))
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		0:      "-",
		3e-9:   "3ns",
		5e-7:   "500ns",
		5e-6:   "5.0µs",
		0.0042: "4.20ms",
		3.5:    "3.50s",
	}
	for in, want := range cases {
		if got := fmtDur(in); got != want {
			t.Errorf("fmtDur(%v) = %q want %q", in, got, want)
		}
	}
	if fmtX(0) != "-" || fmtX(2.5) != "2.5×" {
		t.Error("fmtX broken")
	}
	if fmtBytes(512) != "0KiB" || fmtBytes(5<<20) != "5.0MiB" || fmtBytes(3<<30) != "3.00GiB" {
		t.Errorf("fmtBytes broken: %s %s %s", fmtBytes(512), fmtBytes(5<<20), fmtBytes(3<<30))
	}
	if fmtNS(2_500_000) != "2.50ms" {
		t.Error("fmtNS broken")
	}
}

func TestWindowForShapes(t *testing.T) {
	// MINA is pinned small; bellperson tracks chunks; GZKP grows with N.
	for _, logN := range []int{10, 16, 20} {
		if got := windowFor(msm.ModelStraus, logN); got != 5 {
			t.Errorf("logN=%d: Straus window %d, want 5", logN, got)
		}
		_, k := msm.BellpersonPlan(1<<logN, gpusim.V100())
		if got := windowFor(msm.ModelBellperson, logN); got != k {
			t.Errorf("logN=%d: Bellperson window %d, want BellpersonPlan's %d", logN, got, k)
		}
		if got, want := windowFor(msm.ModelGZKPFull, logN), msm.AutoWindow(1<<logN); got != want {
			t.Errorf("logN=%d: GZKP window %d, want AutoWindow's %d", logN, got, want)
		}
	}
}
