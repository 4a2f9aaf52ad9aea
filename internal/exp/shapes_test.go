package exp

// Shape assertions: the cheap (virtual-time) experiments' headline numbers
// are pinned against the bands the surveyed papers report, so regressions in
// the simulation model or experiment parameters fail CI rather than silently
// drifting EXPERIMENTS.md.

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/tables"
)

// ratio parses a "12.34x" cell.
func ratio(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a ratio: %v", cell, err)
	}
	return v
}

func findRow(t *testing.T, tb *tables.Table, prefix string) []string {
	t.Helper()
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[0], prefix) {
			return row
		}
	}
	t.Fatalf("no row starting with %q in %q", prefix, tb.Title)
	return nil
}

func TestT3aShape(t *testing.T) {
	tb := T3aSpeedup()[0]
	six := findRow(t, tb, "6")
	sp := ratio(t, six[2])
	if sp < 3 || sp > 5 {
		t.Errorf("expensive-eval speedup at 6 workers = %v, want Mui's 3-4x band", sp)
	}
	cheap := ratio(t, six[1])
	if cheap > 1 {
		t.Errorf("cheap-eval speedup = %v, must stay below 1 (dispatch-bound)", cheap)
	}
	// Plateau: 32 workers no better than 8.
	sp8 := ratio(t, findRow(t, tb, "8")[2])
	sp32 := ratio(t, findRow(t, tb, "32")[2])
	if sp32 > sp8+1e-9 {
		t.Errorf("no plateau: %v at 8 vs %v at 32 workers", sp8, sp32)
	}
	// The real pool runs the engine at Workers 1/2/4: every row must
	// reproduce the inline (serial) trajectory.
	for _, row := range T3aSpeedup()[1].Rows {
		if row[2] != "true" {
			t.Errorf("workers=%s: trajectory differs from serial", row[0])
		}
	}
}

func TestT3bShape(t *testing.T) {
	tb := T3bExplored()[0]
	gpu := findRow(t, tb, "GPU")
	cpu := findRow(t, tb, "CPU star")
	g, _ := strconv.Atoi(gpu[3])
	c, _ := strconv.Atoi(cpu[3])
	r := float64(g) / float64(c)
	if r < 10 || r > 25 {
		t.Errorf("GPU/CPU explored ratio = %v, want around AitZai's 15x", r)
	}
}

func TestT4eShape(t *testing.T) {
	tb := T4eLinSpeedup()[0]
	five := ratio(t, findRow(t, tb, "5")[3])
	twenty := ratio(t, findRow(t, tb, "20")[3])
	if five < 4.2 || five > 5 {
		t.Errorf("5-island speedup %v outside Lin's ~4.7 band", five)
	}
	if twenty < 17 || twenty > 20 {
		t.Errorf("20-island speedup %v outside Lin's ~18.5 band", twenty)
	}
}

func TestT5hSpeedupShape(t *testing.T) {
	ts := T5hTwoLevel()
	speed := ts[1]
	hi := ratio(t, speed.Rows[0][1])
	lo := ratio(t, speed.Rows[1][1])
	if lo < 2.0 || hi > 3.2 || lo >= hi {
		t.Errorf("two-level speedups [%v, %v] outside Harmanani's 2.28-2.89 band", lo, hi)
	}
}

func TestT5iSpeedupShape(t *testing.T) {
	ts := T5iHuang()
	speed := ts[1]
	gpu := ratio(t, findRow(t, speed, "GPU")[2])
	if gpu < 15 || gpu > 25 {
		t.Errorf("fuzzy GPU speedup %v outside Huang's ~19x band", gpu)
	}
}

func TestT5jShape(t *testing.T) {
	tb := T5jZajicek()[0]
	all := ratio(t, findRow(t, tb, "homogeneous")[2])
	hyb := ratio(t, findRow(t, tb, "hybrid")[2])
	if all < 60 || all > 120 {
		t.Errorf("all-on-GPU speedup %v outside Zajicek's 60-120x band", all)
	}
	if hyb >= all {
		t.Errorf("host traffic should cost speedup: hybrid %v vs all-GPU %v", hyb, all)
	}
}

func TestT4bShape(t *testing.T) {
	tb := T4bTransputer()[0]
	sixteen := findRow(t, tb, "16")
	ideal := ratio(t, sixteen[1])
	comm := ratio(t, sixteen[2])
	if ideal != 16 {
		t.Errorf("ideal 16-partition speedup = %v", ideal)
	}
	if comm >= ideal/2 {
		t.Errorf("comm-charged speedup %v should be far below ideal %v", comm, ideal)
	}
}

func TestExperimentDeterminism(t *testing.T) {
	// A representative quality experiment must regenerate identically.
	a := T5dInterval()[0]
	b := T5dInterval()[0]
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("T5d not deterministic at row %d col %d: %q vs %q",
					i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}
