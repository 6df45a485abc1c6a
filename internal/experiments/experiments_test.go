package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsProduceTables is the harness's own regression net: every
// experiment must run, produce rows, and uphold its headline invariant. The
// tables of E1–E20 must also read as docs/harness_output.txt records them,
// so the file cannot drift from the code (regenerate it with `make
// experiments`). None of E1–E20 varies between runs; E21 onwards report
// wall-clock times, speedups and host facts, and are not compared.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped under -short")
	}
	tables := All()
	if len(tables) != 28 {
		t.Fatalf("expected 28 experiments, got %d", len(tables))
	}
	doc := harnessTables(t)
	for _, tb := range tables {
		if n, err := strconv.Atoi(tb.ID[1:]); err == nil && n <= 20 {
			if got := strings.TrimRight(tb.Format(), "\n"); got != doc[tb.ID] {
				t.Errorf("%s differs from docs/harness_output.txt (regenerate it with make experiments)\nfile:\n%s\nnow:\n%s", tb.ID, doc[tb.ID], got)
			}
		}
		if tb.ID == "" || tb.Title == "" || tb.Claim == "" {
			t.Errorf("%s: missing metadata", tb.ID)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.ID)
		}
		for _, r := range tb.Rows {
			if len(r) != len(tb.Headers) {
				t.Errorf("%s: row width %d != headers %d", tb.ID, len(r), len(tb.Headers))
			}
		}
		if out := tb.Format(); !strings.Contains(out, tb.ID) {
			t.Errorf("%s: Format missing id", tb.ID)
		}
	}
}

// harnessTables reads the tables `make experiments` recorded in
// docs/harness_output.txt, keyed by experiment ID: each runs from its
// "E<n> — " title line up to the benchmark line that follows it.
func harnessTables(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../docs/harness_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var id string
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.Index(line, " — "); i > 1 && line[0] == 'E' {
			if _, err := strconv.Atoi(line[1:i]); err == nil {
				id, lines = line[:i], nil
			}
		}
		if id == "" {
			continue
		}
		if strings.HasPrefix(line, "Benchmark") {
			out[id], id = strings.TrimRight(strings.Join(lines, "\n"), "\n"), ""
			continue
		}
		lines = append(lines, line)
	}
	return out
}

// TestHeadlineInvariants spot-checks the quantitative shape of key
// experiments so regressions in the optimizer show up as failures here, not
// just as changed numbers in the harness output.
func TestHeadlineInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// E2: the naive/DP plans-costed ratio must grow with n and DP cost must
	// equal naive cost in every row.
	e2 := E2DPvsNaive()
	prevRatio := 0.0
	for _, r := range e2.Rows {
		ratio := atof(t, r[3])
		if ratio < prevRatio {
			t.Errorf("E2: ratio should grow with n: %v", e2.Rows)
		}
		prevRatio = ratio
		if r[4] != r[5] {
			t.Errorf("E2: DP cost %s != naive cost %s", r[4], r[5])
		}
	}

	// E14: Cascades' best cost must equal bushy System-R DP's in every chain
	// width.
	for _, r := range E14Architectures().Rows {
		if r[1] == "cascades" && r[len(r)-1] != "true" {
			t.Errorf("E14: Cascades' optimum differs from bushy DP's at %s relations: %v", r[0], r)
		}
	}

	// E3: penalty factor ≥ 1 in every row, > 1 in at least one.
	e3 := E3InterestingOrders()
	sawGain := false
	for _, r := range e3.Rows {
		pen := atof(t, strings.TrimSuffix(r[5], "x"))
		if pen < 0.999 {
			t.Errorf("E3: interesting orders made a plan worse: %v", r)
		}
		if pen > 1.01 {
			sawGain = true
		}
	}
	if !sawGain {
		t.Error("E3: expected at least one row where interesting orders help")
	}

	// E6: every speedup > 1.
	for _, r := range E6GroupByPushdown().Rows {
		if sp := atof(t, strings.TrimSuffix(r[4], "x")); sp <= 1 {
			t.Errorf("E6: eager aggregation should always win here: %v", r)
		}
	}

	// E10: compressed ≤ equi-depth ≤ uniform error on the most skewed row.
	e10 := E10HistogramAccuracy()
	last := e10.Rows[len(e10.Rows)-1]
	uni, ed, cp := pctVal(t, last[1]), pctVal(t, last[2]), pctVal(t, last[3])
	if !(cp <= ed && ed <= uni) {
		t.Errorf("E10: error ordering violated at max skew: uniform %v equi %v compressed %v", uni, ed, cp)
	}

	// E13: the buffer model must flip the join choice.
	e13 := E13BufferModel()
	if e13.Rows[0][1] == e13.Rows[1][1] {
		t.Errorf("E13: buffer model should change the chosen join: %v", e13.Rows)
	}

	// E15: pushdown penalty must exceed 100x on the expensive-predicate row.
	e15 := E15ExpensivePredicates()
	if pen := atof(t, strings.TrimSuffix(e15.Rows[1][4], "x")); pen < 100 {
		t.Errorf("E15: expected a large pushdown penalty, got %v", pen)
	}

	// E23: every budgeted run must return the unbudgeted rows in order.
	for _, r := range E23Robustness().Rows {
		if r[len(r)-1] != "true" {
			t.Errorf("E23: budget %s not identical to the unbudgeted run: %v", r[0], r)
		}
	}

	// E24: results with kernels on must be identical to kernels off on every
	// workload, and the scan+filter kernels must actually win.
	e24 := E24Vectorized()
	for _, r := range e24.Rows {
		if r[len(r)-1] != "true" {
			t.Errorf("E24: %s not bit-identical with kernels off: %v", r[0], r)
		}
	}
	if sp := atof(t, e24.Rows[0][7]); sp <= 1 {
		t.Errorf("E24: scan+filter shows no vectorized speedup: %v", e24.Rows[0])
	}

	// E26: the greedy and DP arms must return the same rows for every
	// statement.
	for _, r := range E26AdaptivePlanning().Rows {
		if r[len(r)-1] != "true" {
			t.Errorf("E26: %s arm disagrees with the other arm's results: %v", r[0], r)
		}
	}

	// E27: disk results must be bit-identical to memory on every row, and
	// the most selective pruned scan must read well under half the segments.
	e27 := E27Storage()
	for _, r := range e27.Rows {
		if r[len(r)-1] != "true" {
			t.Errorf("E27: %s/%s not bit-identical to memory: %v", r[0], r[1], r)
		}
	}
	first := e27.Rows[0] // selectivity 0.001, pruned arm
	read, pruned := atof(t, first[2]), atof(t, first[3])
	if first[1] != "pruned" || read*2 >= read+pruned {
		t.Errorf("E27: expected the selective pruned scan to skip most segments: %v", first)
	}

	// E28: every scan arm must be bit-identical to memory and every
	// recovery row clean.
	e28 := E28Durability()
	for _, r := range e28.Rows {
		if r[len(r)-1] != "true" {
			t.Errorf("E28: %s/%s not identical/clean: %v", r[0], r[1], r)
		}
	}

	// E29: every arm must be bit-identical to memory, and the compressed
	// arm must decode dictionary and run-length blocks where the
	// uncompressed control decodes only plain ones.
	e29 := E29Compression()
	for _, r := range e29.Rows {
		if r[len(r)-1] != "true" {
			t.Errorf("E29: par %s/%s not bit-identical to memory: %v", r[0], r[1], r)
		}
		var nd, nr, np int
		if _, err := fmt.Sscanf(r[6], "%d/%d/%d", &nd, &nr, &np); err != nil {
			t.Fatalf("E29: bad block column %q: %v", r[6], err)
		}
		switch r[1] {
		case "compressed":
			if nd == 0 || nr == 0 {
				t.Errorf("E29: compressed arm decoded no encoded blocks: %v", r)
			}
		case "uncompressed":
			if nd != 0 || nr != 0 || np == 0 {
				t.Errorf("E29: uncompressed arm saw encoded blocks: %v", r)
			}
		}
	}

	// E19: the last row's regret must exceed 10x.
	e19 := E19Parametric()
	lastRow := e19.Rows[len(e19.Rows)-1]
	if reg := atof(t, strings.TrimSuffix(lastRow[4], "x")); reg < 10 {
		t.Errorf("E19: expected large static-plan regret, got %v", reg)
	}
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func pctVal(t *testing.T, s string) float64 {
	return atof(t, strings.TrimSuffix(s, "%"))
}
