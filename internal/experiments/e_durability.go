package experiments

// e_durability.go measures what crash consistency costs (and saves): the
// wall-clock overhead of CRC32C verification on cold and warm full scans
// (verification happens once per block decode, so a hot column cache should
// amortize it to ~nothing), recovery time — manifest replay plus full segment
// verification — as a function of segment count, and a full-directory scrub
// over the same state.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// durabilityScan is one checksum arm of the full-scan comparison.
type durabilityScan struct {
	// Arm is "checksum" (verify-on-decode, the default) or "nochecksum"
	// (DisableChecksums, trust the bytes).
	Arm         string
	ColdWallSec float64
	WarmWallSec float64
	OutputRows  int
	// Identical certifies this arm returned exactly the in-memory engine's
	// rows, in order, floats bit-exact.
	Identical bool
}

// durabilityRecovery is one point of the recovery-time sweep.
type durabilityRecovery struct {
	Segments       int
	Rows           int
	RecoverWallSec float64
	ScrubWallSec   float64
	// Clean certifies recovery adopted every segment with no quarantine, no
	// manifest repair and no corruption, and the scrub found nothing.
	Clean bool
}

// durabilityResult is the full sweep plus host information.
type durabilityResult struct {
	SegmentRows int
	GOMAXPROCS  int
	CPUs        int
	// ColdOverhead and WarmOverhead are checksum/nochecksum wall-clock
	// ratios for the full scan (1.0 = free).
	ColdOverhead float64
	WarmOverhead float64
	Scans        []durabilityScan
	Recovery     []durabilityRecovery
}

// durabilityBench loads one 20 000-row table, seals it into 1024-row
// segments, and (a) full-scans it cold and warm with verification on and
// off, against the in-memory heap as the correctness baseline; (b) reopens
// directories of 4, 16 and 64 segments, timing recovery and a follow-up
// scrub. Best of 2.
func durabilityBench() *durabilityResult {
	const rows, segRows, reps = 20000, 1024, 2
	def := storageBenchDef()
	rng := rand.New(rand.NewSource(28))
	data := make([]datum.Row, rows)
	for i := range data {
		data[i] = datum.Row{datum.NewInt(int64(i)), datum.NewFloat(rng.NormFloat64() * 100)}
	}
	fill := func(dir string, rows []datum.Row) {
		s := storage.NewStoreWith(storage.StoreConfig{Dir: dir, SegmentRows: segRows})
		tab, err := s.CreateTable(def)
		if err == nil {
			err = tab.InsertBatch(rows)
		}
		if err == nil {
			err = tab.Flush()
		}
		if err != nil {
			panic(fmt.Sprintf("experiments: durability bench: %v", err))
		}
	}
	dir, err := os.MkdirTemp("", "qopt-durability-bench-*")
	if err != nil {
		panic(fmt.Sprintf("experiments: durability bench: %v", err))
	}
	defer os.RemoveAll(dir)
	fill(dir, data)

	memStore := storage.NewStore()
	memTab, err := memStore.CreateTable(def)
	if err == nil {
		err = memTab.InsertBatch(data)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: durability bench: %v", err))
	}

	md := logical.NewMetadata()
	cols := md.AddTable(def, "m")
	plan := &physical.TableScan{Table: def, Binding: "m", Cols: cols, ColOrds: []int{0, 1}}
	run := func(store *storage.Store) (float64, []datum.Row) {
		ctx := exec.NewCtx(store, md)
		ctx.Vectorize = true
		start := time.Now()
		res, err := exec.Run(plan, ctx)
		sec := time.Since(start).Seconds()
		if err != nil {
			panic(fmt.Sprintf("experiments: durability bench: %v", err))
		}
		return sec, res.Rows
	}
	_, memRows := run(memStore)

	out := &durabilityResult{
		SegmentRows: segRows, GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
	}
	arms := []struct {
		name    string
		disable bool
	}{{"checksum", false}, {"nochecksum", true}}
	best := make([]durabilityScan, len(arms))
	// Arms interleave within each rep (and GC before every timed run) so both
	// see the same allocator and page-cache state; best of reps per metric,
	// since cold and warm vary independently at millisecond scales.
	for rep := 0; rep < reps; rep++ {
		for ai, arm := range arms {
			cold := storage.NewStoreWith(storage.StoreConfig{
				Dir: dir, SegmentRows: segRows, DisableChecksums: arm.disable,
			})
			if _, err := cold.CreateTable(def); err != nil {
				panic(fmt.Sprintf("experiments: durability bench: %v", err))
			}
			runtime.GC()
			coldSec, _ := run(cold)
			runtime.GC()
			warmSec, warmRows := run(cold)
			if s, _ := run(cold); s < warmSec {
				warmSec = s
			}
			if rep == 0 {
				best[ai] = durabilityScan{
					Arm: arm.name, ColdWallSec: coldSec, WarmWallSec: warmSec,
					OutputRows: len(warmRows), Identical: sameRows(warmRows, memRows),
				}
				continue
			}
			if coldSec < best[ai].ColdWallSec {
				best[ai].ColdWallSec = coldSec
			}
			if warmSec < best[ai].WarmWallSec {
				best[ai].WarmWallSec = warmSec
			}
		}
	}
	out.Scans = append(out.Scans, best...)
	if out.Scans[1].ColdWallSec > 0 {
		out.ColdOverhead = out.Scans[0].ColdWallSec / out.Scans[1].ColdWallSec
	}
	if out.Scans[1].WarmWallSec > 0 {
		out.WarmOverhead = out.Scans[0].WarmWallSec / out.Scans[1].WarmWallSec
	}

	for _, nseg := range []int{4, 16, 64} {
		rdir, err := os.MkdirTemp("", "qopt-durability-recover-*")
		if err != nil {
			panic(fmt.Sprintf("experiments: durability bench: %v", err))
		}
		n := nseg * segRows
		rdata := make([]datum.Row, n)
		for i := range rdata {
			rdata[i] = datum.Row{datum.NewInt(int64(i)), datum.NewFloat(float64(i))}
		}
		fill(rdir, rdata)
		var row durabilityRecovery
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			s := storage.NewStoreWith(storage.StoreConfig{Dir: rdir, SegmentRows: segRows})
			if _, err := s.CreateTable(def); err != nil {
				panic(fmt.Sprintf("experiments: durability bench: %v", err))
			}
			recSec := time.Since(start).Seconds()
			start = time.Now()
			found := s.Scrub()
			scrubSec := time.Since(start).Seconds()
			clean := len(found) == 0
			for _, rep := range s.Recovery() {
				clean = clean && rep.Clean()
			}
			if rep == 0 || recSec < row.RecoverWallSec {
				row = durabilityRecovery{
					Segments: nseg, Rows: n,
					RecoverWallSec: recSec, ScrubWallSec: scrubSec, Clean: clean,
				}
			}
		}
		out.Recovery = append(out.Recovery, row)
		os.RemoveAll(rdir)
	}
	return out
}

// E28Durability measures the price of crash consistency: CRC32C verification
// on every block decode costs a bounded fraction of a cold scan and ~nothing
// warm (the column cache pays it once), full recovery — manifest replay plus
// whole-file verification of every adopted segment — scales linearly in
// segment count, and the `identical` column certifies verification changes no
// answer.
func E28Durability() Table {
	t := Table{
		ID:      "E28",
		Title:   "Crash consistency: checksum overhead and recovery time",
		Claim:   "verified reads cost ~nothing warm; recovery is linear in segment count",
		Headers: []string{"measurement", "arm", "cold ms", "warm ms", "out rows", "identical/clean"},
	}
	res := durabilityBench()
	for _, w := range res.Scans {
		t.Rows = append(t.Rows, []string{
			"full scan", w.Arm,
			f2(w.ColdWallSec * 1000), f2(w.WarmWallSec * 1000),
			d(w.OutputRows), fmt.Sprintf("%v", w.Identical),
		})
	}
	for _, r := range res.Recovery {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("recover %d segs", r.Segments),
			fmt.Sprintf("%d rows", r.Rows),
			f2(r.RecoverWallSec * 1000), f2(r.ScrubWallSec * 1000),
			"-", fmt.Sprintf("%v", r.Clean),
		})
	}
	t.Notes = fmt.Sprintf("segment_rows=%d gomaxprocs=%d cpus=%d; cold overhead=%.2fx warm overhead=%.2fx; recover = open+verify every manifest entry, scrub = full re-read",
		res.SegmentRows, res.GOMAXPROCS, res.CPUs, res.ColdOverhead, res.WarmOverhead)
	return t
}
