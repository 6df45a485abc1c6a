package experiments

// e_compression.go measures compressed columnar execution (dictionary +
// run-length encoded segments with code-native kernels): a scan+filter over a
// low-cardinality string corpus with long shared prefixes, compressed vs
// DisableCompression directories over identical data, against the in-memory
// heap as the correctness baseline. The compressed arm must read a fraction
// of the bytes (encoded blocks on disk), filter without decoding (string
// equality becomes one integer compare per row against a translated
// dictionary code), and return bit-identical rows at every parallelism
// degree.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// compressionRow is one (parallelism, arm) measurement.
type compressionRow struct {
	Parallelism int
	// Arm is "compressed" (dictionary/RLE encoding on) or "uncompressed"
	// (plain blocks, the DisableCompression control).
	Arm           string
	ColdWallSec   float64
	WarmWallSec   float64
	MemWallSec    float64
	ColdBytesRead int64
	BlocksDict    int64
	BlocksRLE     int64
	BlocksPlain   int64
	// WarmRowsPerSec is scan+filter throughput with the column cache hot —
	// the kernel-speed comparison, free of disk noise.
	WarmRowsPerSec float64
	OutputRows     int
	// Identical certifies the disk arm returned exactly the in-memory
	// engine's rows, in order, floats bit-exact.
	Identical bool
}

// compressionResult is the full sweep plus host information and the
// headline ratios (parallelism 1).
type compressionResult struct {
	Rows        int
	SegmentRows int
	GOMAXPROCS  int
	CPUs        int
	Workloads   []compressionRow
	// BytesReduction is uncompressed/compressed cold bytes read; Speedup is
	// compressed/uncompressed warm scan+filter throughput (both serial).
	BytesReduction float64
	Speedup        float64
}

func compressionBenchDef() *catalog.Table {
	return &catalog.Table{
		Name: "cev",
		Cols: []catalog.Column{
			{Name: "id", Kind: datum.KindInt, NotNull: true},
			{Name: "city", Kind: datum.KindString},
			{Name: "status", Kind: datum.KindInt},
			{Name: "v", Kind: datum.KindFloat},
		},
	}
}

// compressionBench loads a 40 000-row corpus in 1024-row segments whose
// string column has 8 distinct values sharing a long prefix (the realistic
// worst case for plain string compares, the best case for dictionary codes)
// and whose status column is sorted (long constant runs), then runs a
// string-equality scan+filter on compressed and uncompressed stores at
// parallelism 1, 4 and 8. Best of 2.
func compressionBench() *compressionResult {
	const rows, segRows, reps = 40000, 1024, 2
	def := compressionBenchDef()
	cities := make([]string, 8)
	for i := range cities {
		cities[i] = fmt.Sprintf("warehouse-district-fulfillment-zone-%d", i)
	}
	rng := rand.New(rand.NewSource(29))
	data := make([]datum.Row, rows)
	for i := range data {
		data[i] = datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(cities[i%len(cities)]),
			datum.NewInt(int64(i * 10 / rows)), // sorted, 10 long runs
			datum.NewFloat(rng.NormFloat64() * 100),
		}
	}
	fail := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("experiments: compression bench: %v", err))
		}
	}
	memStore := storage.NewStore()
	memTab, err := memStore.CreateTable(def)
	fail(err)
	fail(memTab.InsertBatch(data))

	dirs := map[string]string{}
	for _, arm := range []string{"compressed", "uncompressed"} {
		dir, err := os.MkdirTemp("", "qopt-compression-bench-*")
		fail(err)
		defer os.RemoveAll(dir)
		dirs[arm] = dir
		st := storage.NewStoreWith(storage.StoreConfig{
			Dir: dir, SegmentRows: segRows, DisableCompression: arm == "uncompressed",
		})
		tab, err := st.CreateTable(def)
		fail(err)
		fail(tab.InsertBatch(data))
		fail(tab.Flush())
	}

	md := logical.NewMetadata()
	cols := md.AddTable(def, "cev")
	// The city filter runs first over every row — the kernel under test: one
	// dictionary-code compare vs a long-shared-prefix string compare. The v
	// filter then thins survivors to ~0.6% so output materialization (paid
	// equally by both arms) stays out of the ratio; v is random per segment,
	// so unlike status it cannot be zone-map pruned away.
	plan := &physical.TableScan{
		Table: def, Binding: "cev", Cols: cols, ColOrds: []int{0, 1, 2, 3},
		Filter: []logical.Scalar{
			&logical.Cmp{
				Op: logical.CmpEq, L: &logical.Col{ID: cols[1]},
				R: &logical.Const{Val: datum.NewString(cities[3])},
			},
			&logical.Cmp{
				Op: logical.CmpGt, L: &logical.Col{ID: cols[3]},
				R: &logical.Const{Val: datum.NewFloat(250)},
			},
		},
	}
	run := func(store *storage.Store, par int) (float64, *exec.Counters, []datum.Row) {
		ctx := exec.NewCtx(store, md)
		ctx.Parallelism = par
		defer ctx.Close()
		start := time.Now()
		res, err := exec.Run(plan, ctx)
		sec := time.Since(start).Seconds()
		fail(err)
		return sec, &ctx.Counters, res.Rows
	}

	out := &compressionResult{
		Rows: rows, SegmentRows: segRows,
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
	}
	for _, par := range []int{1, 4, 8} {
		memSec, _, memRows := run(memStore, par)
		for _, arm := range []string{"compressed", "uncompressed"} {
			var best compressionRow
			for rep := 0; rep < reps; rep++ {
				// Cold: a fresh store over the same directory starts with an
				// empty column cache.
				store := storage.NewStoreWith(storage.StoreConfig{Dir: dirs[arm], SegmentRows: segRows})
				if _, err := store.CreateTable(def); err != nil {
					fail(err)
				}
				coldSec, coldCtr, _ := run(store, par)
				warmSec, _, warmRows := run(store, par)
				if rep == 0 || warmSec < best.WarmWallSec {
					best = compressionRow{
						Parallelism: par, Arm: arm,
						ColdWallSec: coldSec, WarmWallSec: warmSec, MemWallSec: memSec,
						ColdBytesRead:  coldCtr.BytesRead,
						BlocksDict:     coldCtr.BlocksDict,
						BlocksRLE:      coldCtr.BlocksRLE,
						BlocksPlain:    coldCtr.BlocksPlain,
						WarmRowsPerSec: float64(rows) / warmSec,
						OutputRows:     len(warmRows), Identical: sameRows(warmRows, memRows),
					}
				}
			}
			out.Workloads = append(out.Workloads, best)
		}
	}
	var compBytes, plainBytes int64
	var compTput, plainTput float64
	for _, w := range out.Workloads {
		if w.Parallelism != 1 {
			continue
		}
		if w.Arm == "compressed" {
			compBytes, compTput = w.ColdBytesRead, w.WarmRowsPerSec
		} else {
			plainBytes, plainTput = w.ColdBytesRead, w.WarmRowsPerSec
		}
	}
	if compBytes > 0 {
		out.BytesReduction = float64(plainBytes) / float64(compBytes)
	}
	if plainTput > 0 {
		out.Speedup = compTput / plainTput
	}
	return out
}

// E29Compression measures dictionary + run-length encoded segments with
// code-native kernels: string equality over a dictionary column translates to
// one integer compare per row, and encoded blocks shrink cold-scan I/O, while
// the `identical` column certifies bit-exact results against the in-memory
// heap at every parallelism degree.
func E29Compression() Table {
	t := Table{
		ID:      "E29",
		Title:   "Compressed columnar execution: dictionary + RLE segments, code-native kernels",
		Claim:   "encoded blocks cut scan bytes and string filters run as code compares, at identical results",
		Headers: []string{"par", "arm", "cold ms", "warm ms", "mem ms", "cold bytes", "dict/rle/plain", "out rows", "identical"},
	}
	res := compressionBench()
	for _, w := range res.Workloads {
		t.Rows = append(t.Rows, []string{
			d(w.Parallelism),
			w.Arm,
			f2(w.ColdWallSec * 1000),
			f2(w.WarmWallSec * 1000),
			f2(w.MemWallSec * 1000),
			d(int(w.ColdBytesRead)),
			fmt.Sprintf("%d/%d/%d", w.BlocksDict, w.BlocksRLE, w.BlocksPlain),
			d(w.OutputRows),
			fmt.Sprintf("%v", w.Identical),
		})
	}
	t.Notes = fmt.Sprintf("rows=%d segment_rows=%d gomaxprocs=%d cpus=%d; bytes_reduction=%.1fx speedup=%.1fx (serial, warm); parallel wall-clock only separates from serial on multi-CPU hosts",
		res.Rows, res.SegmentRows, res.GOMAXPROCS, res.CPUs, res.BytesReduction, res.Speedup)
	return t
}
