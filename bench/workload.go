package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	queryopt "repro"
)

// spec is one workload: how its engine is configured and driven. Every
// workload is a closed loop: a client sends its next statement only after
// the previous one returned, as callers of an embedded library do.
type spec struct {
	name, why string
	clients   int
	disk      bool
	opts      queryopt.Options // StorageDir is filled in per set-up
	gen       func(seed int64, sz sizes) *corpus
}

var specs = []*spec{
	{
		name:    "oltp_prepared",
		why:     "Cached prepared short statements from 2 clients: time is plan-cache dispatch, binding, latch and result conversion; optimizer and storage are bypassed.",
		clients: oltpClients,
		gen:     genOLTP,
	},
	{
		name:    "adhoc_planning",
		why:     "Unique literal 2- to 7-way joins on 200-row tables: parse, build, rewrite and optimize dominate and execution is microseconds.",
		clients: 1,
		gen:     genAdhoc,
	},
	{
		name:    "analytic_mem",
		why:     "Scans, group-bys and star joins over an in-memory fact table at parallelism 2: execution dominates and there is no segment I/O.",
		clients: 1,
		opts:    queryopt.Options{Parallelism: 2},
		gen:     genAnalytic,
	},
	{
		name:    "analytic_disk",
		why:     "The analytic_mem data and statements on compressed checksummed segments behind a 1 MiB column cache that churns: the difference is the storage layer.",
		clients: 1,
		disk:    true,
		// The issue sized a 4 MiB cache for 300k rows; the run-time cap cut
		// the table to a third, and the cache with it, so that it still
		// holds less than the two columns a typical scan decodes.
		opts: queryopt.Options{Parallelism: 2, SegmentCacheBytes: 1 << 20},
		gen:  genAnalytic,
	},
	{
		name:    "ingest_mixed",
		why:     "One client interleaves batch loads, flushes and ANALYZE with prepared reads on a growing disk table: seal, encode, fsync and plan-cache invalidation.",
		clients: 1,
		disk:    true,
		gen:     genIngest,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// handle is one open engine with the corpus's statements prepared.
type handle struct {
	eng  *queryopt.Engine
	dir  string           // storage directory, "" in memory
	prep []*queryopt.Stmt // by stmt.id; nil entries run through Exec
}

func (h *handle) exec(s *stmt) (*queryopt.Result, error) {
	if s.args == nil {
		return h.eng.Exec(s.text)
	}
	return h.prep[s.id].Exec(s.args...)
}

func (h *handle) close() {
	h.eng.Close()
	if h.dir != "" {
		os.RemoveAll(h.dir)
	}
}

// tmpRoot holds storage directories and trace files; it is inside the
// benchmark's own directory and ignored by git.
const tmpRoot = "out"

// loadTimes splits the write side of a set-up or an ingest cycle.
type loadTimes struct {
	rows                 int
	load, flush, analyze time.Duration
}

// open creates an engine, runs the DDL, loads, flushes, analyzes and
// prepares: everything of set-up except the warm-up pass.
func open(opts queryopt.Options, disk bool, c *corpus) (*handle, loadTimes, error) {
	h := &handle{}
	var lt loadTimes
	if disk {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, lt, err
		}
		dir, err := os.MkdirTemp(tmpRoot, "store-*")
		if err != nil {
			return nil, lt, err
		}
		h.dir, opts.StorageDir = dir, dir
	}
	h.eng = queryopt.New(opts)
	fail := func(err error) (*handle, loadTimes, error) {
		h.close()
		return nil, lt, err
	}
	for _, t := range c.tables {
		for _, ddl := range t.ddl {
			if _, err := h.eng.Exec(ddl); err != nil {
				return fail(fmt.Errorf("%s: %w", ddl, err))
			}
		}
	}
	for _, t := range c.tables {
		t0 := time.Now()
		if err := h.eng.LoadRows(t.name, t.rows); err != nil {
			return fail(fmt.Errorf("load %s: %w", t.name, err))
		}
		lt.load += time.Since(t0)
		lt.rows += len(t.rows)
	}
	if err := h.flushAnalyze(&lt); err != nil {
		return fail(err)
	}
	h.prep = make([]*queryopt.Stmt, len(c.stmts))
	byText := map[string]*queryopt.Stmt{}
	for _, s := range c.stmts {
		if s.args == nil {
			continue
		}
		ps := byText[s.text]
		if ps == nil {
			var err error
			if ps, err = h.eng.Prepare(s.text); err != nil {
				return fail(fmt.Errorf("prepare %s: %w", s.text, err))
			}
			byText[s.text] = ps
		}
		h.prep[s.id] = ps
	}
	return h, lt, nil
}

func (h *handle) flushAnalyze(lt *loadTimes) error {
	t0 := time.Now()
	if err := h.eng.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	t1 := time.Now()
	if _, err := h.eng.Exec("ANALYZE"); err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	lt.flush += t1.Sub(t0)
	lt.analyze += time.Since(t1)
	return nil
}

// tally counts statements attempted and failed (error, or a result whose
// fingerprint differs from the oracle's).
type tally struct{ attempted, failed int }

func (t *tally) check(s *stmt, res *queryopt.Result, err error) {
	t.attempted++
	if err != nil || fingerprint(res.Rows, s.ordered) != s.want {
		t.failed++
	}
}

// setUp is the timed set-up: open plus one untimed-per-statement warm-up
// pass, which absorbs lazy index builds and the plan-cache fill. Sentinels
// run after the clock stops.
func setUp(sp *spec, c *corpus, t *tally) (*handle, time.Duration, loadTimes, error) {
	t0 := time.Now()
	h, lt, err := open(sp.opts, sp.disk, c)
	if err != nil {
		return nil, 0, lt, err
	}
	for _, s := range c.warm {
		res, err := h.exec(s)
		t.check(s, res, err)
	}
	d := time.Since(t0)
	for _, s := range c.sentinels {
		res, err := h.exec(s)
		t.check(s, res, err)
	}
	return h, d, lt, nil
}

// fillOracle computes every statement's expected fingerprint on a serial,
// row-at-a-time, in-memory engine loaded from the same corpus. An oracle
// error is a benchmark bug: workloads hold no failing statements.
func fillOracle(c *corpus) (time.Duration, error) {
	t0 := time.Now()
	h, _, err := open(queryopt.Options{Vectorize: queryopt.VectorizeOff}, false, c)
	if err != nil {
		return 0, err
	}
	defer h.close()
	fill := func(ss []*stmt) error {
		for _, s := range ss {
			res, err := h.exec(s)
			if err != nil {
				return fmt.Errorf("oracle: %s: %w", s.text, err)
			}
			s.want = fingerprint(res.Rows, s.ordered)
		}
		return nil
	}
	if c.batches == nil {
		err = fill(c.stmts)
	} else {
		err = fill(c.warm)
		for b := 0; b < len(c.batches) && err == nil; b++ {
			if err = h.eng.LoadRows(c.tables[0].name, c.batches[b]); err == nil {
				err = fill(c.passes[b])
			}
		}
	}
	return time.Since(t0), err
}

// resultDigest chains the expected fingerprints of all distinct statements.
// Every executed statement is compared with these, so with failed = 0 two
// workloads printing the same digest returned the same results.
func resultDigest(c *corpus) string {
	h := uint64(fnvOffset)
	for _, s := range c.stmts {
		h = mix64(h ^ s.want)
	}
	return fmt.Sprintf("%016x", h)
}

// liveHeapMiB is HeapAlloc after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

const timedRounds = 5

// maxSamples bounds each client's latency buffer, which is allocated before
// the heap baseline is taken so that it does not count as engine memory.
const maxSamples = 1 << 21

// measurement is what the untraced run of one workload records.
type measurement struct {
	tally
	setups   []float64 // seconds, one per set-up
	roundQPS []float64 // statements per second, one per round
	roundP50 []float64 // ms
	roundP95 []float64 // ms
	lat      []uint32  // ns, every timed statement
	heap     []float64 // MiB above the baseline taken before set-up
}

// measure runs the untraced workload: set-up SetupRepeats times, then the
// timed phase for about the given number of seconds.
func measure(sp *spec, c *corpus, sz sizes, seconds float64) (*measurement, error) {
	m := &measurement{}
	if c.batches != nil {
		return m, m.ingestCycles(sp, c, sz, seconds)
	}
	bufs := make([][]uint32, sp.clients)
	for i := range bufs {
		bufs[i] = make([]uint32, 0, maxSamples)
	}
	var h *handle
	var base float64
	for i := 0; i < sz.SetupRepeats; i++ {
		if h != nil {
			h.close()
			h = nil // the baseline must not count the previous engine
		}
		base = liveHeapMiB()
		fresh, d, _, err := setUp(sp, c, &m.tally)
		if err != nil {
			return nil, err
		}
		h = fresh
		m.setups = append(m.setups, d.Seconds())
	}
	defer h.close()

	roundDur := time.Duration(seconds / timedRounds * float64(time.Second))
	next := make([]int, sp.clients) // each client's position in its pass list
	for c0 := range next {
		next[c0] = c0
	}
	for r := 0; r < timedRounds; r++ {
		var wg sync.WaitGroup
		qps := make([]float64, sp.clients)
		tallies := make([]tally, sp.clients)
		from := make([]int, sp.clients)
		for cl := 0; cl < sp.clients; cl++ {
			from[cl] = len(bufs[cl])
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				// The loop works on locals and publishes once at the end:
				// neighbouring slice elements written per statement would
				// bounce one cache line between the clients' cores.
				buf, pass, t := bufs[cl], next[cl], tally{}
				t0 := time.Now()
				for time.Since(t0) < roundDur {
					for _, s := range c.passes[pass%len(c.passes)] {
						q0 := time.Now()
						res, err := h.exec(s)
						d := time.Since(q0)
						if len(buf) < maxSamples {
							buf = append(buf, uint32(d))
						}
						t.check(s, res, err)
					}
					pass += sp.clients
				}
				qps[cl] = float64(t.attempted) / time.Since(t0).Seconds()
				bufs[cl], next[cl], tallies[cl] = buf, pass, t
			}(cl)
		}
		wg.Wait()
		var total float64
		var round []uint32
		for cl := 0; cl < sp.clients; cl++ {
			total += qps[cl]
			m.attempted += tallies[cl].attempted
			m.failed += tallies[cl].failed
			round = append(round, bufs[cl][from[cl]:]...)
		}
		m.roundQPS = append(m.roundQPS, total)
		m.roundP50 = append(m.roundP50, percentileMs(round, 0.50))
		m.roundP95 = append(m.roundP95, percentileMs(round, 0.95))
	}
	m.heap = append(m.heap, liveHeapMiB()-base)
	for _, b := range bufs {
		m.lat = append(m.lat, b...)
	}
	return m, nil
}

// ingestCycles is the timed phase of ingest_mixed. One cycle grows a fresh
// table by IngestBatches batches with 16 reads after each, so every cycle
// issues the same statements against the same table sizes; a cycle is one
// round, and each cycle's set-up is one setup_s sample.
func (m *measurement) ingestCycles(sp *spec, c *corpus, sz sizes, seconds float64) error {
	buf := make([]uint32, 0, maxSamples)
	var measured time.Duration
	for cycle := 0; cycle < sz.SetupRepeats || measured.Seconds() < seconds; cycle++ {
		base := liveHeapMiB()
		h, d, lt, err := setUp(sp, c, &m.tally)
		if err != nil {
			return err
		}
		m.setups = append(m.setups, d.Seconds())
		from := len(buf)
		t0 := time.Now()
		err = ingestCycle(c, &lt, func(s *stmt) error {
			q0 := time.Now()
			res, err := h.exec(s)
			buf = append(buf, uint32(time.Since(q0)))
			m.check(s, res, err)
			return nil
		}, h)
		if err != nil {
			h.close()
			return err
		}
		wall := time.Since(t0)
		measured += wall
		m.roundQPS = append(m.roundQPS, float64(len(buf)-from)/wall.Seconds())
		m.roundP50 = append(m.roundP50, percentileMs(buf[from:], 0.50))
		m.roundP95 = append(m.roundP95, percentileMs(buf[from:], 0.95))
		m.heap = append(m.heap, liveHeapMiB()-base)
		h.close()
	}
	m.lat = buf
	return nil
}

// ingestCycle drives one cycle's deterministic interleave: every write goes
// to all engines (the traced run keeps a replica in step), read is called
// for each statement, and the write-side times of the first engine are
// added to lt.
func ingestCycle(c *corpus, lt *loadTimes, read func(*stmt) error, engines ...*handle) error {
	name := c.tables[0].name
	var discard loadTimes
	timesOf := func(i int) *loadTimes {
		if i == 0 {
			return lt
		}
		return &discard
	}
	for b, batch := range c.batches {
		analyze := (b+1)%ingestAnalyzeEvery == 0
		flush := analyze || (b+1)%ingestFlushEvery == 0
		for i, h := range engines {
			times := timesOf(i)
			t0 := time.Now()
			if err := h.eng.LoadRows(name, batch); err != nil {
				return fmt.Errorf("load batch %d: %w", b, err)
			}
			times.load += time.Since(t0)
			times.rows += len(batch)
		}
		for _, s := range c.passes[b] {
			if err := read(s); err != nil {
				return err
			}
		}
		for i, h := range engines {
			times := timesOf(i)
			var err error
			switch {
			case analyze:
				err = h.flushAnalyze(times)
			case flush:
				t0 := time.Now()
				err = h.eng.Flush()
				times.flush += time.Since(t0)
			}
			if err != nil {
				return fmt.Errorf("after batch %d: %w", b, err)
			}
		}
	}
	return nil
}
