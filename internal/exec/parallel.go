// The morsel scheduler (§7.1 made real): every loop in this package is written
// once, as a body over morsels of ~1024 rows — a whole pipeline's
// (pipeline.go) or a sort run's — and this file decides how many workers run
// it. One worker is the serial engine — the body runs inline on the calling
// goroutine; more workers claim morsels from a shared pool. The degree is a
// property of the run (Ctx.Parallelism), not of the plan: one plan runs at
// every degree. The partitioning §7.1 describes happens inside the
// operators: joins probe one shared right input morsel-wise, hash
// aggregation pre-aggregates into thread-local tables folded at the pipeline
// barrier. In one address space no tuple has to travel between workers, so
// there is no exchange operator; the repartitioning cost that processors
// without shared memory would pay is internal/parallel's §7.1 model, which
// the executor never consults.
//
// Every pool worker gets a private Ctx (its counters) merged
// into the parent at the barrier, so the engine is race-free under
// `go test -race`. Operators emit the same rows in the same order at every
// worker count wherever the order is observable: a pipeline's collected
// output keeps per-morsel outputs in morsel order and sorts reproduce the
// stable order exactly. Hash aggregation on several workers emits groups in a
// deterministic but worker-count-specific order (group output is unordered in
// SQL); stream aggregation runs on one worker and emits them in input order.
package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// MorselSize is the number of rows a worker claims at a time. Small enough to
// balance skewed pipelines, large enough to amortize scheduling.
const MorselSize = 1024

// minParallelRows is the input size below which operators stay on one
// worker: the fan-out overhead would exceed the work.
const minParallelRows = 2 * MorselSize

// Pool is a fixed-size worker pool shared by all parallel operators of one or
// more executions. Workers run until Close. All goroutines of the parallel
// engine live here: operators never spawn bare goroutines (enforced by
// TestNoBareGoroutinesInExec), which is what makes the zero-leak guarantee
// checkable — after Close returns, every pool goroutine has exited.
type Pool struct {
	size int
	jobs chan func()
	wg   sync.WaitGroup

	// mu serializes submits against Close so a submit can never hit a closed
	// channel: senders hold mu across the channel send, and Close flips
	// closed before closing the channel. Late submitters get ErrPoolClosed
	// instead of a panic.
	mu     sync.Mutex
	closed bool
}

// ErrPoolClosed is returned by submissions that arrive after Close. Engines
// that share one pool across queries surface it to callers racing shutdown;
// match with errors.Is.
var ErrPoolClosed = errors.New("exec: worker pool closed")

// NewPool starts a pool with the given number of workers (<= 0 means
// GOMAXPROCS).
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: size, jobs: make(chan func())}
	p.wg.Add(size)
	for i := 0; i < size; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// Close releases the pool's workers and blocks until they have all exited,
// so callers can assert the goroutine count is back to baseline. In-flight
// submissions (already holding the submit lock) drain to a worker first;
// submissions arriving after Close get ErrPoolClosed. Safe to call more
// than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// submit hands f to a worker, blocking until one accepts it. Holding mu
// across the send cannot deadlock Close: workers keep draining jobs until
// the channel closes, and the channel only closes under this same lock.
func (p *Pool) submit(f func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	p.jobs <- f
	return nil
}

// barrier is the shared abort state of one runWorkers call: the first
// failing worker raises it, and the others stop claiming work at their next
// morsel boundary instead of finishing the pipeline nobody will read.
type barrier struct{ failed atomic.Bool }

func (b *barrier) abort()        { b.failed.Store(true) }
func (b *barrier) aborted() bool { return b != nil && b.failed.Load() }

// errBarrierAborted is returned by workers that stopped early because a
// sibling already failed. It never wins error selection and never escapes
// runWorkers.
var errBarrierAborted = errors.New("exec: barrier aborted by sibling failure")

// seqError tags a worker error with its deterministic sequence position —
// the morsel index for morsel-driven loops — so error selection at the
// barrier does not depend on goroutine scheduling.
type seqError struct {
	seq int
	err error
}

func (e *seqError) Error() string { return e.err.Error() }
func (e *seqError) Unwrap() error { return e.err }

// ensurePool returns the shared pool, creating (and owning) one on demand.
func (c *Ctx) ensurePool() *Pool {
	if c.Pool == nil {
		c.Pool = NewPool(c.Parallelism)
		c.ownPool = true
	}
	return c.Pool
}

// runWorkers runs fn(w, workerCtx) for w in [0, n) and blocks until all
// return — a pipeline barrier. One worker is the serial engine: fn runs
// inline on the calling goroutine against c itself, with no pool submit, no
// child context and no merge. More workers run on the pool, each with a
// private child Ctx whose counters are merged into c at the barrier (on
// success AND on failure, so canceled queries still report their partial
// work); their panics are converted to errors so a failing morsel cannot
// kill the process.
//
// Error discipline: the first failure (by deterministic sequence position —
// morsel index when fn tags errors with seqError, worker index otherwise)
// wins; later failures are dropped, and workers that observed the barrier's
// abort flag and stopped early never contribute an error at all. The same
// error therefore surfaces on every run regardless of goroutine scheduling.
func (c *Ctx) runWorkers(n int, fn func(w int, wc *Ctx) error) error {
	if n <= 1 {
		err := fn(0, c)
		if se, ok := err.(*seqError); ok {
			err = se.err
		}
		return err
	}
	pool := c.ensurePool()
	children := make([]*Ctx, n)
	errs := make([]error, n)
	bar := &barrier{}
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		w := w
		wc := c.child()
		wc.bar = bar
		children[w] = wc
		if err := pool.submit(func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("exec: worker %d panic: %v", w, r)
					bar.abort()
				}
			}()
			if err := fn(w, wc); err != nil {
				errs[w] = err
				bar.abort()
			}
		}); err != nil {
			// Pool closed under us (engine shutdown racing a query): the
			// worker never ran, so balance the barrier ourselves and let the
			// typed error surface. Earlier workers that did start see the
			// abort flag at their next morsel boundary.
			errs[w] = err
			bar.abort()
			wg.Done()
		}
	}
	wg.Wait()
	for w, wc := range children {
		c.Counters.add(wc.Counters)
		if c.curNode == nil {
			continue
		}
		// Per-worker row counts merge into the analyzed operator at the
		// barrier — same discipline as the counters, so analyze mode stays
		// race-clean. Zero-row phases (e.g. hash builds) are not recorded.
		if wc.Counters.RowsProcessed > 0 {
			c.curNode.AddWorkerRows(w, wc.Counters.RowsProcessed)
		}
		// Workers have no curNode, so their segment-file reads only reached
		// their private counters; credit the analyzed node here.
		c.curNode.ReadStats.Add(wc.Counters.ReadStats)
	}
	return firstError(errs)
}

// firstError picks the winning error from a barrier: the smallest sequence
// position (ties broken by worker index, which only matters for untagged
// errors), skipping abort sentinels.
func firstError(errs []error) error {
	best, bestSeq := error(nil), 0
	for w, err := range errs {
		if err == nil || errors.Is(err, errBarrierAborted) {
			continue
		}
		seq := w
		var se *seqError
		if errors.As(err, &se) {
			seq = se.seq
			err = se.err
		}
		if best == nil || seq < bestSeq {
			best, bestSeq = err, seq
		}
	}
	return best
}

func numMorsels(n int) int { return (n + MorselSize - 1) / MorselSize }

// morselWorkers is the one worker-count decision of the engine: how many
// workers a loop over n input rows runs on. Serial execution is
// Parallelism <= 1; inputs under minParallelRows stay on one worker at any
// degree because the fan-out would cost more than the work — such a pipeline
// runs inline, with no pool submit. forMorsels runs morsel m on worker
// m % morselWorkers(n), so per-worker state (stage scratch, thread-local
// group tables) is indexed by that.
func (c *Ctx) morselWorkers(n int) int {
	if c.Parallelism <= 1 || n < minParallelRows {
		return 1
	}
	return min(c.Parallelism, numMorsels(n))
}

// forMorsels runs fn over n items cut into morsels on w workers — usually
// morselWorkers(n); 1 keeps the loop in morsel order on one worker. Morsels
// are assigned by static striding (worker k takes morsels k, k+w, ...), which
// keeps every run deterministic. fn receives the morsel index and its
// [lo, hi) bounds.
//
// Each morsel boundary is a governor checkpoint: workers stop when the query
// is canceled or a sibling worker has already failed, so errors and
// cancellations surface within about one morsel of work. Errors are tagged
// with their morsel index, making "first error wins" mean first in morsel
// order, not first in wall-clock order.
func (c *Ctx) forMorsels(n, w int, fn func(wc *Ctx, m, lo, hi int) error) error {
	nm := numMorsels(n)
	if nm == 0 {
		return nil
	}
	if c.curNode != nil {
		c.curNode.Batches += int64(nm)
	}
	if nm == 1 {
		// One morsel is one worker's one turn: run it here, as runWorkers
		// would, without building the worker loop.
		if c.bar.aborted() {
			return errBarrierAborted
		}
		if err := c.canceled(); err != nil {
			return err
		}
		return fn(c, 0, 0, n)
	}
	return c.runWorkers(w, func(wk int, wc *Ctx) error {
		for m := wk; m < nm; m += w {
			if wc.bar.aborted() {
				return errBarrierAborted
			}
			if err := wc.canceled(); err != nil {
				return &seqError{seq: m, err: err}
			}
			lo := m * MorselSize
			if err := fn(wc, m, lo, min(lo+MorselSize, n)); err != nil {
				return &seqError{seq: m, err: err}
			}
		}
		return nil
	})
}

// forColumns runs fn once per output column of a rows-row result, one column
// per worker turn: columns are independent vectors, so stitching them together
// needs no coordination. The worker count follows the row count like every
// other loop, capped by the number of columns.
func (c *Ctx) forColumns(rows, nCols int, fn func(wc *Ctx, ci int) error) error {
	nw := min(c.morselWorkers(rows), nCols)
	return c.runWorkers(nw, func(w int, wc *Ctx) error {
		for ci := w; ci < nCols; ci += nw {
			if wc.bar.aborted() {
				return errBarrierAborted
			}
			if err := fn(wc, ci); err != nil {
				return err
			}
		}
		return nil
	})
}
