// Prepared statements and the parameterized plan cache: the serving-layer
// face of §7.4's parametric optimization. Prepare parses and normalizes a
// SELECT containing `?`/`$n` placeholders; each execution binds concrete
// values, and the engine keeps a bounded LRU of plan diagrams keyed on the
// normalized text plus the parameter-type signature. A diagram box stores a
// plan optimized at one binding vector with its parameter tags intact, the
// plan made ready to run (exec.Program) and its plan-text template
// (physical.Template). A hit (choose-plan dispatch) neither re-optimizes nor
// copies: it runs the box's Program with the bindings, which the executor
// reads wherever the plan holds a parameter, and renders Result.Plan by
// splicing them into the template. A miss optimizes at the actual bindings
// and grows the diagram online. Because every stored plan reads its
// bindings at run time, it is correct for any binding: dispatch can only
// affect plan quality, never results.
package queryopt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/parametric"
	"repro/internal/physical"
	"repro/internal/sql"
)

// Stmt is a prepared SELECT. It is immutable and safe for concurrent
// execution from many goroutines.
type Stmt struct {
	e       *Engine
	text    string
	norm    string
	fp      string // statement-family fingerprint (replan-trigger key)
	nParams int
	sel     *sql.SelectStmt
	// lastKey is the plan-cache key of the last type signature executed, so
	// that a repeat signature builds no key.
	lastKey atomic.Pointer[stmtKey]
}

// stmtKey is a plan-cache key: the normalized text and a type signature.
type stmtKey struct{ sig, key string }

// cacheKey returns the plan-cache key of the statement under binds.
func (s *Stmt) cacheKey(binds []datum.D) string {
	if k := s.lastKey.Load(); k != nil && sameSig(k.sig, binds) {
		return k.key
	}
	sig := typeSig(binds)
	k := &stmtKey{sig: sig, key: s.norm + "\x00" + sig}
	s.lastKey.Store(k)
	return k.key
}

// Text returns the original statement text.
func (s *Stmt) Text() string { return s.text }

// NumParams returns the number of parameters the statement expects.
func (s *Stmt) NumParams() int { return s.nParams }

// Prepare parses a SELECT with `?` or `$n` placeholders for later execution.
// The prepared statement shares the engine's plan cache with every other
// Stmt whose normalized text matches.
func (e *Engine) Prepare(text string) (*Stmt, error) {
	if e.opts.Optimizer == Reference {
		return nil, fmt.Errorf("queryopt: Prepare requires an optimizing mode (reference mode executes logical trees)")
	}
	norm, nParams, err := sql.Normalize(text)
	if err != nil {
		return nil, err
	}
	fp, err := sql.Fingerprint(text)
	if err != nil || fp == "" {
		fp = norm
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("queryopt: Prepare supports SELECT statements only, got %T", stmt)
	}
	return &Stmt{e: e, text: text, norm: norm, fp: fp, nParams: nParams, sel: sel}, nil
}

// Exec runs the prepared statement with the given arguments (native Go
// values: int64, float64, string, bool, or nil for NULL).
func (s *Stmt) Exec(args ...any) (*Result, error) {
	return s.ExecContext(context.Background(), args...)
}

// cacheEntry is one plan-cache slot: the diagram for one (normalized text,
// type signature) pair, stamped with the catalog version it was built under.
type cacheEntry struct {
	mu      sync.Mutex
	version uint64
	diagram *parametric.Diagram
}

// newCacheEntry returns an empty entry. Its version 0 is stale for any
// catalog version but the first, where its diagram is empty anyway.
func newCacheEntry() any { return &cacheEntry{} }

// ExecContext is Exec under a context. Execution follows the same admission
// and latching discipline as Engine.ExecContext.
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (*Result, error) {
	if len(args) != s.nParams {
		return nil, fmt.Errorf("queryopt: statement expects %d parameter(s), got %d", s.nParams, len(args))
	}
	binds := make([]datum.D, len(args))
	for i, a := range args {
		d, err := fromGo(a)
		if err != nil {
			return nil, err
		}
		binds[i] = d
	}
	e := s.e
	release, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	e.mu.RLock()
	defer e.mu.RUnlock()

	// The q-error trigger consumes at most one replan mark per statement
	// family: this execution re-optimizes (seeing any feedback-patched
	// statistics) instead of dispatching the cached diagram.
	replan := e.consumeReplan(s.fp)

	var ce *cacheEntry
	ver := e.catVersion.Load()
	if e.plans != nil {
		slot, _ := e.plans.GetOrPut(s.cacheKey(binds), newCacheEntry)
		ce = slot.(*cacheEntry)
		ce.mu.Lock()
		if ce.version != ver || replan {
			// DDL, ANALYZE or a material feedback override moved the catalog
			// since this diagram was built, or the replan trigger fired: every
			// cached plan may now be invalid or stale — drop and regrow.
			ce.diagram = nil
			ce.version = ver
		}
		var hit compiled
		if ce.diagram != nil {
			if box := ce.diagram.Find(binds); box != nil {
				hit = compiled{q: box.Query, plan: box.Plan, tier: "cached", view: box.View,
					prog: box.Program, text: box.Text, binds: binds}
			}
		}
		ce.mu.Unlock()
		if hit.plan != nil {
			e.cacheHits.Add(1)
			res, _, err := e.execute(ctx, &hit, false, "")
			return res, err
		}
	}

	e.cacheMisses.Add(1)
	c, err := e.compile(s.sel, binds)
	if err != nil {
		return nil, err
	}
	if ce != nil {
		if err := ce.add(ver, binds, c); err != nil {
			return nil, err
		}
	}
	res, _, err := e.execute(ctx, c, false, "")
	return res, err
}

// add prepares c's Program and plan-text template, which the miss runs and
// renders, and records the plan compiled at binds in the entry's diagram,
// unless the catalog moved on since version ver was read. A new box keeps
// the Program and template.
func (ce *cacheEntry) add(ver uint64, binds []datum.D, c *compiled) error {
	sig := parametric.Signature(c.plan)
	_, estCost := c.plan.Estimate()
	c.prog, c.text = exec.Prepare(c.plan, c.q), physical.NewTemplate(c.plan, c.q.Meta)
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if ce.version != ver {
		return nil
	}
	if ce.diagram == nil {
		ce.diagram = parametric.NewDiagram(len(binds))
	}
	// Add extends a same-signature box to cover these bindings, so nearby
	// future bindings hit without re-optimizing.
	box, err := ce.diagram.Add(binds, c.plan, c.q, sig, estCost)
	if err != nil {
		return err
	}
	box.View = c.view
	if box.Plan == c.plan {
		box.Program, box.Text = c.prog, c.text
	}
	return nil
}

// typeSig fingerprints the parameter kinds: bindings with different type
// signatures (including NULL, whose plans constant-fold differently) get
// separate cache entries.
func typeSig(binds []datum.D) string {
	sig := make([]byte, len(binds))
	for i, d := range binds {
		sig[i] = byte('a' + int(d.Kind()))
	}
	return string(sig)
}

// sameSig reports whether binds have type signature sig.
func sameSig(sig string, binds []datum.D) bool {
	if len(sig) != len(binds) {
		return false
	}
	for i, d := range binds {
		if sig[i] != byte('a'+int(d.Kind())) {
			return false
		}
	}
	return true
}

// PlanCacheStats reports plan-cache effectiveness at plan granularity: a hit
// is an execution served by re-binding a cached plan, a miss ran the
// optimizer (including executions with the cache disabled).
type PlanCacheStats struct {
	Hits, Misses, Evictions int64
	// Entries is the number of (statement, type-signature) slots resident.
	Entries int
}

// PlanCacheStats returns a snapshot of the plan cache counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	st := PlanCacheStats{Hits: e.cacheHits.Load(), Misses: e.cacheMisses.Load()}
	if e.plans != nil {
		st.Entries = e.plans.Len()
		st.Evictions = e.plans.Evictions()
	}
	return st
}

// CatalogVersion returns the engine's catalog version counter (bumped by DDL
// and ANALYZE — the plan-cache invalidation signal).
func (e *Engine) CatalogVersion() uint64 { return e.catVersion.Load() }
