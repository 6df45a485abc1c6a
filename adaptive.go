// Adaptive planning plumbing: harvesting analyzed-execution observations
// into the estimator's cardinality overrides and the q-error replan trigger.
// The greedy fast path itself lives in internal/systemr; this file is the
// engine-side feedback loop that decides when plans should be revisited.
package queryopt

import (
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/stats"
)

// harvestOverrides promotes measured table-scan cardinalities from one
// analyzed execution into the engine's override store, returning whether any
// override changed materially (the caller's signal to invalidate cached plan
// diagrams). Only scans that actually ran are harvested — a node registered
// by plan setup but never pulled reports ActualRows=0, which is an artifact
// of early termination, not an observation of an empty result. Scans under a
// LIMIT are skipped for the same reason: their row counts reflect the cutoff,
// not the predicate. Re-invoked scans (re-materialized inner sides) record
// the per-invocation average.
func (e *Engine) harvestOverrides(p physical.Plan, md *logical.Metadata, rm *physical.RunMetrics) bool {
	changed := false
	var walk func(p physical.Plan, underLimit bool)
	walk = func(p physical.Plan, underLimit bool) {
		if ts, ok := p.(*physical.TableScan); ok && !underLimit && ts.Table != nil {
			if m := rm.Lookup(p); m != nil && m.Invocations > 0 {
				if fp, ok := stats.FingerprintFilters(md, ts.Table.Name, ts.Filter); ok {
					actual := float64(m.ActualRows) / float64(m.Invocations)
					if e.overrides.Set(ts.Table.Name, fp, actual) {
						changed = true
					}
				}
			}
		}
		if _, ok := p.(*physical.LimitOp); ok {
			underLimit = true
		}
		for _, c := range physical.Children(p) {
			walk(c, underLimit)
		}
	}
	walk(p, false)
	return changed
}

// OverrideCount reports how many feedback-patched cardinality overrides the
// engine currently holds (always 0 unless Options.FeedbackPatching).
func (e *Engine) OverrideCount() int { return e.overrides.Len() }

// markReplan flags a statement family (by fingerprint) for forced
// re-optimization: the next cached execution drops its plan diagram.
func (e *Engine) markReplan(fp string) {
	e.replanMu.Lock()
	e.replan[fp] = struct{}{}
	e.replanPending.Store(int64(len(e.replan)))
	e.replanMu.Unlock()
}

// consumeReplan reports and clears the replan mark for a statement family.
// The mark is consumed exactly once: the execution that observes it
// re-optimizes (with feedback-patched statistics, if enabled) and re-caches.
// Without a pending mark it takes no lock.
func (e *Engine) consumeReplan(fp string) bool {
	if e.replanPending.Load() == 0 {
		return false
	}
	e.replanMu.Lock()
	_, ok := e.replan[fp]
	if ok {
		delete(e.replan, fp)
		e.replanPending.Store(int64(len(e.replan)))
	}
	e.replanMu.Unlock()
	return ok
}
