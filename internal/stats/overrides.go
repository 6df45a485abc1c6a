// Cardinality overrides: execution feedback promoted into the estimator.
// Analyzed executions observe the true output cardinality of table scans;
// those observations are stored per (table, predicate fingerprint) and
// consulted before the histogram estimate, so a statement whose statistics
// have drifted (bulk load without ANALYZE, correlated predicates) re-plans
// with runtime truth instead of stale summaries. Overrides only ever change
// estimates — plan choice, never results.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// materialChange is the q-error between an existing override and a new
// observation past which the override is considered materially changed (the
// signal callers use to invalidate cached plans). Refreshes within the
// factor update the stored value silently.
const materialChange = 1.5

// Overrides is a concurrency-safe store of observed cardinalities keyed by
// (table, predicate fingerprint). The empty fingerprint keys the bare-scan
// (table cardinality) override.
type Overrides struct {
	mu sync.RWMutex
	m  map[overrideKey]float64
}

type overrideKey struct {
	table string
	pred  string
}

// NewOverrides returns an empty override store.
func NewOverrides() *Overrides {
	return &Overrides{m: make(map[overrideKey]float64)}
}

// Get returns the observed cardinality for (table, pred), if recorded.
func (o *Overrides) Get(table, pred string) (float64, bool) {
	if o == nil {
		return 0, false
	}
	o.mu.RLock()
	rows, ok := o.m[overrideKey{table, pred}]
	o.mu.RUnlock()
	return rows, ok
}

// Set records an observed cardinality and reports whether the store changed
// materially: a new key, or an existing one whose value moved by more than a
// factor of materialChange. Non-material refreshes still update the stored
// value.
func (o *Overrides) Set(table, pred string, rows float64) bool {
	if rows < 0 {
		rows = 0
	}
	k := overrideKey{table, pred}
	o.mu.Lock()
	defer o.mu.Unlock()
	old, ok := o.m[k]
	o.m[k] = rows
	if !ok {
		return true
	}
	return physical.QError(old, rows) > materialChange
}

// Len reports how many overrides are recorded.
func (o *Overrides) Len() int {
	if o == nil {
		return 0
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.m)
}

// FingerprintFilters canonicalizes a conjunction applied directly to a scan
// of the named base table. The rendering is binding-independent — columns
// appear as base-table ordinals, conjuncts are sorted — so the same logical
// predicate fingerprints identically across statements, aliases and plan
// shapes. ok is false when any conjunct is not a simple single-table
// predicate (column-vs-column comparisons, subqueries, UDPs, columns of
// other tables): such observations are not safely attributable to (table,
// predicate) and must not become overrides. An empty conjunction
// fingerprints to "", the bare-scan (table cardinality) key.
func FingerprintFilters(md *logical.Metadata, table string, filters []logical.Scalar) (string, bool) {
	if len(filters) == 0 {
		return "", true
	}
	parts := make([]string, 0, len(filters))
	for _, f := range filters {
		p, ok := fingerprintPred(md, table, f)
		if !ok {
			return "", false
		}
		parts = append(parts, p)
	}
	sort.Strings(parts)
	return strings.Join(parts, "&"), true
}

func fingerprintPred(md *logical.Metadata, table string, f logical.Scalar) (string, bool) {
	switch t := f.(type) {
	case *logical.Cmp:
		col, val, op, ok := normalizeCmp(t)
		if !ok {
			return "", false
		}
		ord, ok := baseOrd(md, table, col)
		if !ok {
			return "", false
		}
		return fmt.Sprintf("#%d %v %s", ord, op, fpConst(val)), true
	case *logical.IsNull:
		c, ok := t.E.(*logical.Col)
		if !ok {
			return "", false
		}
		ord, ok := baseOrd(md, table, c.ID)
		if !ok {
			return "", false
		}
		if t.Negated {
			return fmt.Sprintf("#%d notnull", ord), true
		}
		return fmt.Sprintf("#%d null", ord), true
	case *logical.InList:
		c, ok := t.E.(*logical.Col)
		if !ok {
			return "", false
		}
		ord, ok := baseOrd(md, table, c.ID)
		if !ok {
			return "", false
		}
		vals := make([]string, 0, len(t.List))
		for _, item := range t.List {
			k, ok := item.(*logical.Const)
			if !ok {
				return "", false
			}
			vals = append(vals, fpConst(k.Val))
		}
		sort.Strings(vals)
		neg := ""
		if t.Negated {
			neg = "!"
		}
		return fmt.Sprintf("#%d %sin(%s)", ord, neg, strings.Join(vals, ",")), true
	}
	return "", false
}

// baseOrd resolves a column to its base-table ordinal, verifying it actually
// belongs to the given table.
func baseOrd(md *logical.Metadata, table string, id logical.ColumnID) (int, bool) {
	cm := md.Column(id)
	if cm.Base == nil || cm.Base.Name != table {
		return 0, false
	}
	return cm.BaseOrd, true
}

// fpConst renders a constant with its kind tag so values that compare equal
// across kinds (1 vs "1") cannot collide.
func fpConst(d datum.D) string {
	return fmt.Sprintf("%d:%s", int(d.Kind()), d.String())
}
