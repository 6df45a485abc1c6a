package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrMemoryBudgetExceeded is the sentinel for queries that cannot run within
// Options.MemBudget even after spilling; match it with errors.Is. The
// concrete error carries the operator and the sizes involved.
var ErrMemoryBudgetExceeded = errors.New("exec: memory budget exceeded")

// BudgetExceededError reports the operator whose working memory cannot fit
// the budget even in its degraded (spilling) mode. It unwraps to
// ErrMemoryBudgetExceeded.
type BudgetExceededError struct {
	// Op names the operator that could not fit (e.g. "hash join build
	// partition", "hash aggregation partition").
	Op string
	// NeedBytes is the reservation that failed; BudgetBytes the configured
	// cap; UsedBytes the account's usage at the time.
	NeedBytes, BudgetBytes, UsedBytes int64
}

func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("exec: memory budget exceeded: %s needs %d bytes (budget %d, in use %d)",
		e.Op, e.NeedBytes, e.BudgetBytes, e.UsedBytes)
}

// Unwrap makes errors.Is(err, ErrMemoryBudgetExceeded) hold.
func (e *BudgetExceededError) Unwrap() error { return ErrMemoryBudgetExceeded }

// MemAccount is the per-query memory account of the resource governor
// (§5.2's buffer-dependent operator costs made a runtime contract): every
// memory-intensive operator — hash-join builds, hash-aggregation tables,
// sort buffers — reserves its working memory here before using it, and
// releases it when done. One account is shared by all workers of a query, so
// all methods are atomic. A zero Budget means accounting only (no cap).
type MemAccount struct {
	used   atomic.Int64
	peak   atomic.Int64
	budget int64
	// parent, when set, is a shared pool account every reservation is also
	// charged to: per-query accounts chain to the engine-wide total so that
	// many concurrent queries cannot collectively exceed the server budget.
	parent *MemAccount
}

// NewMemAccount returns an account capped at budget bytes (<= 0 = unlimited).
func NewMemAccount(budget int64) *MemAccount {
	if budget < 0 {
		budget = 0
	}
	return &MemAccount{budget: budget}
}

// NewMemAccountWithParent returns an account capped at budget bytes whose
// reservations are additionally charged to (and bounded by) parent. A nil
// parent behaves like NewMemAccount.
func NewMemAccountWithParent(budget int64, parent *MemAccount) *MemAccount {
	a := NewMemAccount(budget)
	a.parent = parent
	return a
}

// Peak returns the high-water mark of reserved bytes.
func (a *MemAccount) Peak() int64 {
	if a == nil {
		return 0
	}
	return a.peak.Load()
}

// Available returns how many more bytes fit under the budget and the parent
// pool's; unlimited accounts (and nil) report a large positive number.
func (a *MemAccount) Available() int64 {
	if a == nil {
		return int64(1) << 62
	}
	av := a.parent.Available()
	if a.budget > 0 {
		av = min(av, max(a.budget-a.used.Load(), 0))
	}
	return av
}

// Grow reserves n bytes, failing with a *BudgetExceededError (wrapping
// ErrMemoryBudgetExceeded) when the reservation would exceed the budget.
// Operators that can degrade respond to the failure by spilling; operators
// that cannot propagate it. A nil account always succeeds.
func (a *MemAccount) Grow(op string, n int64) error {
	if a == nil || n <= 0 {
		return nil
	}
	for {
		cur := a.used.Load()
		next := cur + n
		if a.budget > 0 && next > a.budget {
			return &BudgetExceededError{Op: op, NeedBytes: n, BudgetBytes: a.budget, UsedBytes: cur}
		}
		if a.used.CompareAndSwap(cur, next) {
			a.notePeak(next)
			break
		}
	}
	if a.parent != nil {
		if err := a.parent.Grow(op, n); err != nil {
			// The pool is exhausted: roll the local reservation back so the
			// failed query releases exactly what it still holds.
			a.used.Add(-n)
			return err
		}
	}
	return nil
}

// GrowFloor reserves n more bytes for an operator that has already reserved
// have bytes, granting the reservation unconditionally while have+n stays
// within floor — the operator's minimal working set. Degraded (spilling)
// operators use it so that arbitrarily small budgets still let one partition
// make progress; reservations beyond the floor must fit the budget like Grow,
// so a partition that outgrows both the floor and the budget still fails with
// the typed error.
func (a *MemAccount) GrowFloor(op string, n, have, floor int64) error {
	if a == nil || n <= 0 {
		return nil
	}
	if have+n <= floor {
		a.forceGrow(n)
		return nil
	}
	return a.Grow(op, n)
}

// forceGrow charges n bytes unconditionally, on this account and up the
// parent chain — floor grants must land in the shared pool's books too, so
// the documented overshoot (at most admitted-queries × floor) stays visible
// in Used/Peak rather than silently uncounted.
func (a *MemAccount) forceGrow(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.notePeak(a.used.Add(n))
	a.parent.forceGrow(n)
}

// Shrink releases n bytes previously reserved with Grow, on this account and
// up the parent chain.
func (a *MemAccount) Shrink(n int64) {
	if a == nil || n <= 0 {
		return
	}
	if next := a.used.Add(-n); next < 0 {
		// Release imbalance is a programming error; clamp rather than poison
		// subsequent queries on a shared account.
		a.used.Store(0)
	}
	a.parent.Shrink(n)
}

// NotePeak records a transient high-water observation of n bytes above the
// current usage without reserving it — used at materialization points
// (external-sort run buffers) that must complete regardless of the budget, so
// that Peak and EXPLAIN ANALYZE stay honest about them.
func (a *MemAccount) NotePeak(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.notePeak(a.used.Load() + n)
}

func (a *MemAccount) notePeak(v int64) {
	for {
		p := a.peak.Load()
		if v <= p || a.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// entryOverhead is the modeled per-row bookkeeping cost (hash-table entry,
// run index, group pointer) charged on top of the row's data bytes.
const entryOverhead = 24
