package physical

import (
	"sort"
	"sync"

	"repro/internal/logical"
)

// FeedbackEntry is one (plan node, estimated rows, actual rows) observation
// recorded by an analyzed execution — the raw material of execution feedback.
type FeedbackEntry struct {
	// Statement is the normalized statement text the observation came from.
	// Identically-shaped nodes from different statements (e.g. "project" over
	// two different tables) would otherwise alias in reports and in the
	// stats-patching path.
	Statement string
	Node      string  // operator description (Describe output)
	Est       float64 // optimizer's estimated cardinality
	Actual    float64 // measured cardinality
	QError    float64 // misestimation factor, QError(Est, Actual)
}

// FeedbackRing is a fixed-capacity ring buffer of estimate-vs-actual
// observations. Analyzed executions append to it; reports over the retained
// window surface the worst q-error offenders, the places where collecting
// better statistics (or abandoning the independence assumption) would pay
// off most. The ring is safe for concurrent use.
type FeedbackRing struct {
	mu   sync.Mutex
	buf  []FeedbackEntry
	next int
	full bool
}

// NewFeedbackRing returns a ring retaining the last capacity observations
// (minimum 1).
func NewFeedbackRing(capacity int) *FeedbackRing {
	if capacity < 1 {
		capacity = 1
	}
	return &FeedbackRing{buf: make([]FeedbackEntry, capacity)}
}

// RecordStmt appends one observation, tagged with the originating
// statement's normalized text so observations from different statements
// never alias, and evicts the oldest when full.
func (r *FeedbackRing) RecordStmt(stmt, node string, est, actual float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = FeedbackEntry{Statement: stmt, Node: node, Est: est, Actual: actual, QError: QError(est, actual)}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len reports how many observations the ring currently retains.
func (r *FeedbackRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Entries returns the retained observations, oldest first.
func (r *FeedbackRing) Entries() []FeedbackEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]FeedbackEntry{}, r.buf[:r.next]...)
	}
	out := make([]FeedbackEntry, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// WorstOffenders returns up to k distinct offenders ordered by descending
// q-error — the report that tells the optimizer (or its operator) which
// estimates runtime truth contradicts hardest. Observations of the same
// (statement, node) pair across executions collapse to one entry keeping the
// maximum q-error, so a hot statement re-run many times cannot fill every
// report slot with copies of a single operator.
func (r *FeedbackRing) WorstOffenders(k int) []FeedbackEntry {
	entries := r.Entries()
	type key struct{ stmt, node string }
	best := make(map[key]FeedbackEntry, len(entries))
	order := make([]key, 0, len(entries))
	for _, e := range entries {
		kk := key{e.Statement, e.Node}
		cur, seen := best[kk]
		if !seen {
			order = append(order, kk)
		}
		if !seen || e.QError > cur.QError {
			best[kk] = e
		}
	}
	deduped := make([]FeedbackEntry, 0, len(order))
	for _, kk := range order {
		deduped = append(deduped, best[kk])
	}
	sort.SliceStable(deduped, func(i, j int) bool { return deduped[i].QError > deduped[j].QError })
	if k < len(deduped) {
		deduped = deduped[:k]
	}
	return deduped
}

// RecordPlan walks an analyzed plan and records one observation per executed
// node — the hook an analyzed execution calls at completion. stmt is the
// normalized statement text keying the observations. Nodes the execution
// never actually invoked (e.g. subtrees short-circuited to zero loops) carry
// no information — recording them as actual=0 would poison reports and
// stats-patching with bogus q-errors — so they are skipped.
func (r *FeedbackRing) RecordPlan(p Plan, md *logical.Metadata, rm *RunMetrics, stmt string) {
	if r == nil || rm == nil {
		return
	}
	var walk func(Plan)
	walk = func(n Plan) {
		if m := rm.Lookup(n); m != nil && m.Invocations > 0 {
			est, _ := n.Estimate()
			r.RecordStmt(stmt, Describe(n, md), est, float64(m.ActualRows))
		}
		for _, c := range Children(n) {
			walk(c)
		}
	}
	walk(p)
}
