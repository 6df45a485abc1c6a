// EXPLAIN ANALYZE API surface: the structured per-operator runtime metrics
// tree returned by analyzed executions, and the engine's execution-feedback
// report over accumulated estimate-vs-actual observations.
package queryopt

import (
	"context"
	"fmt"

	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/sql"
)

// PlanAnalysis is the outcome of an analyzed execution: the rendered
// EXPLAIN ANALYZE text plus the structured metrics tree.
type PlanAnalysis struct {
	// Text is the plan annotated with runtime metrics, one line per node.
	Text string
	// Root is the structured metrics tree mirroring the physical plan.
	Root *NodeAnalysis
	// WorstQError is the largest per-node q-error among executed nodes (1.0
	// when every estimate was perfect or nothing executed) — the signal the
	// Options.ReplanQErrorThreshold trigger compares against.
	WorstQError float64
}

// NodeAnalysis is one plan node's estimates confronted with its measured
// runtime behaviour.
type NodeAnalysis struct {
	// Op is the operator description as printed by EXPLAIN.
	Op string
	// EstRows is the optimizer's cardinality estimate.
	EstRows float64
	// EstCost is the optimizer's cost estimate for the subtree.
	EstCost float64
	// Executed reports whether the node ran at all; the remaining runtime
	// fields are zero when it did not (e.g. a pruned LIMIT input).
	Executed bool
	// ActualRows is the measured number of rows the node emitted.
	ActualRows int64
	// QError is the misestimation factor max(est/actual, actual/est) with
	// both sides floored at one row. 1.0 means a perfect estimate.
	QError float64
	// Invocations counts node executions (>1 for re-materialized inputs).
	Invocations int64
	// Batches counts the morsels the operator processed; it depends on the
	// input size only, not on parallelism or vectorization.
	Batches int64
	// Pipeline is the executor pipeline the node ran in: nodes with the same
	// number ran fused per morsel; a different number than the input's marks
	// a breaker.
	Pipeline int
	// Vectorized reports that at least one predicate conjunct, hash or
	// aggregate of the node ran on a typed kernel.
	Vectorized bool
	// WallNanos is inclusive wall time (node plus inputs); SelfNanos is the
	// node's own share after subtracting executed children.
	WallNanos, SelfNanos int64
	// PeakMemRows is the peak number of rows buffered at once.
	PeakMemRows int64
	// PeakMemBytes is the peak working memory the node reserved from the
	// query's memory account, in modeled bytes.
	PeakMemBytes int64
	// Spills counts temp files the node wrote when degrading under the
	// memory budget; SpillBytes is their total size.
	Spills, SpillBytes int64
	// WorkerRows holds per-worker (per-partition for Exchange) row counts;
	// imbalance here is partition skew.
	WorkerRows []int64
	// Children are the node's inputs in plan order.
	Children []*NodeAnalysis
}

// buildAnalysis converts collected run metrics into the public analysis tree.
func buildAnalysis(p physical.Plan, md *logical.Metadata, rm *physical.RunMetrics) *PlanAnalysis {
	pa := &PlanAnalysis{
		Text:        physical.FormatAnalyze(p, md, rm),
		Root:        buildNodeAnalysis(p, md, rm),
		WorstQError: 1,
	}
	pa.Root.Walk(func(n *NodeAnalysis) {
		if n.Executed && n.QError > pa.WorstQError {
			pa.WorstQError = n.QError
		}
	})
	return pa
}

func buildNodeAnalysis(p physical.Plan, md *logical.Metadata, rm *physical.RunMetrics) *NodeAnalysis {
	est, cost := p.Estimate()
	n := &NodeAnalysis{
		Op:      physical.Describe(p, md),
		EstRows: est,
		EstCost: cost,
	}
	if m := rm.Lookup(p); m != nil {
		n.Executed = true
		n.ActualRows = m.ActualRows
		n.QError = physical.QError(est, float64(m.ActualRows))
		n.Invocations = m.Invocations
		n.Batches = m.Batches
		n.Pipeline = m.Pipeline
		n.Vectorized = m.Vectorized
		n.WallNanos = m.WallNanos
		n.PeakMemRows = m.PeakMemRows
		n.PeakMemBytes = m.PeakMemBytes
		n.Spills = m.Spills
		n.SpillBytes = m.SpillBytes
		n.WorkerRows = append([]int64(nil), m.WorkerRows...)
		n.SelfNanos = m.WallNanos
		for _, c := range physical.Children(p) {
			if cm := rm.Lookup(c); cm != nil {
				n.SelfNanos -= cm.WallNanos
			}
		}
		if n.SelfNanos < 0 {
			n.SelfNanos = 0
		}
	}
	for _, c := range physical.Children(p) {
		n.Children = append(n.Children, buildNodeAnalysis(c, md, rm))
	}
	return n
}

// Walk visits the node and its descendants in pre-order.
func (n *NodeAnalysis) Walk(fn func(*NodeAnalysis)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// QueryAnalyze executes a SELECT with per-operator instrumentation enabled
// and returns both the query result and the runtime-metrics tree — the
// programmatic form of EXPLAIN ANALYZE. The observations are also recorded
// into the engine's feedback ring (see FeedbackReport).
func (e *Engine) QueryAnalyze(text string) (*Result, *PlanAnalysis, error) {
	return e.QueryAnalyzeContext(context.Background(), text)
}

// QueryAnalyzeContext is QueryAnalyze under a context: cancellation and
// deadlines propagate to every execution goroutine (see ExecContext).
func (e *Engine) QueryAnalyzeContext(ctx context.Context, text string) (*Result, *PlanAnalysis, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("queryopt: QueryAnalyze supports SELECT statements only, got %T", stmt)
	}
	return e.run(ctx, sel, false, true, text)
}

// FeedbackEntry is one retained estimate-vs-actual observation.
type FeedbackEntry struct {
	// Statement is the normalized statement family the observation came from
	// (literals and parameters rendered as `?`). Observations from identical
	// operators in different statements stay distinct.
	Statement string
	// Node is the operator description the observation belongs to.
	Node string
	// Est and Actual are the estimated and measured cardinalities.
	Est, Actual float64
	// QError is the misestimation factor between them.
	QError float64
}

// FeedbackLen reports how many observations the engine's feedback ring
// currently retains.
func (e *Engine) FeedbackLen() int { return e.feedback.Len() }

// FeedbackReport returns up to k retained observations ordered by descending
// q-error: the worst cardinality-misestimation offenders seen by analyzed
// executions, i.e. where refreshed statistics would pay off most. Repeated
// observations of the same (statement, operator) pair are deduplicated to
// their worst q-error, so a hot statement cannot flood the report.
func (e *Engine) FeedbackReport(k int) []FeedbackEntry {
	worst := e.feedback.WorstOffenders(k)
	out := make([]FeedbackEntry, len(worst))
	for i, w := range worst {
		out[i] = FeedbackEntry{Statement: w.Statement, Node: w.Node, Est: w.Est, Actual: w.Actual, QError: w.QError}
	}
	return out
}
