// Runtime metrics for EXPLAIN ANALYZE: per-operator actual row counts,
// invocation/batch counts, wall-clock time, peak buffered rows and per-worker
// row counts, confronted with the optimizer's estimates. The estimate-vs-
// actual q-error per node is the execution-feedback signal industrial
// optimizers use to survive cardinality misestimation — the dominant source
// of bad plans per the survey literature the paper's §5 anticipates.
package physical

import (
	"fmt"
	"strings"

	"repro/internal/logical"
	"repro/internal/storage"
)

// NodeMetrics aggregates the measured runtime behaviour of one plan node
// over an execution. Counters accumulate across invocations (an inner input
// re-materialized twice reports the total).
type NodeMetrics struct {
	// ActualRows is the number of rows the node emitted.
	ActualRows int64
	// Invocations counts how many times the node was executed.
	Invocations int64
	// Batches counts the morsels (~1024 input rows each) the node's operator
	// loops processed. For scans, filters and projections it depends on the
	// input size only — the same at every parallelism degree, kernels on or
	// off; a hash join adds its build-partitioning pass on several workers.
	Batches int64
	// Vectorized reports that at least one of the node's predicate
	// conjuncts, hashes or aggregates ran on a typed kernel over column
	// vectors; the rest of the node's work ran row at a time.
	Vectorized bool
	// WallNanos is inclusive wall-clock time: the node plus its inputs.
	WallNanos int64
	// PeakMemRows is the peak number of buffered rows the node held at once
	// (hash-table build entries, group-table entries, sort buffers).
	PeakMemRows int64
	// PeakMemBytes is the peak working memory the node reserved from the
	// query's memory account, in modeled bytes.
	PeakMemBytes int64
	// Spills counts temp files (sort runs, join/aggregation partitions) the
	// node wrote when its working memory exceeded the budget.
	Spills int64
	// SpillBytes is the total bytes written to those temp files.
	SpillBytes int64
	// WorkerRows are the rows each worker processed in this node when it ran
	// on more than one worker — non-uniform values expose morsel skew.
	WorkerRows []int64
	// SegmentsRead / SegmentsPruned count disk-backed columnar segments a
	// scan actually opened vs eliminated by zone maps without touching disk.
	// Both stay zero for in-memory tables.
	SegmentsRead   int64
	SegmentsPruned int64
	// ReadStats counts the node's column reads of segment files: bytes and
	// blocks read from disk by representation on cache misses (a warm scan
	// reads none), and block cache hits.
	storage.ReadStats
	// Pipeline tags the node with the executor pipeline it ran in, numbered
	// in the order pipelines were opened: nodes sharing a tag ran fused per
	// morsel, a change of tag between a node and its input is a breaker (a
	// sort, a limit or a union is a pipeline of its own).
	Pipeline int
}

// NoteMem records a buffered-rows observation, keeping the peak.
func (m *NodeMetrics) NoteMem(n int64) {
	if n > m.PeakMemRows {
		m.PeakMemRows = n
	}
}

// NoteMemBytes records a reserved-working-memory observation, keeping the peak.
func (m *NodeMetrics) NoteMemBytes(n int64) {
	if n > m.PeakMemBytes {
		m.PeakMemBytes = n
	}
}

// NoteSpill accumulates spill activity: files temp files holding bytes bytes.
func (m *NodeMetrics) NoteSpill(files, bytes int64) {
	m.Spills += files
	m.SpillBytes += bytes
}

// AddWorkerRows accumulates rows processed by worker slot w.
func (m *NodeMetrics) AddWorkerRows(w int, n int64) {
	for len(m.WorkerRows) <= w {
		m.WorkerRows = append(m.WorkerRows, 0)
	}
	m.WorkerRows[w] += n
}

// RunMetrics is the collected metrics tree of one execution, keyed by plan
// node identity. It is written by the executor's coordinating goroutine only
// (workers report through per-worker contexts merged at barriers), so it
// needs no locking.
type RunMetrics struct {
	nodes     map[Plan]*NodeMetrics
	pipelines int
}

// NewPipeline returns the tag of the next pipeline the execution opens.
func (r *RunMetrics) NewPipeline() int {
	r.pipelines++
	return r.pipelines
}

// NewRunMetrics returns an empty metrics collection.
func NewRunMetrics() *RunMetrics {
	return &RunMetrics{nodes: make(map[Plan]*NodeMetrics)}
}

// Node returns the metrics for p, creating them on first use.
func (r *RunMetrics) Node(p Plan) *NodeMetrics {
	m, ok := r.nodes[p]
	if !ok {
		m = &NodeMetrics{}
		r.nodes[p] = m
	}
	return m
}

// Lookup returns the metrics for p, or nil when p never executed.
func (r *RunMetrics) Lookup(p Plan) *NodeMetrics {
	if r == nil {
		return nil
	}
	return r.nodes[p]
}

// QError is the multiplicative misestimation factor between an estimated and
// an actual cardinality: max(est/actual, actual/est), with both sides floored
// at one row so empty results yield finite factors. 1.0 is a perfect
// estimate; the factor is symmetric in over- and underestimation.
func QError(est, actual float64) float64 {
	if est < 1 {
		est = 1
	}
	if actual < 1 {
		actual = 1
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}

// FormatAnalyze renders the plan annotated with runtime metrics — the body
// of EXPLAIN ANALYZE output. Each node shows the optimizer's estimates next
// to the measured truth plus its q-error; parallel operators additionally
// show per-worker row counts.
func FormatAnalyze(p Plan, md *logical.Metadata, rm *RunMetrics) string {
	var sb strings.Builder
	formatAnalyzeNode(&sb, p, md, rm, 0)
	return sb.String()
}

func formatAnalyzeNode(sb *strings.Builder, p Plan, md *logical.Metadata, rm *RunMetrics, depth int) {
	indent := strings.Repeat("  ", depth)
	rows, cost := p.Estimate()
	line := Describe(p, md)
	fmt.Fprintf(sb, "%s%s  (est_rows=%.0f cost=%.1f)", indent, line, rows, cost)
	m := rm.Lookup(p)
	if m == nil {
		sb.WriteString("  (never executed)\n")
	} else {
		children := Children(p)
		self := m.WallNanos
		for _, c := range children {
			if cm := rm.Lookup(c); cm != nil {
				self -= cm.WallNanos
			}
		}
		if self < 0 {
			self = 0
		}
		fmt.Fprintf(sb, "  (actual_rows=%d q_err=%.2f time=%.3fms",
			m.ActualRows, QError(rows, float64(m.ActualRows)), float64(self)/1e6)
		if m.Invocations > 1 {
			fmt.Fprintf(sb, " loops=%d", m.Invocations)
		}
		fmt.Fprintf(sb, " pipeline=%d", m.Pipeline)
		if m.Batches > 0 {
			fmt.Fprintf(sb, " batches=%d", m.Batches)
		}
		if m.Vectorized {
			sb.WriteString(" vectorized=true")
		}
		if m.PeakMemRows > 0 {
			fmt.Fprintf(sb, " mem_rows=%d", m.PeakMemRows)
		}
		if m.PeakMemBytes > 0 {
			fmt.Fprintf(sb, " mem_bytes=%d", m.PeakMemBytes)
		}
		if m.Spills > 0 {
			fmt.Fprintf(sb, " spills=%d spill_bytes=%d", m.Spills, m.SpillBytes)
		}
		if m.SegmentsRead > 0 || m.SegmentsPruned > 0 {
			fmt.Fprintf(sb, " segments_read=%d segments_pruned=%d", m.SegmentsRead, m.SegmentsPruned)
		}
		if m.BytesRead > 0 {
			fmt.Fprintf(sb, " bytes_read=%d", m.BytesRead)
		}
		if m.BlocksDict > 0 || m.BlocksRLE > 0 || m.BlocksPlain > 0 {
			fmt.Fprintf(sb, " blocks_dict=%d blocks_rle=%d blocks_plain=%d",
				m.BlocksDict, m.BlocksRLE, m.BlocksPlain)
		}
		if m.BlockHits > 0 {
			fmt.Fprintf(sb, " block_hits=%d", m.BlockHits)
		}
		if len(m.WorkerRows) > 0 {
			parts := make([]string, len(m.WorkerRows))
			for i, n := range m.WorkerRows {
				parts[i] = fmt.Sprintf("%d", n)
			}
			fmt.Fprintf(sb, " worker_rows=[%s]", strings.Join(parts, " "))
		}
		sb.WriteString(")\n")
	}
	for _, c := range Children(p) {
		formatAnalyzeNode(sb, c, md, rm, depth+1)
	}
}
