// Package cost implements the cost model of §5.2 of the paper: per-operator
// CPU and I/O formulas over statistical properties of the inputs, combined
// into one comparable metric, with an optional buffer-utilization model in
// the spirit of Mackert/Lohman's R* validation ([40]).
package cost

import "math"

// Model holds the cost parameters. The unit is "sequential page read = 1.0".
type Model struct {
	SeqPage  float64 // sequential page I/O
	RandPage float64 // random page I/O
	CPUTuple float64 // per-tuple processing
	CPUEval  float64 // per-predicate/expression evaluation
	CPUHash  float64 // per-tuple hash table build/probe
	// RowsPerPage approximates heap packing when only row counts are known.
	RowsPerPage float64
	// BufferPages is the modeled buffer pool size; 0 disables the buffer
	// model (every page access pays full I/O cost).
	BufferPages float64
	// CommCostPerRow models network transfer in parallel plans (§7.1).
	CommCostPerRow float64
}

// DefaultModel mirrors the classical System-R-era parameter ratios.
func DefaultModel() Model {
	return Model{
		SeqPage:        1.0,
		RandPage:       4.0,
		CPUTuple:       0.01,
		CPUEval:        0.002,
		CPUHash:        0.015,
		RowsPerPage:    64,
		BufferPages:    256,
		CommCostPerRow: 0.005,
	}
}

// CalibrateCommPerRow converts measured exchange overhead into the model's
// cost units so CommCostPerRow can be set from a real run instead of guessed.
// The model's unit is "one sequential page read", which the executor
// approximates as the measured time to scan one page worth of rows; the
// per-row exchange overhead divided by that unit is the calibrated
// CommCostPerRow. Non-positive inputs fall back to the default — which is
// what the shared-memory executor always measures: its exchanges move no
// rows, so their marginal cost is zero up to timing noise, and the model
// keeps the default that stands for processors that do ship tuples.
func CalibrateCommPerRow(exchangeSecPerRow, scanSecPerPage float64) float64 {
	if exchangeSecPerRow <= 0 || scanSecPerPage <= 0 {
		return DefaultModel().CommCostPerRow
	}
	return exchangeSecPerRow / scanSecPerPage
}

// pages converts a row count to a page estimate.
func (m Model) pages(rows float64) float64 {
	if m.RowsPerPage <= 0 {
		return rows
	}
	return math.Ceil(rows / m.RowsPerPage)
}

// HitRatio returns the fraction of page re-reads served by the buffer pool
// when cycling over `pages` pages — the simplified Mackert/Lohman model. With
// BufferPages == 0 the buffer model is off and re-reads always pay I/O.
func (m Model) HitRatio(pages float64) float64 {
	if m.BufferPages <= 0 || pages <= 0 {
		return 0
	}
	if pages <= m.BufferPages {
		return 1
	}
	return m.BufferPages / pages
}

// SeqScan costs a full heap scan.
func (m Model) SeqScan(pages, rows float64, preds int) float64 {
	return pages*m.SeqPage + rows*(m.CPUTuple+float64(preds)*m.CPUEval)
}

// IndexScan costs an index lookup returning matchRows of tableRows rows.
// Clustered indexes read matching pages sequentially; non-clustered ones pay
// a random fetch per matching row, moderated by the buffer hit ratio.
func (m Model) IndexScan(matchRows, tableRows, tablePages float64, clustered bool) float64 {
	if matchRows < 0 {
		matchRows = 0
	}
	height := indexHeight(tableRows)
	cpu := matchRows * m.CPUTuple
	if clustered {
		frac := 0.0
		if tableRows > 0 {
			frac = matchRows / tableRows
		}
		return height*m.RandPage + math.Ceil(tablePages*frac)*m.SeqPage + cpu
	}
	// Non-clustered: one random page per matching row, except buffer hits.
	fetches := matchRows * (1 - m.HitRatio(tablePages))
	// Even with a perfect buffer the first tablePages reads are cold.
	minFetches := math.Min(matchRows, tablePages)
	if fetches < minFetches {
		fetches = minFetches
	}
	return height*m.RandPage + fetches*m.RandPage + cpu
}

func indexHeight(rows float64) float64 {
	if rows < 2 {
		return 1
	}
	return math.Max(1, math.Ceil(math.Log(rows)/math.Log(100)))
}

// Filter costs predicate evaluation over rows.
func (m Model) Filter(rows float64, preds int) float64 {
	return rows * float64(preds) * m.CPUEval
}

// Project costs expression evaluation over rows.
func (m Model) Project(rows float64, exprs int) float64 {
	return rows * float64(exprs) * m.CPUEval
}

// Sort costs an in-memory/external sort of rows.
func (m Model) Sort(rows float64) float64 {
	if rows < 2 {
		return m.CPUTuple
	}
	n := rows * math.Log2(rows) * m.CPUTuple
	// External runs: pages written+read once when exceeding the buffer.
	pages := m.pages(rows)
	if m.BufferPages > 0 && pages > m.BufferPages {
		n += 2 * pages * m.SeqPage
	}
	return n
}

// NLJoin costs a tuple nested-loop join where the inner subtree must be
// re-evaluated per outer row (its cost is innerCost). Buffering of the inner
// as pages is modeled via the hit ratio.
func (m Model) NLJoin(outerRows, innerRows, innerCost float64) float64 {
	if outerRows < 1 {
		outerRows = 1
	}
	innerPages := m.pages(innerRows)
	hit := m.HitRatio(innerPages)
	// First pass pays full inner cost; re-scans pay only the miss fraction
	// of the I/O plus full CPU.
	rescan := innerCost*(1-hit) + innerRows*m.CPUTuple
	return innerCost + (outerRows-1)*rescan + outerRows*innerRows*m.CPUEval
}

// INLJoin costs an index nested-loop join: one index probe per outer row.
// Repeated probes benefit from locality of reference (the DB2 observation
// [17] and the Mackert/Lohman buffer model [40]): upper index levels and
// previously fetched data pages are served from the buffer pool, so warm
// probes pay only the miss fraction of their page fetches.
func (m Model) INLJoin(outerRows, matchPerOuter, tableRows, tablePages float64, clustered bool) float64 {
	probe := m.IndexScan(matchPerOuter, tableRows, tablePages, clustered)
	if outerRows <= 1 {
		return probe + outerRows*m.CPUTuple
	}
	hit := m.HitRatio(tablePages)
	var warm float64
	if clustered {
		warm = probe*(1-hit) + matchPerOuter*m.CPUTuple
	} else {
		fetches := math.Min(matchPerOuter, tablePages)
		warm = (indexHeight(tableRows)+fetches)*m.RandPage*(1-hit) + matchPerOuter*m.CPUTuple
	}
	return probe + (outerRows-1)*warm + outerRows*m.CPUTuple
}

// MergeJoin costs merging two sorted inputs (excluding any sorts, which are
// costed as explicit enforcers).
func (m Model) MergeJoin(leftRows, rightRows float64) float64 {
	return (leftRows + rightRows) * m.CPUTuple
}

// HashJoin costs building on the right input and probing with the left.
func (m Model) HashJoin(leftRows, rightRows float64) float64 {
	c := rightRows*m.CPUHash + leftRows*m.CPUHash
	// Spill when the build side exceeds memory.
	buildPages := m.pages(rightRows)
	if m.BufferPages > 0 && buildPages > m.BufferPages {
		c += 2 * (buildPages + m.pages(leftRows)) * m.SeqPage
	}
	return c
}

// HashGroupBy costs hash aggregation.
func (m Model) HashGroupBy(rows float64, aggs int) float64 {
	return rows*m.CPUHash + rows*float64(aggs)*m.CPUEval
}

// StreamGroupBy costs streaming aggregation over sorted input.
func (m Model) StreamGroupBy(rows float64, aggs int) float64 {
	return rows*m.CPUTuple + rows*float64(aggs)*m.CPUEval
}

// Limit is free beyond passing tuples.
func (m Model) Limit(rows float64) float64 { return rows * m.CPUTuple * 0.1 }

// Values costs materializing literal rows.
func (m Model) Values(rows float64) float64 { return rows * m.CPUTuple }
