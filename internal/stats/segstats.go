package stats

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// SegmentTableStats synthesizes a coarse catalog.TableStats from a table's
// segment footers: zone-map min/max stand in for the column extremes,
// per-segment distinct sketches are unioned for a distinct estimate,
// and NULL counts sum exactly. It is far cheaper than ANALYZE (no data pages
// are read) and, unlike ANALYZE output, can never be stale — it reflects what
// is actually sealed. Returns nil for tables with no sealed segments.
func SegmentTableStats(tab *storage.Table) *catalog.TableStats {
	_, totalRows, pages, cols, ok := tab.SegmentStats()
	if !ok {
		return nil
	}
	ts := &catalog.TableStats{
		RowCount:  float64(totalRows),
		PageCount: float64(pages),
		ColStats:  make(map[int]*catalog.ColumnStats, len(cols)),
	}
	for ord, cs := range cols {
		c := &catalog.ColumnStats{
			DistinctCount: math.Max(1, cs.Distinct),
			NullCount:     float64(cs.NullCount),
		}
		if cs.HasZone {
			// Zone extremes are true min/max, not second extremes; close
			// enough for range-selectivity fallback when ANALYZE is stale.
			c.SecondMin, c.SecondMax = cs.Min, cs.Max
		}
		ts.ColStats[ord] = c
	}
	return ts
}
