package cost

import "testing"

func TestScanCostsMonotone(t *testing.T) {
	m := DefaultModel()
	if m.SeqScan(10, 640, 1) >= m.SeqScan(100, 6400, 1) {
		t.Error("bigger table should cost more")
	}
	if m.SeqScan(10, 640, 0) >= m.SeqScan(10, 640, 5) {
		t.Error("more predicates should cost more")
	}
}

func TestIndexScanClusteredCheaper(t *testing.T) {
	m := DefaultModel()
	cl := m.IndexScan(1000, 100000, 2000, true)
	ncl := m.IndexScan(1000, 100000, 2000, false)
	if cl >= ncl {
		t.Errorf("clustered (%v) should beat non-clustered (%v) for many matches", cl, ncl)
	}
}

func TestIndexVsSeqScanCrossover(t *testing.T) {
	m := DefaultModel()
	tableRows, tablePages := 100000.0, 2000.0
	seq := m.SeqScan(tablePages, tableRows, 1)
	// Very selective: index should win.
	if ix := m.IndexScan(10, tableRows, tablePages, false); ix >= seq {
		t.Errorf("selective index scan (%v) should beat seq scan (%v)", ix, seq)
	}
	// Unselective: seq scan should win.
	if ix := m.IndexScan(80000, tableRows, tablePages, false); ix <= seq {
		t.Errorf("unselective index scan (%v) should lose to seq scan (%v)", ix, seq)
	}
}

func TestBufferModelChangesINLJoin(t *testing.T) {
	with := DefaultModel()
	with.BufferPages = 10000
	without := DefaultModel()
	without.BufferPages = 0
	// Inner table fits in buffer: repeated probes should be much cheaper
	// with the buffer model on.
	cWith := with.INLJoin(1000, 5, 10000, 200, false)
	cWithout := without.INLJoin(1000, 5, 10000, 200, false)
	if cWith >= cWithout {
		t.Errorf("buffer model should reduce INL cost: with=%v without=%v", cWith, cWithout)
	}
}

func TestNLJoinBufferedInner(t *testing.T) {
	m := DefaultModel()
	// Tiny inner relation: rescans should be nearly free I/O-wise.
	small := m.NLJoin(1000, 10, 1.0)
	big := m.NLJoin(1000, 100000, 2000.0)
	if small >= big {
		t.Error("small inner should be much cheaper")
	}
}

func TestSortSpills(t *testing.T) {
	m := DefaultModel()
	inMem := m.Sort(1000)
	spill := m.Sort(1000000)
	if inMem >= spill {
		t.Error("bigger sort should cost more")
	}
	if m.Sort(1) <= 0 {
		t.Error("sort of one row should still have nonzero cost")
	}
}

func TestHashJoinSpills(t *testing.T) {
	m := DefaultModel()
	fit := m.HashJoin(10000, 1000)
	spill := m.HashJoin(10000, 10000000)
	if fit >= spill {
		t.Error("spilling hash join should cost more")
	}
}

func TestMergeVsHashVsNL(t *testing.T) {
	m := DefaultModel()
	// For large equal inputs (already sorted), merge should beat hash
	// slightly and both should crush NL.
	l, r := 100000.0, 100000.0
	mj := m.MergeJoin(l, r)
	hj := m.HashJoin(l, r)
	nl := m.NLJoin(l, r, 2000)
	if mj >= hj {
		t.Errorf("merge (%v) should beat hash (%v) on sorted inputs", mj, hj)
	}
	if hj >= nl {
		t.Errorf("hash (%v) should beat NL (%v)", hj, nl)
	}
}

func TestGroupByAndMisc(t *testing.T) {
	m := DefaultModel()
	if m.HashGroupBy(1000, 2) <= m.StreamGroupBy(1000, 2) {
		t.Error("stream group-by should be cheaper than hash")
	}
	if m.Limit(100) < 0 || m.Values(10) <= 0 {
		t.Error("limit/values sanity")
	}
	if m.Filter(100, 2) <= 0 || m.Project(100, 2) <= 0 {
		t.Error("filter/project sanity")
	}
}

func TestHitRatio(t *testing.T) {
	m := DefaultModel()
	if m.HitRatio(100) != 1 {
		t.Error("table smaller than buffer should fully hit")
	}
	if h := m.HitRatio(512); h <= 0 || h >= 1 {
		t.Errorf("partial hit ratio = %v", h)
	}
	m.BufferPages = 0
	if m.HitRatio(10) != 0 {
		t.Error("disabled buffer model should never hit")
	}
}
