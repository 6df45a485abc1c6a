// Package parallel implements the parallel-database material of §7.1 of the
// paper: two-phase optimization in the XPRS style (pick a serial plan first,
// then parallelize and schedule it) and Hasan's refinement that accounts for
// repartitioning (communication) cost when choosing the plan, treating the
// partitioning of a data stream as a physical property.
//
// Plans annotated by Parallelize run on exec's morsel-driven worker pool
// (exec.Ctx.Parallelism). The Exchange operators this package inserts mark
// where a stream's partitioning property changes and carry the modeled
// communication cost of that change; they print in EXPLAIN with it. The
// executor shares one address space, so no tuple crosses an exchange: it
// forwards its input as is, and the operators above it do the partitioned
// work on the workers — a shared hash table probed morsel-wise, thread-local
// pre-aggregation folded at the barrier. What the paper charges for is what
// processors that do not share memory would have to ship. The cost model here
// remains the phase-one/phase-two modeling the paper describes; measured
// wall-clock comparisons are experiment E21 and the analytic_mem workload.
package parallel

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/physical"
)

// Config describes the modeled parallel machine.
type Config struct {
	// Degree is the number of processors.
	Degree int
	// CommCostPerRow is the cost of moving one row between processors
	// (repartitioning or broadcasting).
	CommCostPerRow float64
}

// Result is a parallelized plan with its modeled execution metrics.
type Result struct {
	Plan physical.Plan // with Exchange operators inserted
	// TotalWork is the sum of all operator costs (what a serial machine
	// would pay, §7.1 footnote: parallelism may increase total work).
	TotalWork float64
	// CommCost is the total repartitioning/broadcast cost.
	CommCost float64
	// ResponseTime is the modeled parallel response time:
	// partitionable work / degree + serial fractions + communication.
	ResponseTime float64
	// ExchangedRows counts rows crossing exchange boundaries.
	ExchangedRows float64
}

// annotated carries parallelization state up the tree.
type annotated struct {
	plan physical.Plan
	// part is the hash-partitioning key of the stream (nil = arbitrary
	// round-robin partitioning; the stream is still spread over workers).
	part []logical.ColumnID
	work float64
	comm float64
	rows float64
}

// Parallelize inserts exchange operators into a serial plan and models its
// parallel cost under the configuration.
func Parallelize(plan physical.Plan, cfg Config, model cost.Model) *Result {
	if cfg.Degree < 1 {
		cfg.Degree = 1
	}
	p := &parallelizer{cfg: cfg, model: model}
	a := p.rec(plan)
	return &Result{
		Plan:          a.plan,
		TotalWork:     a.work,
		CommCost:      a.comm,
		ResponseTime:  a.work/float64(cfg.Degree) + a.comm,
		ExchangedRows: p.exchangedRows,
	}
}

type parallelizer struct {
	cfg           Config
	model         cost.Model
	exchangedRows float64
}

// exchange repartitions a stream onto the given key. Exchanges are
// order-preserving: any ordering the input stream carries survives the
// repartitioning through a merging fan-in, so ordering properties the serial
// plan established (and operators above that rely on them, e.g. Limit under
// ORDER BY) remain valid when the exchange is actually executed.
func (p *parallelizer) exchange(a annotated, key []logical.ColumnID, mergeOrder logical.Ordering) annotated {
	if len(mergeOrder) == 0 {
		mergeOrder = a.plan.Ordering()
	}
	comm := a.rows * p.cfg.CommCostPerRow
	p.exchangedRows += a.rows
	ex := &physical.Exchange{
		Props:         physical.Props{Rows: a.rows, Cost: planCost(a.plan) + comm},
		Input:         a.plan,
		PartitionCols: key,
		Degree:        p.cfg.Degree,
		MergeOrdering: mergeOrder,
	}
	return annotated{plan: ex, part: key, work: a.work, comm: a.comm + comm, rows: a.rows}
}

func planCost(p physical.Plan) float64 {
	_, c := p.Estimate()
	return c
}

func planRows(p physical.Plan) float64 {
	r, _ := p.Estimate()
	return r
}

// opCost extracts the operator's own (non-cumulative) cost.
func opCost(p physical.Plan) float64 {
	c := planCost(p)
	for _, ch := range physical.Children(p) {
		c -= planCost(ch)
	}
	if c < 0 {
		c = 0
	}
	return c
}

func samePartition(a, b []logical.ColumnID) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (p *parallelizer) rec(plan physical.Plan) annotated {
	switch t := plan.(type) {
	case *physical.TableScan, *physical.IndexScan, *physical.ValuesOp:
		// Base data is horizontally partitioned round-robin.
		return annotated{plan: plan, part: nil, work: planCost(plan), rows: planRows(plan)}
	case *physical.Filter:
		in := p.rec(t.Input)
		np := *t
		np.Input = in.plan
		return annotated{plan: &np, part: in.part, work: in.work + opCost(plan), comm: in.comm, rows: planRows(plan)}
	case *physical.Project:
		in := p.rec(t.Input)
		np := *t
		np.Input = in.plan
		return annotated{plan: &np, part: in.part, work: in.work + opCost(plan), comm: in.comm, rows: planRows(plan)}
	case *physical.Sort:
		in := p.rec(t.Input)
		np := *t
		np.Input = in.plan
		// Local sorts merge through an order-preserving exchange.
		a := annotated{plan: &np, part: in.part, work: in.work + opCost(plan), comm: in.comm, rows: planRows(plan)}
		return p.exchange(a, nil, t.By)
	case *physical.LimitOp:
		in := p.rec(t.Input)
		np := *t
		np.Input = in.plan
		return annotated{plan: &np, part: in.part, work: in.work + opCost(plan), comm: in.comm, rows: planRows(plan)}
	case *physical.HashJoin:
		return p.recKeyJoin(plan, t.Left, t.Right, t.LeftKeys, t.RightKeys, func(l, r physical.Plan) physical.Plan {
			np := *t
			np.Left, np.Right = l, r
			return &np
		})
	case *physical.MergeJoin:
		return p.recKeyJoin(plan, t.Left, t.Right, t.LeftKeys, t.RightKeys, func(l, r physical.Plan) physical.Plan {
			np := *t
			np.Left, np.Right = l, r
			return &np
		})
	case *physical.NLJoin:
		l := p.rec(t.Left)
		r := p.rec(t.Right)
		// The inner is broadcast to every worker.
		bcast := r.rows * float64(p.cfg.Degree-1) * p.cfg.CommCostPerRow
		p.exchangedRows += r.rows * float64(p.cfg.Degree-1)
		np := *t
		np.Left, np.Right = l.plan, r.plan
		return annotated{
			plan: &np, part: l.part,
			work: l.work + r.work + opCost(plan),
			comm: l.comm + r.comm + bcast,
			rows: planRows(plan),
		}
	case *physical.INLJoin:
		l := p.rec(t.Left)
		// The inner table's index is available on every worker (shared
		// storage); probes stay local.
		np := *t
		np.Left = l.plan
		return annotated{plan: &np, part: l.part, work: l.work + opCost(plan), comm: l.comm, rows: planRows(plan)}
	case *physical.HashGroupBy:
		in := p.rec(t.Input)
		if len(t.GroupCols) > 0 && !samePartition(in.part, t.GroupCols) {
			in = p.exchange(in, t.GroupCols, nil)
		}
		np := *t
		np.Input = in.plan
		return annotated{plan: &np, part: in.part, work: in.work + opCost(plan), comm: in.comm, rows: planRows(plan)}
	case *physical.StreamGroupBy:
		in := p.rec(t.Input)
		if len(t.GroupCols) > 0 && !samePartition(in.part, t.GroupCols) {
			var ord logical.Ordering
			for _, c := range t.GroupCols {
				ord = append(ord, logical.OrderSpec{Col: c})
			}
			in = p.exchange(in, t.GroupCols, ord)
		}
		np := *t
		np.Input = in.plan
		return annotated{plan: &np, part: in.part, work: in.work + opCost(plan), comm: in.comm, rows: planRows(plan)}
	case *physical.UnionAll:
		// Both arms run partitioned; concatenation needs no repartitioning but
		// destroys any arm-local partitioning property.
		l := p.rec(t.Left)
		r := p.rec(t.Right)
		np := *t
		np.Left, np.Right = l.plan, r.plan
		return annotated{
			plan: &np, part: nil,
			work: l.work + r.work + opCost(plan),
			comm: l.comm + r.comm,
			rows: planRows(plan),
		}
	case *physical.Exchange:
		in := p.rec(t.Input)
		return p.exchange(in, t.PartitionCols, t.MergeOrdering)
	}
	panic(fmt.Sprintf("parallel: unknown operator %T", plan))
}

// recKeyJoin repartitions both inputs onto the join keys unless they already
// carry the right partitioning (the physical-property view of Hasan).
func (p *parallelizer) recKeyJoin(plan physical.Plan, left, right physical.Plan,
	lKeys, rKeys []logical.ColumnID, rebuild func(l, r physical.Plan) physical.Plan) annotated {
	l := p.rec(left)
	r := p.rec(right)
	if !samePartition(l.part, lKeys) {
		l = p.exchange(l, lKeys, nil)
	}
	if !samePartition(r.part, rKeys) {
		r = p.exchange(r, rKeys, nil)
	}
	np := rebuild(l.plan, r.plan)
	return annotated{
		plan: np, part: lKeys,
		work: l.work + r.work + opCost(plan),
		comm: l.comm + r.comm,
		rows: planRows(plan),
	}
}

// --- Phase 2: processor scheduling ---

// Segment is a pipelined fragment of the plan: a maximal chain of operators
// between blocking boundaries (sorts, build sides, exchanges).
type Segment struct {
	ID   int
	Work float64
	// DependsOn lists segments that must finish first (precedence
	// constraints, e.g. a hash join's probe depends on its build).
	DependsOn []int
	Ops       []string
}

// Segments decomposes a plan into pipeline segments.
func Segments(plan physical.Plan) []Segment {
	var segs []Segment
	build(plan, &segs)
	return segs
}

// build returns the id of the segment producing the node's output.
func build(plan physical.Plan, segs *[]Segment) int {
	newSeg := func(work float64, op string, deps ...int) int {
		id := len(*segs)
		*segs = append(*segs, Segment{ID: id, Work: work, DependsOn: deps, Ops: []string{op}})
		return id
	}
	extend := func(seg int, work float64, op string) int {
		(*segs)[seg].Work += work
		(*segs)[seg].Ops = append((*segs)[seg].Ops, op)
		return seg
	}
	name := fmt.Sprintf("%T", plan)
	name = name[strings.LastIndex(name, ".")+1:]
	switch t := plan.(type) {
	case *physical.TableScan, *physical.IndexScan, *physical.ValuesOp:
		return newSeg(opCost(plan), name)
	case *physical.Filter:
		return extend(build(t.Input, segs), opCost(plan), name)
	case *physical.Project:
		return extend(build(t.Input, segs), opCost(plan), name)
	case *physical.LimitOp:
		return extend(build(t.Input, segs), opCost(plan), name)
	case *physical.Sort:
		in := build(t.Input, segs)
		return newSeg(opCost(plan), name, in) // sort blocks the pipeline
	case *physical.Exchange:
		in := build(t.Input, segs)
		return newSeg(opCost(plan), name, in)
	case *physical.NLJoin:
		l := build(t.Left, segs)
		r := build(t.Right, segs) // inner materializes before the probe starts
		(*segs)[l].DependsOn = append((*segs)[l].DependsOn, r)
		return extend(l, opCost(plan), name+dep(segs, r))
	case *physical.INLJoin:
		return extend(build(t.Left, segs), opCost(plan), name)
	case *physical.HashJoin:
		l := build(t.Left, segs)
		r := build(t.Right, segs) // build side blocks
		(*segs)[l].DependsOn = append((*segs)[l].DependsOn, r)
		return extend(l, opCost(plan), name+dep(segs, r))
	case *physical.MergeJoin:
		l := build(t.Left, segs)
		r := build(t.Right, segs)
		return newSeg(opCost(plan), name, l, r)
	case *physical.HashGroupBy:
		in := build(t.Input, segs)
		return newSeg(opCost(plan), name, in)
	case *physical.StreamGroupBy:
		return extend(build(t.Input, segs), opCost(plan), name)
	}
	panic(fmt.Sprintf("parallel: unknown operator %T", plan))
}

// dep renders a precedence annotation for an operator whose segment must wait
// on segment r (e.g. "HashJoin<-S2": the probe pipeline depends on S2, the
// materialized build/inner side), making Segments output self-describing.
func dep(segs *[]Segment, r int) string { return fmt.Sprintf("<-S%d", (*segs)[r].ID) }

// Makespan schedules the segments on `procs` processors with greedy list
// scheduling honoring precedence, returning the modeled completion time —
// the second phase of two-phase optimization.
func Makespan(segs []Segment, procs int) float64 {
	if procs < 1 {
		procs = 1
	}
	done := make([]float64, len(segs)) // finish time; 0 = unscheduled
	scheduled := make([]bool, len(segs))
	procFree := make([]float64, procs)
	remaining := len(segs)
	for remaining > 0 {
		// Ready segments: all dependencies scheduled.
		type ready struct {
			id    int
			avail float64
		}
		var rs []ready
		for i := range segs {
			if scheduled[i] {
				continue
			}
			avail := 0.0
			ok := true
			for _, d := range segs[i].DependsOn {
				if !scheduled[d] {
					ok = false
					break
				}
				avail = math.Max(avail, done[d])
			}
			if ok {
				rs = append(rs, ready{i, avail})
			}
		}
		if len(rs) == 0 {
			break // cycle (should not happen)
		}
		// Longest work first.
		sort.Slice(rs, func(a, b int) bool { return segs[rs[a].id].Work > segs[rs[b].id].Work })
		r := rs[0]
		// Earliest-free processor.
		pi := 0
		for i := range procFree {
			if procFree[i] < procFree[pi] {
				pi = i
			}
		}
		start := math.Max(procFree[pi], r.avail)
		finish := start + segs[r.id].Work
		procFree[pi] = finish
		done[r.id] = finish
		scheduled[r.id] = true
		remaining--
	}
	max := 0.0
	for _, d := range done {
		max = math.Max(max, d)
	}
	return max
}
