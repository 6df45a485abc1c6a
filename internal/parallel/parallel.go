// Package parallel is the parallel-database material of §7.1 of the paper as
// a cost model: two-phase optimization in the XPRS style (pick a serial plan
// first, then parallelize and schedule it) and Hasan's refinement that
// accounts for repartitioning (communication) cost when choosing the plan,
// treating the partitioning of a data stream as a physical property.
//
// The model is of processors that do not share memory and ship tuples to one
// another: Parallelize walks a serial plan's partitioning properties and
// charges a repartitioning wherever an operator needs its input partitioned
// differently, and Segments/Makespan schedule the plan's pipelines on
// processors. The engine's executor is not such a machine. Its morsel workers
// share one address space and run the serial plan unchanged at every degree
// (exec.Ctx.Parallelism); nothing here is on its path. The model is exercised
// by experiments E17 and E21 and by this package's tests.
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

// Result is a serial plan's modeled parallel execution.
type Result struct {
	// Plan is the input plan, unchanged: the executor runs the serial plan at
	// every degree. It is kept only for the bench module's replica of the
	// statement path (bench/trace.go), which runs what Parallelize returns,
	// until ROADMAP item 1(b) deletes that replica.
	Plan physical.Plan
	// TotalWork is the sum of all operator costs (what a serial machine
	// would pay, §7.1 footnote: parallelism may increase total work).
	TotalWork float64
	// CommCost is the total repartitioning/broadcast cost.
	CommCost float64
	// ResponseTime is the modeled parallel response time:
	// partitionable work / degree + serial fractions + communication.
	ResponseTime float64
	// ExchangedRows counts rows the model ships between processors.
	ExchangedRows float64
}

// annotated carries parallelization state up the tree.
type annotated struct {
	// part is the hash-partitioning key of the stream (nil = arbitrary
	// round-robin partitioning; the stream is still spread over workers).
	part []logical.ColumnID
	work float64
	comm float64
	rows float64
}

// Parallelize models the parallel cost of a serial plan under the
// configuration: where the plan's partitioning properties force a
// repartitioning, and what that and the work cost at the given degree. An
// operator's work is the cost the optimizer estimated for it; model is not
// consulted.
func Parallelize(plan physical.Plan, cfg Config, model cost.Model) *Result {
	if cfg.Degree < 1 {
		cfg.Degree = 1
	}
	p := &parallelizer{cfg: cfg}
	a := p.rec(plan)
	return &Result{
		Plan:          plan,
		TotalWork:     a.work,
		CommCost:      a.comm,
		ResponseTime:  a.work/float64(cfg.Degree) + a.comm,
		ExchangedRows: p.exchangedRows,
	}
}

type parallelizer struct {
	cfg           Config
	exchangedRows float64
}

// exchange charges repartitioning a stream onto the given key (nil: merging
// sorted partitions into one ordered stream).
func (p *parallelizer) exchange(a annotated, key []logical.ColumnID) annotated {
	comm := a.rows * p.cfg.CommCostPerRow
	p.exchangedRows += a.rows
	return annotated{part: key, work: a.work, comm: a.comm + comm, rows: a.rows}
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

// over extends the input's state by plan's own operator on top of it.
func over(in annotated, plan physical.Plan) annotated {
	return annotated{part: in.part, work: in.work + opCost(plan), comm: in.comm, rows: planRows(plan)}
}

func (p *parallelizer) rec(plan physical.Plan) annotated {
	switch t := plan.(type) {
	case *physical.TableScan, *physical.IndexScan, *physical.ValuesOp:
		// Base data is horizontally partitioned round-robin.
		return annotated{part: nil, work: planCost(plan), rows: planRows(plan)}
	case *physical.Filter, *physical.Project, *physical.LimitOp, *physical.INLJoin:
		// An index join's inner table is available on every worker (shared
		// storage); its probes stay local.
		return over(p.rec(physical.Children(plan)[0]), plan)
	case *physical.Sort:
		// Local sorts merge through an order-preserving exchange.
		return p.exchange(over(p.rec(t.Input), plan), nil)
	case *physical.HashJoin:
		return p.recKeyJoin(plan, t.Left, t.Right, t.LeftKeys, t.RightKeys)
	case *physical.MergeJoin:
		return p.recKeyJoin(plan, t.Left, t.Right, t.LeftKeys, t.RightKeys)
	case *physical.NLJoin:
		l := p.rec(t.Left)
		r := p.rec(t.Right)
		// The inner is broadcast to every worker.
		bcast := r.rows * float64(p.cfg.Degree-1) * p.cfg.CommCostPerRow
		p.exchangedRows += r.rows * float64(p.cfg.Degree-1)
		return annotated{
			part: l.part,
			work: l.work + r.work + opCost(plan),
			comm: l.comm + r.comm + bcast,
			rows: planRows(plan),
		}
	case *physical.HashGroupBy:
		in := p.rec(t.Input)
		if len(t.GroupCols) > 0 && !samePartition(in.part, t.GroupCols) {
			in = p.exchange(in, t.GroupCols)
		}
		return over(in, plan)
	case *physical.StreamGroupBy:
		in := p.rec(t.Input)
		if len(t.GroupCols) > 0 && !samePartition(in.part, t.GroupCols) {
			in = p.exchange(in, t.GroupCols)
		}
		return over(in, plan)
	case *physical.UnionAll:
		// Both arms run partitioned; concatenation needs no repartitioning but
		// destroys any arm-local partitioning property.
		l := p.rec(t.Left)
		r := p.rec(t.Right)
		return annotated{
			part: nil,
			work: l.work + r.work + opCost(plan),
			comm: l.comm + r.comm,
			rows: planRows(plan),
		}
	}
	panic(fmt.Sprintf("parallel: unknown operator %T", plan))
}

// recKeyJoin repartitions both inputs onto the join keys unless they already
// carry the right partitioning (the physical-property view of Hasan).
func (p *parallelizer) recKeyJoin(plan, left, right physical.Plan, lKeys, rKeys []logical.ColumnID) annotated {
	l := p.rec(left)
	r := p.rec(right)
	if !samePartition(l.part, lKeys) {
		l = p.exchange(l, lKeys)
	}
	if !samePartition(r.part, rKeys) {
		r = p.exchange(r, rKeys)
	}
	return annotated{
		part: lKeys,
		work: l.work + r.work + opCost(plan),
		comm: l.comm + r.comm,
		rows: planRows(plan),
	}
}

// --- Phase 2: processor scheduling ---

// Segment is a pipelined fragment of the plan: a maximal chain of operators
// between blocking boundaries (sorts, build sides, aggregations, unions).
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
	case *physical.UnionAll:
		// The executor cuts a pipeline at a union: it runs after both arms.
		l := build(t.Left, segs)
		r := build(t.Right, segs)
		return newSeg(opCost(plan), name, l, r)
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
