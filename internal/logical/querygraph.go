package logical

import (
	"fmt"
	"strings"
)

// QueryGraph is the calculus-oriented representation of Figure 3 of the
// paper: nodes are relations (correlation variables) of one join block,
// labeled edges are the join predicates connecting them. Local (single-
// relation) predicates annotate the nodes.
type QueryGraph struct {
	// Nodes are the leaf relational expressions of the join block.
	Nodes []RelExpr
	// NodeCols[i] holds the output columns of Nodes[i].
	NodeCols []ColSet
	// Edges connect pairs of nodes with their join predicates.
	Edges []GraphEdge
	// Local[i] are predicates referencing only Nodes[i].
	Local [][]Scalar
	// Complex are predicates spanning three or more nodes (kept aside; they
	// are applied once all their relations are joined).
	Complex []Scalar
}

// GraphEdge is a labeled edge between two graph nodes.
type GraphEdge struct {
	A, B  int
	Preds []Scalar
}

// ExtractJoinBlock flattens a tree of inner joins and selections into its
// leaf relations and the full predicate list. ok is false if e is not an
// inner-join block root (a single leaf still succeeds with one relation).
func ExtractJoinBlock(e RelExpr) (leaves []RelExpr, preds []Scalar, ok bool) {
	switch t := e.(type) {
	case *Select:
		l, p, ok := ExtractJoinBlock(t.Input)
		if !ok {
			return nil, nil, false
		}
		return l, append(p, t.Filters...), true
	case *Join:
		if t.Kind != InnerJoin {
			return []RelExpr{e}, nil, true // treat non-inner join as a leaf
		}
		ll, lp, ok := ExtractJoinBlock(t.Left)
		if !ok {
			return nil, nil, false
		}
		rl, rp, ok := ExtractJoinBlock(t.Right)
		if !ok {
			return nil, nil, false
		}
		leaves = append(ll, rl...)
		preds = append(append(lp, rp...), t.On...)
		return leaves, preds, true
	default:
		return []RelExpr{e}, nil, true
	}
}

// BuildQueryGraph classifies the block's predicates into local predicates,
// binary join edges and complex (hyper-)predicates.
func BuildQueryGraph(leaves []RelExpr, preds []Scalar) *QueryGraph {
	g := &QueryGraph{
		Nodes:    leaves,
		NodeCols: make([]ColSet, len(leaves)),
		Local:    make([][]Scalar, len(leaves)),
	}
	for i, l := range leaves {
		g.NodeCols[i] = l.OutputCols()
	}
	edgeIndex := map[[2]int]int{}
	for _, p := range preds {
		cols := ScalarCols(p)
		var touching []int
		for i, nc := range g.NodeCols {
			if cols.Intersects(nc) {
				touching = append(touching, i)
			}
		}
		switch len(touching) {
		case 0:
			// Constant or outer-referencing predicate: treat as complex.
			g.Complex = append(g.Complex, p)
		case 1:
			g.Local[touching[0]] = append(g.Local[touching[0]], p)
		case 2:
			key := [2]int{touching[0], touching[1]}
			if idx, ok := edgeIndex[key]; ok {
				g.Edges[idx].Preds = append(g.Edges[idx].Preds, p)
			} else {
				edgeIndex[key] = len(g.Edges)
				g.Edges = append(g.Edges, GraphEdge{A: key[0], B: key[1], Preds: []Scalar{p}})
			}
		default:
			g.Complex = append(g.Complex, p)
		}
	}
	return g
}

// String renders the graph for diagnostics.
func (g *QueryGraph) String() string {
	var sb strings.Builder
	for i := range g.Nodes {
		name := fmt.Sprintf("R%d", i)
		if s, ok := g.Nodes[i].(*Scan); ok {
			name = s.Binding
		}
		fmt.Fprintf(&sb, "node %d: %s local=%d\n", i, name, len(g.Local[i]))
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&sb, "edge %d--%d (%d preds)\n", e.A, e.B, len(e.Preds))
	}
	if len(g.Complex) > 0 {
		fmt.Fprintf(&sb, "complex preds: %d\n", len(g.Complex))
	}
	return sb.String()
}
