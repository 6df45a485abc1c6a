package logical

import (
	"fmt"
	"strings"

	"repro/internal/datum"
)

// EvalContext supplies the environment for scalar evaluation: a column
// binding and (optionally) a subquery evaluator supplied by the execution
// engine.
type EvalContext struct {
	// Lookup returns the value of a column in the current row(s).
	Lookup func(ColumnID) (datum.D, error)
	// EvalSubquery evaluates a Subquery node against the current bindings
	// (tuple-iteration semantics). It returns the scalar result: a boolean
	// datum for EXISTS/IN, the single value for scalar subqueries.
	EvalSubquery func(*Subquery, *EvalContext) (datum.D, error)
	// Params are the statement's parameter bindings: a parameter-tagged
	// constant evaluates to its binding here (Const.Bound).
	Params []datum.D
}

// Eval evaluates s under SQL three-valued semantics. Boolean results are
// KindBool or NULL (unknown).
func Eval(s Scalar, ctx *EvalContext) (datum.D, error) {
	switch t := s.(type) {
	case *Const:
		if ctx == nil {
			return t.Val, nil
		}
		return t.Bound(ctx.Params), nil
	case *Col:
		if ctx == nil || ctx.Lookup == nil {
			return datum.Null, fmt.Errorf("logical: no binding for column @%d", int(t.ID))
		}
		return ctx.Lookup(t.ID)
	case *Cmp:
		l, err := Eval(t.L, ctx)
		if err != nil {
			return datum.Null, err
		}
		r, err := Eval(t.R, ctx)
		if err != nil {
			return datum.Null, err
		}
		return evalCmp(t.Op, l, r)
	case *Arith:
		l, err := Eval(t.L, ctx)
		if err != nil {
			return datum.Null, err
		}
		r, err := Eval(t.R, ctx)
		if err != nil {
			return datum.Null, err
		}
		return evalArith(t.Op, l, r)
	case *And:
		l, err := Eval(t.L, ctx)
		if err != nil {
			return datum.Null, err
		}
		// Short-circuit: FALSE AND x = FALSE.
		if !l.IsNull() && l.Kind() == datum.KindBool && !l.Bool() {
			return datum.NewBool(false), nil
		}
		r, err := Eval(t.R, ctx)
		if err != nil {
			return datum.Null, err
		}
		return and3(l, r)
	case *Or:
		l, err := Eval(t.L, ctx)
		if err != nil {
			return datum.Null, err
		}
		if !l.IsNull() && l.Kind() == datum.KindBool && l.Bool() {
			return datum.NewBool(true), nil
		}
		r, err := Eval(t.R, ctx)
		if err != nil {
			return datum.Null, err
		}
		return or3(l, r)
	case *Not:
		v, err := Eval(t.E, ctx)
		if err != nil {
			return datum.Null, err
		}
		if v.IsNull() {
			return datum.Null, nil
		}
		if v.Kind() != datum.KindBool {
			return datum.Null, fmt.Errorf("logical: NOT on non-boolean %s", v.Kind())
		}
		return datum.NewBool(!v.Bool()), nil
	case *IsNull:
		v, err := Eval(t.E, ctx)
		if err != nil {
			return datum.Null, err
		}
		return datum.NewBool(v.IsNull() != t.Negated), nil
	case *InList:
		v, err := Eval(t.E, ctx)
		if err != nil {
			return datum.Null, err
		}
		sawNull := v.IsNull()
		matched := false
		for _, item := range t.List {
			iv, err := Eval(item, ctx)
			if err != nil {
				return datum.Null, err
			}
			if iv.IsNull() || v.IsNull() {
				sawNull = true
				continue
			}
			if datum.Compare(v, iv) == 0 {
				matched = true
				break
			}
		}
		var res datum.D
		switch {
		case matched:
			res = datum.NewBool(true)
		case sawNull:
			res = datum.Null
		default:
			res = datum.NewBool(false)
		}
		if t.Negated {
			return not3(res), nil
		}
		return res, nil
	case *Subquery:
		if ctx == nil || ctx.EvalSubquery == nil {
			return datum.Null, fmt.Errorf("logical: no subquery evaluator available")
		}
		v, err := ctx.EvalSubquery(t, ctx)
		if err != nil {
			return datum.Null, err
		}
		if t.Negated {
			return not3(v), nil
		}
		return v, nil
	case *UDPRef:
		args := make([]datum.D, len(t.Args))
		for i, a := range t.Args {
			v, err := Eval(a, ctx)
			if err != nil {
				return datum.Null, err
			}
			args[i] = v
		}
		if t.EvalFn == nil {
			return datum.Null, fmt.Errorf("logical: UDP %s has no evaluator", t.Name)
		}
		return datum.NewBool(t.EvalFn(args)), nil
	}
	return datum.Null, fmt.Errorf("logical: cannot evaluate %T", s)
}

func not3(v datum.D) datum.D {
	if v.IsNull() {
		return datum.Null
	}
	return datum.NewBool(!v.Bool())
}

func and3(l, r datum.D) (datum.D, error) {
	lb, ln, err := boolOrNull(l)
	if err != nil {
		return datum.Null, err
	}
	rb, rn, err := boolOrNull(r)
	if err != nil {
		return datum.Null, err
	}
	switch {
	case !ln && !lb, !rn && !rb:
		return datum.NewBool(false), nil
	case ln || rn:
		return datum.Null, nil
	default:
		return datum.NewBool(true), nil
	}
}

func or3(l, r datum.D) (datum.D, error) {
	lb, ln, err := boolOrNull(l)
	if err != nil {
		return datum.Null, err
	}
	rb, rn, err := boolOrNull(r)
	if err != nil {
		return datum.Null, err
	}
	switch {
	case !ln && lb, !rn && rb:
		return datum.NewBool(true), nil
	case ln || rn:
		return datum.Null, nil
	default:
		return datum.NewBool(false), nil
	}
}

func boolOrNull(v datum.D) (val bool, isNull bool, err error) {
	if v.IsNull() {
		return false, true, nil
	}
	if v.Kind() != datum.KindBool {
		return false, false, fmt.Errorf("logical: expected boolean, got %s", v.Kind())
	}
	return v.Bool(), false, nil
}

func evalCmp(op CmpOp, l, r datum.D) (datum.D, error) {
	if l.IsNull() || r.IsNull() {
		return datum.Null, nil
	}
	if op == CmpLike {
		if l.Kind() != datum.KindString || r.Kind() != datum.KindString {
			return datum.Null, fmt.Errorf("logical: LIKE requires strings")
		}
		return datum.NewBool(matchLike(l.Str(), r.Str())), nil
	}
	c := datum.Compare(l, r)
	var res bool
	switch op {
	case CmpEq:
		res = c == 0
	case CmpNe:
		res = c != 0
	case CmpLt:
		res = c < 0
	case CmpLe:
		res = c <= 0
	case CmpGt:
		res = c > 0
	case CmpGe:
		res = c >= 0
	}
	return datum.NewBool(res), nil
}

// matchLike implements SQL LIKE with % (any run) and _ (any single char).
func matchLike(s, pattern string) bool {
	// Dynamic programming over pattern positions.
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer with backtracking on the last %.
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			si, pi = starS, starP+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// EvalConst evaluates s when it references no columns and contains no
// subqueries; ok is false otherwise. Scalars containing parameter-tagged
// constants also refuse: folding `$1 + 1` would bake the probe value into
// the result and lose the parameter's identity, breaking plan-cache
// re-binding.
func EvalConst(s Scalar) (datum.D, bool) {
	if !ScalarCols(s).Empty() || HasSubquery(s) || hasUDP(s) || HasParam(s) {
		return datum.Null, false
	}
	v, err := Eval(s, &EvalContext{})
	if err != nil {
		return datum.Null, false
	}
	return v, true
}

// HasParam reports whether s contains a parameter-tagged constant.
func HasParam(s Scalar) bool {
	found := false
	VisitScalar(s, func(sc Scalar) {
		if c, ok := sc.(*Const); ok && c.Param != 0 {
			found = true
		}
	})
	return found
}

func hasUDP(s Scalar) bool {
	found := false
	VisitScalar(s, func(sc Scalar) {
		if _, ok := sc.(*UDPRef); ok {
			found = true
		}
	})
	return found
}

func evalArith(op ArithOp, l, r datum.D) (datum.D, error) {
	if l.IsNull() || r.IsNull() {
		return datum.Null, nil
	}
	if l.Kind() == datum.KindString && r.Kind() == datum.KindString && op == ArithAdd {
		return datum.NewString(l.Str() + r.Str()), nil
	}
	if !l.Kind().Numeric() || !r.Kind().Numeric() {
		return datum.Null, fmt.Errorf("logical: arithmetic on %s and %s", l.Kind(), r.Kind())
	}
	if l.Kind() == datum.KindInt && r.Kind() == datum.KindInt {
		a, b := l.Int(), r.Int()
		switch op {
		case ArithAdd:
			return datum.NewInt(a + b), nil
		case ArithSub:
			return datum.NewInt(a - b), nil
		case ArithMul:
			return datum.NewInt(a * b), nil
		case ArithDiv:
			if b == 0 {
				return datum.Null, fmt.Errorf("logical: division by zero")
			}
			return datum.NewInt(a / b), nil
		case ArithMod:
			if b == 0 {
				return datum.Null, fmt.Errorf("logical: modulo by zero")
			}
			return datum.NewInt(a % b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case ArithAdd:
		return datum.NewFloat(a + b), nil
	case ArithSub:
		return datum.NewFloat(a - b), nil
	case ArithMul:
		return datum.NewFloat(a * b), nil
	case ArithDiv:
		if b == 0 {
			return datum.Null, fmt.Errorf("logical: division by zero")
		}
		return datum.NewFloat(a / b), nil
	case ArithMod:
		return datum.Null, fmt.Errorf("logical: modulo on floats")
	}
	return datum.Null, fmt.Errorf("logical: unknown arithmetic op")
}

// TruthValue reports whether a filter result admits the row: only TRUE does.
func TruthValue(v datum.D) bool {
	return !v.IsNull() && v.Kind() == datum.KindBool && v.Bool()
}

// LikePrefix extracts the literal prefix of a LIKE pattern (up to the first
// wildcard), used for selectivity estimation and index range derivation.
func LikePrefix(pattern string) string {
	i := strings.IndexAny(pattern, "%_")
	if i < 0 {
		return pattern
	}
	return pattern[:i]
}
