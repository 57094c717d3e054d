package qgen

import "divsql/internal/sql/ast"

// Class is the statement-class taxonomy the generator budgets over. It
// is the unit of the coverage feedback loop: internal/difftest counts
// hits and divergence yield per class and retargets the generator's
// Weights between batches.
type Class string

const (
	ClassDDL    Class = "ddl"
	ClassInsert Class = "insert"
	ClassUpdate Class = "update"
	ClassDelete Class = "delete"
	ClassSelect Class = "select"
	ClassTxn    Class = "txn"
)

// Classes lists every statement class in deterministic order.
var Classes = []Class{ClassDDL, ClassInsert, ClassUpdate, ClassDelete, ClassSelect, ClassTxn}

// ClassOf maps an emitted statement back to its class. It is total over
// everything the generator can produce (and over hand-written streams:
// any unrecognized statement counts as DDL, the schema-changing
// catch-all).
func ClassOf(st ast.Statement) Class {
	switch st.(type) {
	case *ast.Insert:
		return ClassInsert
	case *ast.Update:
		return ClassUpdate
	case *ast.Delete:
		return ClassDelete
	case *ast.Select:
		return ClassSelect
	case *ast.Begin, *ast.Commit, *ast.Rollback, *ast.SetTxn:
		return ClassTxn
	default:
		return ClassDDL
	}
}

// Shape is the SELECT sub-taxonomy: the structural query shapes the
// generator chooses among. Like Class it is a feedback dimension —
// under-explored shapes can be re-weighted without touching the class
// budget.
type Shape string

const (
	ShapeSimple Shape = "simple"
	ShapeJoin   Shape = "join"
	ShapeGroup  Shape = "group"
	ShapeUnion  Shape = "union"
	ShapeStar   Shape = "star"
	// ShapePoint and ShapeRange are the index-sympathetic shapes: a
	// single-table SELECT whose WHERE carries a top-level equality
	// (point) or ordering/BETWEEN bound (range) between a column and a
	// row-independent value — exactly the conjuncts the engine's
	// analyzer lowers to index point lookups and range scans. Keeping
	// them as first-class shapes lets the coverage feedback loop steer
	// budget onto (or off) the compiled access paths directly.
	ShapePoint Shape = "point"
	ShapeRange Shape = "range"
)

// Shapes lists every SELECT shape in deterministic order.
var Shapes = []Shape{ShapeSimple, ShapeJoin, ShapeGroup, ShapeUnion, ShapeStar, ShapePoint, ShapeRange}

// ShapeOf classifies a SELECT by its dominant structural feature. The
// mapping is derivable from the AST alone, so difftest can attribute
// coverage without the generator in the loop. Non-SELECT statements
// return "".
func ShapeOf(st ast.Statement) Shape {
	sel, ok := st.(*ast.Select)
	if !ok {
		return ""
	}
	switch {
	case sel.Union != nil:
		return ShapeUnion
	case len(sel.GroupBy) > 0:
		return ShapeGroup
	case len(sel.From) > 0 && len(sel.From[0].Joins) > 0:
		return ShapeJoin
	case len(sel.Items) == 1 && sel.Items[0].Star:
		return ShapeStar
	default:
		if point, rng := whereIndexShape(sel.Where); point {
			return ShapePoint
		} else if rng {
			return ShapeRange
		}
		return ShapeSimple
	}
}

// whereIndexShape walks the top-level AND tree of a WHERE clause and
// reports whether it carries an equality conjunct (point) or an
// ordering/BETWEEN bound (rng) between a plain column reference and a
// literal or parameter — the same leaves the analyzer's predicate
// classifier admits, so the shape taxonomy mirrors what the engine can
// actually serve from an index. Point dominates range in ShapeOf.
func whereIndexShape(e ast.Expr) (point, rng bool) {
	if e == nil {
		return false, false
	}
	switch x := e.(type) {
	case *ast.Binary:
		if x.Op == ast.OpAnd {
			lp, lr := whereIndexShape(x.L)
			rp, rr := whereIndexShape(x.R)
			return lp || rp, lr || rr
		}
		colVal := colValueLeaf(x.L, x.R) || colValueLeaf(x.R, x.L)
		switch x.Op {
		case ast.OpEq:
			return colVal, false
		case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			return false, colVal
		}
	case *ast.Between:
		if !x.Not && colValueLeaf(x.X, x.Lo) && valueLeafExpr(x.Hi) {
			return false, true
		}
	}
	return false, false
}

// colValueLeaf reports whether c is a bare column reference and v a
// row-independent value expression.
func colValueLeaf(c, v ast.Expr) bool {
	if _, ok := c.(*ast.ColumnRef); !ok {
		return false
	}
	return valueLeafExpr(v)
}

func valueLeafExpr(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Literal, *ast.Param:
		return true
	default:
		return false
	}
}

// Weights is the generator's adaptive budget plane: relative weights for
// the statement classes and, within SELECT, for the query shapes. The
// zero value of a field means "never pick it" (subject to the
// feasibility fallbacks in Next); an all-zero class row falls back to
// queries, an all-zero shape row to the simple shape.
//
// Weights are plain data so a feedback controller can be pure: read
// coverage, compute a new Weights, install it with SetWeights. The
// stream stays deterministic as long as the sequence of SetWeights
// calls (values and positions in the stream) is itself deterministic —
// which holds when the controller derives them from the stream's own
// observed coverage, as difftest's Feedback does.
type Weights struct {
	// Statement classes (relative, need not sum to anything).
	DDL, Insert, Update, Delete, Select, Txn int
	// SELECT shapes (relative). PointSelect and RangeSelect target the engine's index-backed access paths: PK
	// point probes and PK range scans over the live key band.
	SimpleSelect, JoinSelect, GroupSelect, UnionSelect, StarSelect, PointSelect, RangeSelect int
	// Bind plane (relative; only consulted when Options.Params is on):
	// the share of DML/queries that bind their values as typed arguments
	// (ParamBind) versus inline literals (InlineBind).
	InlineBind, ParamBind int
}

// DefaultShapeWeights extends the generator's historical fixed SELECT
// distribution (3/2/2/1/2 over simple/join/group/union/star) with the
// index-sympathetic shapes (2/1 over point/range).
func DefaultShapeWeights() (simple, join, group, union, star, point, rng int) {
	return 3, 2, 2, 1, 2, 2, 1
}

// defaultClassWeights is the starting statement-class split over
// ddl/insert/update/delete/select/txn.
func defaultClassWeights() (ddl, insert, update, del, sel, txn int) {
	return 7, 28, 12, 5, 42, 6
}

// defaultWeights seeds the plane: the default class and shape splits,
// and in Params mode the default bind split.
func defaultWeights(params bool) Weights {
	var w Weights
	w.DDL, w.Insert, w.Update, w.Delete, w.Select, w.Txn = defaultClassWeights()
	w.SimpleSelect, w.JoinSelect, w.GroupSelect, w.UnionSelect, w.StarSelect, w.PointSelect, w.RangeSelect = DefaultShapeWeights()
	if params {
		w.InlineBind, w.ParamBind = DefaultBindWeights()
	}
	return w
}

// DefaultBindWeights is the starting inline/param split in Params mode:
// two thirds of the eligible statements bind.
func DefaultBindWeights() (inline, param int) { return 1, 2 }

// sanitize clamps negative weights to zero (a controller bug must not
// panic the PRNG arithmetic).
func (w Weights) sanitize() Weights {
	clamp := func(v *int) {
		if *v < 0 {
			*v = 0
		}
	}
	for _, p := range []*int{
		&w.DDL, &w.Insert, &w.Update, &w.Delete, &w.Select, &w.Txn,
		&w.SimpleSelect, &w.JoinSelect, &w.GroupSelect, &w.UnionSelect, &w.StarSelect,
		&w.PointSelect, &w.RangeSelect,
		&w.InlineBind, &w.ParamBind,
	} {
		clamp(p)
	}
	return w
}

// ClassWeight returns the weight of one class.
func (w Weights) ClassWeight(c Class) int {
	switch c {
	case ClassDDL:
		return w.DDL
	case ClassInsert:
		return w.Insert
	case ClassUpdate:
		return w.Update
	case ClassDelete:
		return w.Delete
	case ClassSelect:
		return w.Select
	case ClassTxn:
		return w.Txn
	}
	return 0
}

// SetClassWeight sets the weight of one class.
func (w *Weights) SetClassWeight(c Class, v int) {
	switch c {
	case ClassDDL:
		w.DDL = v
	case ClassInsert:
		w.Insert = v
	case ClassUpdate:
		w.Update = v
	case ClassDelete:
		w.Delete = v
	case ClassSelect:
		w.Select = v
	case ClassTxn:
		w.Txn = v
	}
}

// ShapeWeight returns the weight of one SELECT shape.
func (w Weights) ShapeWeight(s Shape) int {
	switch s {
	case ShapeSimple:
		return w.SimpleSelect
	case ShapeJoin:
		return w.JoinSelect
	case ShapeGroup:
		return w.GroupSelect
	case ShapeUnion:
		return w.UnionSelect
	case ShapeStar:
		return w.StarSelect
	case ShapePoint:
		return w.PointSelect
	case ShapeRange:
		return w.RangeSelect
	}
	return 0
}

// BindWeight returns the weight of one bind mode.
func (w Weights) BindWeight(m BindMode) int {
	switch m {
	case BindInline:
		return w.InlineBind
	case BindParam:
		return w.ParamBind
	}
	return 0
}

// SetBindWeight sets the weight of one bind mode.
func (w *Weights) SetBindWeight(m BindMode, v int) {
	switch m {
	case BindInline:
		w.InlineBind = v
	case BindParam:
		w.ParamBind = v
	}
}

// SetShapeWeight sets the weight of one SELECT shape.
func (w *Weights) SetShapeWeight(s Shape, v int) {
	switch s {
	case ShapeSimple:
		w.SimpleSelect = v
	case ShapeJoin:
		w.JoinSelect = v
	case ShapeGroup:
		w.GroupSelect = v
	case ShapeUnion:
		w.UnionSelect = v
	case ShapeStar:
		w.StarSelect = v
	case ShapePoint:
		w.PointSelect = v
	case ShapeRange:
		w.RangeSelect = v
	}
}

// weightedPick draws an index proportionally to the weights, consuming
// one PRNG value; -1 (and no PRNG consumption) when the total is zero.
// Both budget planes — statement classes and SELECT shapes — draw
// through it.
func (g *Generator) weightedPick(weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return -1
	}
	n := g.rnd.Intn(total)
	for i, w := range weights {
		if n < w {
			return i
		}
		n -= w
	}
	return len(weights) - 1
}

// Weights returns the generator's current budget plane.
func (g *Generator) Weights() Weights { return g.w }

// SetWeights retargets the budget plane for all statements generated
// from here on. Callers retune between batches: difftest's Feedback
// computes the new plane from the previous batch's coverage so
// under-explored classes and shapes receive the remaining budget.
// Setting weights never desynchronizes transaction or schema tracking —
// it only changes the class/shape distribution of future picks.
func (g *Generator) SetWeights(w Weights) { g.w = w.sanitize() }
