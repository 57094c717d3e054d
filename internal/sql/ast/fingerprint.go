package ast

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Flag is a syntactic/semantic feature observed in a statement. Fault
// triggers match on sets of flags plus referenced tables — this is the
// executable analogue of the paper's "failure region" notion: the set of
// demands that can activate a fault.
type Flag string

// Statement feature flags.
const (
	FlagSelect       Flag = "SELECT"
	FlagInsert       Flag = "INSERT"
	FlagUpdate       Flag = "UPDATE"
	FlagDelete       Flag = "DELETE"
	FlagCreateTable  Flag = "CREATE_TABLE"
	FlagCreateView   Flag = "CREATE_VIEW"
	FlagCreateIndex  Flag = "CREATE_INDEX"
	FlagDropTable    Flag = "DROP_TABLE"
	FlagDropView     Flag = "DROP_VIEW"
	FlagDistinct     Flag = "DISTINCT"
	FlagUnion        Flag = "UNION"
	FlagLeftJoin     Flag = "LEFT_JOIN"
	FlagFullJoin     Flag = "FULL_JOIN"
	FlagJoin         Flag = "JOIN"
	FlagGroupBy      Flag = "GROUP_BY"
	FlagHaving       Flag = "HAVING"
	FlagOrderBy      Flag = "ORDER_BY"
	FlagSubquery     Flag = "SUBQUERY"
	FlagInSubquery   Flag = "IN_SUBQUERY"
	FlagNotIn        Flag = "NOT_IN"
	FlagExists       Flag = "EXISTS"
	FlagAggregate    Flag = "AGGREGATE"
	FlagAvg          Flag = "AVG"
	FlagSum          Flag = "SUM"
	FlagMod          Flag = "MOD"
	FlagArith        Flag = "ARITHMETIC"
	FlagLike         Flag = "LIKE"
	FlagBetween      Flag = "BETWEEN"
	FlagCase         Flag = "CASE"
	FlagCast         Flag = "CAST"
	FlagDefault      Flag = "DEFAULT"
	FlagCheck        Flag = "CHECK"
	FlagPrimaryKey   Flag = "PRIMARY_KEY"
	FlagClusteredIdx Flag = "CLUSTERED_INDEX"
	FlagLimit        Flag = "LIMIT"
	FlagViewUnion    Flag = "VIEW_UNION"
	FlagViewDistinct Flag = "VIEW_DISTINCT"
	FlagTransaction  Flag = "TRANSACTION"
	FlagIsolation    Flag = "ISOLATION"
	// FlagParam marks statements carrying bind-parameter placeholders:
	// the prepare/bind execution path, a fault surface of its own (each
	// server's bind-time type coercion differs). Parameterized statements
	// therefore fingerprint apart from their inline-literal shapes.
	FlagParam Flag = "PARAM"
)

// flagList gives every flag its bit in Fingerprint.flags.
var flagList = [...]Flag{
	FlagSelect, FlagInsert, FlagUpdate, FlagDelete, FlagCreateTable, FlagCreateView,
	FlagCreateIndex, FlagDropTable, FlagDropView, FlagDistinct, FlagUnion, FlagLeftJoin,
	FlagFullJoin, FlagJoin, FlagGroupBy, FlagHaving, FlagOrderBy, FlagSubquery,
	FlagInSubquery, FlagNotIn, FlagExists, FlagAggregate, FlagAvg, FlagSum, FlagMod,
	FlagArith, FlagLike, FlagBetween, FlagCase, FlagCast, FlagDefault, FlagCheck,
	FlagPrimaryKey, FlagClusteredIdx, FlagLimit, FlagViewUnion, FlagViewDistinct,
	FlagTransaction, FlagIsolation, FlagParam,
}

var flagBit = func() map[Flag]uint64 {
	m := make(map[Flag]uint64, len(flagList))
	for i, f := range flagList {
		m[f] = 1 << i
	}
	return m
}()

// Fingerprint summarizes the syntactic shape of one statement. It is a
// small value — a bit set and two short sorted lists — because every
// interned statement keeps one (stmt.Parsed) for as long as its text
// stays interned.
type Fingerprint struct {
	// Tables lists, sorted, the upper-cased names of the tables and views
	// the statement references (ast.Tables).
	Tables []string
	// Funcs lists, sorted, the upper-cased names of the functions a
	// query, a DML statement or a view definition calls, nested queries
	// included.
	Funcs []string
	flags uint64 // flagBit of every flag carried
}

// Has reports whether the fingerprint carries the flag.
func (fp Fingerprint) Has(f Flag) bool { return fp.flags&flagBit[f] != 0 }

// FlagBit is the flag's bit, for HasAll: a flag resolved once, where it
// is checked against many fingerprints. An unknown flag is a bit no
// fingerprint carries.
func FlagBit(f Flag) uint64 {
	if b, ok := flagBit[f]; ok {
		return b
	}
	return 1 << len(flagList)
}

// HasAll reports whether the fingerprint carries every flag whose bit is
// set in bits (FlagBit); no bits is no condition.
func (fp Fingerprint) HasAll(bits uint64) bool { return fp.flags&bits == bits }

// UsesTable reports whether the statement references the named table.
func (fp Fingerprint) UsesTable(name string) bool {
	return slices.Contains(fp.Tables, strings.ToUpper(name))
}

// UsesFunc reports whether the statement calls the named function.
func (fp Fingerprint) UsesFunc(name string) bool {
	return slices.Contains(fp.Funcs, strings.ToUpper(name))
}

// String renders a stable, human-readable digest (for logs and tests).
func (fp Fingerprint) String() string {
	flags := make([]string, 0, bits.OnesCount64(fp.flags))
	for i, f := range flagList {
		if fp.flags&(1<<i) != 0 {
			flags = append(flags, string(f))
		}
	}
	sort.Strings(flags)
	return strings.Join(flags, "|") + " @ " + strings.Join(fp.Tables, ",")
}

// IsAggregate reports whether the upper-cased function name is an
// aggregate (FuncCall.Name is upper-cased by the parser).
func IsAggregate(name string) bool {
	switch name {
	case "AVG", "SUM", "COUNT", "MIN", "MAX":
		return true
	}
	return false
}

// FingerprintOf computes the fingerprint of a statement.
func FingerprintOf(st Statement) Fingerprint {
	var fp Fingerprint
	for t := range Tables(st) {
		fp.Tables = append(fp.Tables, t)
	}
	sort.Strings(fp.Tables)
	set := func(f Flag) {
		b, ok := flagBit[f]
		if !ok {
			panic("ast: flag " + string(f) + " is not in flagList")
		}
		fp.flags |= b
	}

	exprFlags := func(e Expr) {
		WalkExprs(e, func(e Expr) {
			switch x := e.(type) {
			case *Binary:
				switch x.Op {
				case OpAdd, OpSub, OpMul, OpDiv:
					set(FlagArith)
				case OpMod:
					set(FlagArith)
					set(FlagMod)
				}
			case *FuncCall:
				up := strings.ToUpper(x.Name)
				if i, found := slices.BinarySearch(fp.Funcs, up); !found {
					fp.Funcs = slices.Insert(fp.Funcs, i, up)
				}
				if IsAggregate(up) {
					set(FlagAggregate)
				}
				switch up {
				case "AVG":
					set(FlagAvg)
				case "SUM":
					set(FlagSum)
				case "MOD":
					set(FlagMod)
				}
			case *In:
				if x.Select != nil {
					set(FlagSubquery)
					set(FlagInSubquery)
				}
				if x.Not {
					set(FlagNotIn)
				}
			case *Exists:
				set(FlagSubquery)
				set(FlagExists)
			case *Subquery:
				set(FlagSubquery)
			case *Like:
				set(FlagLike)
			case *Between:
				set(FlagBetween)
			case *Case:
				set(FlagCase)
			case *Cast:
				set(FlagCast)
			case *Param:
				set(FlagParam)
			}
		})
	}

	var selFlags func(s *Select)
	selFlags = func(s *Select) {
		if s == nil {
			return
		}
		if s.Distinct {
			set(FlagDistinct)
		}
		if s.Union != nil {
			set(FlagUnion)
		}
		if len(s.GroupBy) > 0 {
			set(FlagGroupBy)
		}
		if s.Having != nil {
			set(FlagHaving)
		}
		if len(s.OrderBy) > 0 {
			set(FlagOrderBy)
		}
		if s.LimitSyn != LimitNone {
			set(FlagLimit)
		}
		for _, f := range s.From {
			for _, j := range f.Joins {
				set(FlagJoin)
				switch j.Type {
				case JoinLeft, JoinRight:
					set(FlagLeftJoin)
				case JoinFull:
					set(FlagFullJoin)
				}
			}
			selFlags(f.Table.Subquery)
			for _, j := range f.Joins {
				selFlags(j.Right.Subquery)
			}
		}
		WalkSelectExprs(s, func(e Expr) {
			switch x := e.(type) {
			case *In:
				selFlags(x.Select)
			case *Exists:
				selFlags(x.Select)
			case *Subquery:
				selFlags(x.Select)
			}
		})
		selFlags(s.Union)
	}

	switch x := st.(type) {
	case *Select:
		set(FlagSelect)
		selFlags(x)
		WalkSelectExprs(x, exprFlags)
	case *Insert:
		set(FlagInsert)
		for _, row := range x.Rows {
			for _, e := range row {
				exprFlags(e)
			}
		}
		if x.Select != nil {
			selFlags(x.Select)
			WalkSelectExprs(x.Select, exprFlags)
		}
	case *Update:
		set(FlagUpdate)
		for _, sc := range x.Sets {
			exprFlags(sc.Value)
		}
		exprFlags(x.Where)
	case *Delete:
		set(FlagDelete)
		exprFlags(x.Where)
	case *CreateTable:
		set(FlagCreateTable)
		for _, c := range x.Columns {
			if c.Default != nil {
				set(FlagDefault)
			}
			if c.Check != nil {
				set(FlagCheck)
			}
			if c.PrimaryKey {
				set(FlagPrimaryKey)
			}
		}
		for _, c := range x.Constraints {
			if len(c.PrimaryKey) > 0 {
				set(FlagPrimaryKey)
			}
			if c.Check != nil {
				set(FlagCheck)
			}
		}
	case *CreateView:
		set(FlagCreateView)
		if x.Select != nil {
			if x.Select.Distinct {
				set(FlagViewDistinct)
			}
			if x.Select.Union != nil {
				set(FlagViewUnion)
			}
			selFlags(x.Select)
			WalkSelectExprs(x.Select, exprFlags)
		}
	case *CreateIndex:
		set(FlagCreateIndex)
		if x.Clustered {
			set(FlagClusteredIdx)
		}
	case *DropTable:
		set(FlagDropTable)
	case *DropView:
		set(FlagDropView)
	case *Begin, *Commit, *Rollback:
		set(FlagTransaction)
	case *SetTxn:
		set(FlagTransaction)
		set(FlagIsolation)
	}
	return fp
}
