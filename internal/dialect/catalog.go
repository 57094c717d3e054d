package dialect

import (
	"fmt"
	"strconv"
	"strings"

	"divsql/internal/engine"
	"divsql/internal/sql/types"
)

// FuncSpec describes one function across the four dialects.
type FuncSpec struct {
	// Canonical is the implementation key (an engine builtin or an
	// extension builtin defined in this package).
	Canonical string
	// Names gives the dialect spelling per server; a missing entry means
	// the server does not offer the function at all (translating a script
	// that uses it into that dialect yields "functionality missing").
	Names map[ServerName]string
	// NoAutoTranslate lists target servers that do support the construct
	// but for which the translator has no automatic rule — the paper's
	// "further work" category. This models constructs (vendor format
	// strings, legacy syntaxes) whose port needs manual rewriting.
	NoAutoTranslate map[ServerName]bool
	// SeqFunc marks sequence-advancing functions.
	SeqFunc bool
}

// TypeSpec describes one column type across the four dialects.
type TypeSpec struct {
	Canonical string
	Kind      types.Kind
	// Names lists accepted spellings per server; the first is the
	// preferred spelling used when translating into that dialect.
	Names map[ServerName][]string
}

func allFour(n string) map[ServerName]string {
	return map[ServerName]string{IB: n, PG: n, OR: n, MS: n}
}

// funcCatalog is built once; the catalogue is immutable at runtime.
var funcCatalog = buildFuncCatalog()

// FuncCatalog returns the cross-dialect function catalogue.
func FuncCatalog() []*FuncSpec { return funcCatalog }

func buildFuncCatalog() []*FuncSpec {
	return []*FuncSpec{
		// --- Portable core (same spelling everywhere) -------------------
		{Canonical: "UPPER", Names: allFour("UPPER")},
		{Canonical: "LOWER", Names: allFour("LOWER")},
		{Canonical: "TRIM", Names: allFour("TRIM")},
		{Canonical: "ABS", Names: allFour("ABS")},
		{Canonical: "SIGN", Names: allFour("SIGN")},
		{Canonical: "FLOOR", Names: allFour("FLOOR")},
		{Canonical: "CEIL", Names: allFour("CEIL")},
		{Canonical: "ROUND", Names: allFour("ROUND")},
		{Canonical: "POWER", Names: allFour("POWER")},
		{Canonical: "SQRT", Names: allFour("SQRT")},
		{Canonical: "MOD", Names: allFour("MOD")},
		{Canonical: "NULLIF", Names: allFour("NULLIF")},
		{Canonical: "REPLACE", Names: allFour("REPLACE")},
		{Canonical: "COUNT", Names: allFour("COUNT")},
		{Canonical: "SUM", Names: allFour("SUM")},
		{Canonical: "AVG", Names: allFour("AVG")},
		{Canonical: "MIN", Names: allFour("MIN")},
		{Canonical: "MAX", Names: allFour("MAX")},

		// --- Renamed across dialects (translator maps spellings) --------
		{Canonical: "LENGTH", Names: map[ServerName]string{IB: "LENGTH", PG: "LENGTH", OR: "LENGTH", MS: "LEN"}},
		{Canonical: "SUBSTR", Names: map[ServerName]string{IB: "SUBSTR", PG: "SUBSTR", OR: "SUBSTR", MS: "SUBSTRING"}},
		{Canonical: "COALESCE", Names: map[ServerName]string{IB: "COALESCE", PG: "COALESCE", OR: "NVL", MS: "ISNULL"}},
		{Canonical: "CONCAT", Names: map[ServerName]string{IB: "CONCAT", PG: "CONCAT", OR: "CONCAT", MS: "CONCAT"}},

		// --- Sequence access (MS SQL 7 has no sequences) -----------------
		{Canonical: "NEXTVAL", SeqFunc: true, Names: map[ServerName]string{IB: "GEN_ID", PG: "NEXTVAL", OR: "NEXTVAL"}},

		// --- Availability atoms ------------------------------------------
		// One function per "missing on exactly one server" pattern. These
		// model vendor extensions (each implemented identically here) and
		// are the executable carrier of the paper's "bug script cannot be
		// run: functionality missing" outcomes.
		{Canonical: "GEN_UUID", Names: map[ServerName]string{IB: "GEN_UUID", OR: "GEN_UUID", MS: "GEN_UUID"}},         // PG 7.0 lacks it
		{Canonical: "BIT_LENGTH", Names: map[ServerName]string{IB: "BIT_LENGTH", PG: "BIT_LENGTH", MS: "BIT_LENGTH"}}, // OR 8 lacks it
		{Canonical: "LPAD", Names: map[ServerName]string{IB: "LPAD", PG: "LPAD", OR: "LPAD"}},                         // MS 7 lacks it
		{Canonical: "DATEDIFF", Names: map[ServerName]string{PG: "DATEDIFF", OR: "DATEDIFF", MS: "DATEDIFF"}},         // IB 6 lacks it

		// --- Further-work atoms -------------------------------------------
		// Vendor formatting functions: every server has one, but the
		// format-string languages differ, so the translator has no
		// automatic rule INTO the named server — porting such a script
		// needs manual work, the paper's "further work" outcome.
		{Canonical: "DATE_FMT", Names: allFour("DATE_FMT"), NoAutoTranslate: map[ServerName]bool{PG: true}},
		{Canonical: "NUM_FMT", Names: allFour("NUM_FMT"), NoAutoTranslate: map[ServerName]bool{OR: true}},
		{Canonical: "STR_FMT", Names: allFour("STR_FMT"), NoAutoTranslate: map[ServerName]bool{MS: true}},
		{Canonical: "BIN_FMT", Names: allFour("BIN_FMT"), NoAutoTranslate: map[ServerName]bool{IB: true}},
	}
}

// maxPadLength bounds what LPAD builds: a longer result is an error, not
// an allocation the size of the request.
const maxPadLength = 1 << 20

// extensionBuiltins implements the catalogue functions that are not part
// of the engine's core builtin set. All are deterministic so results can
// be compared across servers.
func extensionBuiltins() map[string]engine.Builtin {
	m := make(map[string]engine.Builtin)
	m["GEN_UUID"] = engine.Builtin{Name: "GEN_UUID", MinArgs: 1, MaxArgs: 1,
		Fn: func(_ *engine.FuncContext, a []types.Value) (types.Value, error) {
			if a[0].IsNull() {
				return types.Null(), nil
			}
			return types.NewString("uuid-" + a[0].String()), nil
		}}
	m["BIT_LENGTH"] = engine.Builtin{Name: "BIT_LENGTH", MinArgs: 1, MaxArgs: 1,
		Fn: func(_ *engine.FuncContext, a []types.Value) (types.Value, error) {
			if a[0].IsNull() {
				return types.Null(), nil
			}
			return types.NewInt(int64(8 * len(a[0].String()))), nil
		}}
	m["LPAD"] = engine.Builtin{Name: "LPAD", MinArgs: 2, MaxArgs: 3,
		Fn: func(_ *engine.FuncContext, a []types.Value) (types.Value, error) {
			if a[0].IsNull() || a[1].IsNull() {
				return types.Null(), nil
			}
			s := a[0].String()
			n, err := engine.IntArg(a[1])
			if err != nil {
				return types.Value{}, err
			}
			if n <= 0 {
				return types.NewString(""), nil
			}
			pad := " "
			if len(a) == 3 && !a[2].IsNull() {
				pad = a[2].String()
			}
			// Whole pads go in front until the text is long enough; the
			// result is its last n bytes.
			if short := n - int64(len(s)); short > 0 && pad != "" {
				if n > maxPadLength {
					return types.Value{}, fmt.Errorf("%w: LPAD length %d exceeds %d", engine.ErrType, n, maxPadLength)
				}
				s = strings.Repeat(pad, int((short+int64(len(pad))-1)/int64(len(pad)))) + s
			}
			if int64(len(s)) > n {
				s = s[int64(len(s))-n:]
			}
			return types.NewString(s), nil
		}}
	m["DATEDIFF"] = engine.Builtin{Name: "DATEDIFF", MinArgs: 2, MaxArgs: 2,
		Fn: func(_ *engine.FuncContext, a []types.Value) (types.Value, error) {
			if a[0].IsNull() || a[1].IsNull() {
				return types.Null(), nil
			}
			d1, err := dateSerial(a[0])
			if err != nil {
				return types.Value{}, err
			}
			d2, err := dateSerial(a[1])
			if err != nil {
				return types.Value{}, err
			}
			return types.NewInt(d1 - d2), nil
		}}
	fmtFn := func(name string) engine.Builtin {
		return engine.Builtin{Name: name, MinArgs: 1, MaxArgs: 2,
			Fn: func(_ *engine.FuncContext, a []types.Value) (types.Value, error) {
				if a[0].IsNull() {
					return types.Null(), nil
				}
				return types.NewString(a[0].String()), nil
			}}
	}
	m["DATE_FMT"] = fmtFn("DATE_FMT")
	m["NUM_FMT"] = fmtFn("NUM_FMT")
	m["STR_FMT"] = fmtFn("STR_FMT")
	m["BIN_FMT"] = fmtFn("BIN_FMT")
	return m
}

// dateSerial converts a date value into a day count usable for
// differences. The calendar is simplified (fixed 31-day months); both
// operands go through the same conversion, so differences are consistent
// across servers.
func dateSerial(v types.Value) (int64, error) {
	s := v.String()
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return 0, fmt.Errorf("DATEDIFF: %q is not a date", s)
	}
	y, err1 := strconv.Atoi(parts[0])
	mo, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, fmt.Errorf("DATEDIFF: %q is not a date", s)
	}
	return int64(y*372 + (mo-1)*31 + (d - 1)), nil
}

// typeCatalog is built once; immutable at runtime.
var typeCatalog = buildTypeCatalog()

// TypeCatalog returns the cross-dialect type catalogue.
func TypeCatalog() []*TypeSpec { return typeCatalog }

func buildTypeCatalog() []*TypeSpec {
	return []*TypeSpec{
		{Canonical: "INTEGER", Kind: types.KindInt, Names: map[ServerName][]string{
			IB: {"INTEGER", "INT", "SMALLINT"},
			PG: {"INTEGER", "INT", "SMALLINT", "BIGINT", "INT4", "INT8"},
			OR: {"NUMBER", "INTEGER", "INT"},
			MS: {"INT", "INTEGER", "SMALLINT", "BIGINT"},
		}},
		{Canonical: "FLOAT", Kind: types.KindFloat, Names: map[ServerName][]string{
			IB: {"FLOAT", "DOUBLE PRECISION", "NUMERIC", "DECIMAL"},
			PG: {"FLOAT", "REAL", "DOUBLE PRECISION", "NUMERIC", "DECIMAL"},
			OR: {"FLOAT", "NUMERIC", "DECIMAL"},
			MS: {"FLOAT", "REAL", "NUMERIC", "DECIMAL"},
		}},
		{Canonical: "VARCHAR", Kind: types.KindString, Names: map[ServerName][]string{
			IB: {"VARCHAR", "CHAR"},
			PG: {"VARCHAR", "CHAR", "TEXT"},
			OR: {"VARCHAR2", "VARCHAR", "CHAR"},
			MS: {"VARCHAR", "CHAR", "NVARCHAR", "TEXT"},
		}},
		{Canonical: "DATE", Kind: types.KindDate, Names: map[ServerName][]string{
			IB: {"DATE"},
			PG: {"DATE", "TIMESTAMP"},
			OR: {"DATE"},
			MS: {"DATETIME"},
		}},
		{Canonical: "BOOLEAN", Kind: types.KindBool, Names: map[ServerName][]string{
			PG: {"BOOLEAN", "BOOL"},
			MS: {"BIT"},
		}},
		// MONEY: an MS-only vendor type, usable as an availability atom.
		{Canonical: "MONEY", Kind: types.KindFloat, Names: map[ServerName][]string{
			MS: {"MONEY"},
		}},
	}
}
