package engine

import (
	"strconv"
	"strings"

	"divsql/internal/sql/types"
)

// BindRules are a server's bind-time type coercion rules: how typed
// client arguments are normalized into the server's value system before
// the statement executes. Like Quirks, each rule models a real product
// family's documented deviation; the rules are calibrated per dialect so
// the four simulated servers coerce slightly differently — a fault
// surface of its own, unreachable through inline-literal SQL (a literal
// is typed by the parser; a bound argument is typed by the client and
// re-typed by the server's bind path). The pristine oracle binds with
// the zero BindRules: every argument passes through unchanged.
type BindRules struct {
	// EmptyStringAsNull binds a zero-length string argument as SQL NULL
	// (the classic Oracle VARCHAR2 semantics: '' and NULL are one value
	// at the bind boundary).
	EmptyStringAsNull bool
	// NumericStringsAsNumbers re-types a string argument that parses as
	// a number into that number (Interbase-style loose client typing:
	// the bind layer trusts content over declared type).
	NumericStringsAsNumbers bool
	// TrimTrailingSpaces strips trailing spaces from string arguments
	// (PostgreSQL 7.0-era CHAR bind semantics applied to every string
	// parameter).
	TrimTrailingSpaces bool
	// BoolAsInt binds boolean arguments as BIT 0/1 integers (MS SQL has
	// no boolean value type at the bind boundary).
	BoolAsInt bool
}

// Apply normalizes one argument vector under the rules, returning a new
// slice when any value changed (the caller's vector is never mutated —
// it may be shared with other replicas of a broadcast).
func (r BindRules) Apply(args []types.Value) []types.Value {
	if r == (BindRules{}) {
		return args
	}
	var out []types.Value
	for i, v := range args {
		w := r.applyOne(v)
		if w == v {
			if out != nil {
				out[i] = w
			}
			continue
		}
		if out == nil {
			out = append([]types.Value(nil), args...)
		}
		out[i] = w
	}
	if out == nil {
		return args
	}
	return out
}

func (r BindRules) applyOne(v types.Value) types.Value {
	switch v.K {
	case types.KindString:
		if r.EmptyStringAsNull && v.S == "" {
			return types.Null()
		}
		if r.NumericStringsAsNumbers {
			s := strings.TrimSpace(v.S)
			if s != "" {
				if i, err := strconv.ParseInt(s, 10, 64); err == nil {
					return types.NewInt(i)
				}
				if f, err := strconv.ParseFloat(s, 64); err == nil {
					return types.NewFloat(f)
				}
			}
		}
		if r.TrimTrailingSpaces {
			if t := strings.TrimRight(v.S, " "); t != v.S {
				if r.EmptyStringAsNull && t == "" {
					return types.Null()
				}
				return types.NewString(t)
			}
		}
	case types.KindBool:
		if r.BoolAsInt {
			if v.B() {
				return types.NewInt(1)
			}
			return types.NewInt(0)
		}
	}
	return v
}
