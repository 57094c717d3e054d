package types

import "strings"

// AppendRowKey appends the row's identity key to dst: every cell in its
// Encode form, each followed by a comma. Encode never emits an unescaped
// comma, so two rows share a key exactly when their cells are pairwise
// identical in kind and value — no cell text can forge a boundary.
func AppendRowKey(dst []byte, row []Value) []byte {
	for _, v := range row {
		dst = append(v.AppendEncode(dst), ',')
	}
	return dst
}

// DistinctRows removes duplicate rows (by AppendRowKey) in place,
// keeping first occurrences in order: the dedup of DISTINCT and UNION.
func DistinctRows(rows [][]Value) [][]Value {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0]
	var key []byte
	for _, r := range rows {
		key = AppendRowKey(key[:0], r)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// CompareNullsFirst is the ORDER BY comparator: NULLs first, then value
// order, then values Compare cannot order by kind and text.
func CompareNullsFirst(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if c, err := Compare(a, b); err == nil {
		return c
	}
	if a.K != b.K {
		return int(a.K) - int(b.K)
	}
	return strings.Compare(a.String(), b.String())
}
