package plan

import "testing"

func TestInfoString(t *testing.T) {
	i := Info{Cores: []Core{{Table: "KV", Path: PointLookup}, {Table: "U"}}, Joins: []JoinAlgo{HashJoin, NestedLoop}}
	if got, want := i.String(), "cores KV:point-lookup U:full-scan; joins hash nested-loop"; got != want {
		t.Errorf("Info.String() = %q, want %q", got, want)
	}
}
