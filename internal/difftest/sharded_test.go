package difftest

import "testing"

// TestShardedSmokeDivergenceFree is the sharded analogue of the
// fault-free differential gate: generated streams through the shard
// router over fault-free diverse replica sets must agree with the
// oracle on every statement, the workload must actually spread across
// more than one shard, and it must reach both the pinned and the
// broadcast paths without a rejection.
func TestShardedSmokeDivergenceFree(t *testing.T) {
	res, err := RunSharded(ShardedConfig{Seed: 1, N: 250, Streams: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Statements != 1000 {
		t.Errorf("statements = %d, want 1000", res.Statements)
	}
	for _, d := range res.Divergences {
		t.Errorf("stream %d stmt %d %q: %s", d.Stream, d.Index, d.SQL, d.Detail)
	}
	busy := 0
	for _, n := range res.PerShard {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("per-shard statement counts %v: want at least 2 busy shards", res.PerShard)
	}
	if rt := res.Routes; rt.Single == 0 || rt.Broadcast == 0 || rt.Rejected != 0 {
		t.Errorf("route mix %+v: want single and broadcast routes and no rejections", rt)
	}
}
