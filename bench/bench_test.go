package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// testSizes is every workload at about a hundredth of its size: the op
// counts, and the rows pointread loads.
func testSizes() sizes {
	z := fullSizes()
	z.tpccTx = 20
	z.pointOps = 200
	z.huntStmts = 100
	z.precheck = 100
	z.readTables.CustomersPerDistrict = 3
	z.readTables.Items = 10
	return z
}

func findWorkload(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", name)
	return workload{}
}

// TestManifestMatches holds BENCHMARK.json and the program to each
// other: the same workloads, the same metric names and units.
func TestManifestMatches(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		findWorkload(t, w.Name)
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if i < len(endToEnd) && (e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit) {
			t.Errorf("end_to_end[%d] is %s (%s), the benchmark prints %s (%s)", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		if i < len(perLayer) && (e.Name != perLayer[i].name || e.Unit != perLayer[i].unit) {
			t.Errorf("per_layer[%d] is %s (%s), the benchmark prints %s (%s)", i, e.Name, e.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloads runs every workload small, untraced and traced, and
// checks that each metric BENCHMARK.json names comes out with its unit,
// that every output check passes, and that the traced run's self-times
// account for the client span.
func TestWorkloads(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, mw := range m.Workloads {
		w := findWorkload(t, mw.Name)
		t.Run(w.name, func(t *testing.T) {
			o, err := runWorkload(w, 1, testSizes(), 0, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d notes=%v", o.Correct, o.Attempted, o.Failed, o.notes)
			}
			if len(o.Metrics) != len(m.EndToEnd) {
				t.Errorf("untraced run prints %d metrics, want the %d end-to-end ones", len(o.Metrics), len(m.EndToEnd))
			}
			for _, e := range m.EndToEnd {
				got, ok := o.Metrics[e.Name]
				if !ok || got.Unit != e.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s (%s): got %+v, present=%v", e.Name, e.Unit, got, ok)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			o, err = runWorkload(w, 1, testSizes(), 0, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct {
				t.Errorf("traced: %v", o.notes)
			}
			if len(o.Metrics) != len(m.PerLayer) {
				t.Errorf("traced run prints %d metrics, want the %d per-layer ones", len(o.Metrics), len(m.PerLayer))
			}
			for _, e := range m.PerLayer {
				if got, ok := o.Metrics[e.Name]; !ok || got.Unit != e.Unit {
					t.Errorf("per-layer %s (%s): got %+v, present=%v", e.Name, e.Unit, got, ok)
				}
			}
			if !w.wire {
				if o.values["hunt_divergences"] <= 0 || o.values["rung_server_us"] <= 0 {
					t.Errorf("hunt: divergences %v, server rung %v us", o.values["hunt_divergences"], o.values["rung_server_us"])
				}
				return
			}
			v := o.values
			sum, client := v["wire_self_us"]+v["shard_self_us"]+v["replicaset_us"], v["rung_wire_us"]
			if client <= 0 || sum < 0.95*client || sum > 1.05*client {
				t.Errorf("self-times sum to %v us, client span is %v us", sum, client)
			}
			for _, rung := range []string{"rung_server_us", "rung_diverse_us", "rung_router_us"} {
				if v[rung] <= 0 {
					t.Errorf("%s = %v", rung, v[rung])
				}
			}
			checkSpanFile(t, spans, int(v["spans_written"]))
		})
	}
}

// checkSpanFile reads the span file back: every span but a client span
// names a parent that contains it and shares its op.
func checkSpanFile(t *testing.T, path string, want int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("span file: %v", err)
	}
	if len(spans) != want || want == 0 {
		t.Fatalf("span file holds %d spans, the run reported %d", len(spans), want)
	}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name == "client" {
			if s.Parent != 0 {
				t.Fatalf("client span %d has parent %d", s.ID, s.Parent)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %+v is not inside its parent %+v", s, p)
		}
	}
}

// streamHash folds the statements a round was given into one number.
func streamHash(stream []captured) uint64 {
	h := fnv.New64a()
	for _, c := range stream {
		h.Write([]byte{c.kind})
		h.Write([]byte(c.text))
		for _, a := range c.args {
			h.Write([]byte(a.Encode()))
		}
	}
	return h.Sum64()
}

// TestSeedChangesInputsOnly: another seed gives other keys and
// statements, the same op counts; the same seed gives the same inputs.
func TestSeedChangesInputsOnly(t *testing.T) {
	z := testSizes()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inputs := func(seed int64) (int, uint64) {
				if !w.wire {
					stream, _ := huntStream(seed, z.huntStmts)
					return len(stream), streamHash(stream)
				}
				r, err := w.run(seed, z, newTracer())
				if err != nil {
					t.Fatal(err)
				}
				// The first client session's timed statements (sessions
				// open in the order load, connection root, clients): the
				// merged order of two concurrent sessions is not an input.
				var own []captured
				for _, c := range r.t.stream(math.MaxInt64) {
					if c.sess == 2 && c.at >= r.from {
						own = append(own, c)
					}
				}
				return r.ops, streamHash(own)
			}
			ops1, h1 := inputs(1)
			ops1b, h1b := inputs(1)
			ops2, h2 := inputs(2)
			if ops1 != ops2 || ops1 != ops1b {
				t.Errorf("op counts differ: %d, %d, %d", ops1, ops1b, ops2)
			}
			if h1 != h1b {
				t.Errorf("seed 1 gave different inputs twice")
			}
			if h1 == h2 {
				t.Errorf("seeds 1 and 2 gave the same inputs")
			}
		})
	}
}
