// Command bench is the stack benchmark: four fixed-work workloads over
// the path a client statement really takes (wire → shard router →
// diverse middleware → server → engine) and over the differential hunt,
// with end-to-end metrics, per-layer metrics and one traced run. See
// README.md for the glossary and what each number should move.
//
//	go run . -seed 1                      every workload, end-to-end metrics
//	go run . -seed 1 -trace 1             every workload, per-layer metrics and the ladder
//	go run . -workload pointread -seed 7  one workload
//	go run . -agree                       two sets back to back, compared against the bounds
//
// Each workload's report ends with its result as one line of JSON, so
// the last line of standard output is the last workload's result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// spec names one metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics a run prints with -trace 0: what a user of
// the system sees. BENCHMARK.json gives each its regression bound.
var endToEnd = []spec{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"setup_s", "s"},
}

// perLayer are the metrics a run prints with -trace 1, named after the
// packages. A metric that does not apply to a workload reads 0.
var perLayer = []spec{
	{"wire_self_us", "us"},
	{"wire_bytes_per_stmt", "B"},
	{"wire_frames_per_stmt", "count"},
	{"shard_self_us", "us"},
	{"shard_fanout", "count"},
	{"shard_single_share", "share"},
	{"shard_scatter_share", "share"},
	{"shard_broadcast_share", "share"},
	{"replicaset_us", "us"},
	{"middleware_over_server_x", "x"},
	{"middleware_unanimous_share", "share"},
	{"middleware_outvoted", "count"},
	{"middleware_resyncs", "count"},
	{"sql_parse_us_per_stmt", "us"},
	{"sql_text_share", "share"},
	{"plan_cache_hit_rate", "share"},
	{"engine_point_share", "share"},
	{"engine_range_share", "share"},
	{"engine_full_share", "share"},
	{"core_adjudicate_us", "us"},
	{"hunt_divergences", "count"},
	{"hunt_gen_share", "share"},
	{"rung_server_us", "us"},
	{"rung_diverse_us", "us"},
	{"rung_router_us", "us"},
	{"rung_wire_us", "us"},
	{"op_p99_us", "us"},
	{"trace_overhead_pct", "%"},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	wire bool // runs through the full stack (false: the in-process hunt)
	run  func(seed int64, z sizes, t *tracer) (*round, error)
}

var workloads = []workload{
	{"tpcc-prepared", true, func(seed int64, z sizes, t *tracer) (*round, error) { return tpccRound(seed, z, true, t) }},
	{"tpcc-inline", true, func(seed int64, z sizes, t *tracer) (*round, error) { return tpccRound(seed, z, false, t) }},
	{"pointread", true, pointRound},
	{"hunt", false, func(seed int64, z sizes, _ *tracer) (*round, error) { return huntRound(seed, z) }},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a run's result plus what the human-readable report shows.
type outcome struct {
	result
	rounds int
	values map[string]float64 // every metric computed, gated or not
	notes  []string           // failed checks
}

// runWorkload repeats whole rounds of w for `seconds` and reports the
// medians. It never starts a round it does not expect to finish in
// time.
func runWorkload(w workload, seed int64, z sizes, seconds float64, trace bool, spanPath string) (*outcome, error) {
	began := time.Now()
	left := func() float64 { return seconds - time.Since(began).Seconds() }
	var plain, traced []*round
	var longest float64
	do := func(t *tracer) error {
		t0 := time.Now()
		r, err := w.run(seed, z, t)
		if err != nil {
			return err
		}
		longest = max(longest, time.Since(t0).Seconds())
		if t == nil {
			plain = append(plain, r)
			return nil
		}
		// Join the spans now and keep only the first traced round's for
		// the rungs and the span file: later rounds should not run on a
		// heap the earlier ones' spans have grown.
		if r.times, err = t.account(r.from, r.quarter); err != nil {
			return err
		}
		if len(traced) > 0 {
			r.t = nil
		}
		traced = append(traced, r)
		return nil
	}
	// A traced run alternates untraced and traced rounds (their ratio is
	// the tracing overhead) and keeps time for the rungs, which cost
	// about a round and a half.
	perStep, reserve := 1.1, 0.0
	if trace {
		reserve = 1.5
		if w.wire {
			perStep = 2.2
		}
	}
	for {
		if err := do(nil); err != nil {
			return nil, err
		}
		if trace && w.wire {
			if err := do(newTracer()); err != nil {
				return nil, err
			}
		}
		if left() < (perStep+reserve)*longest {
			break
		}
	}

	all := append(slices.Clone(plain), traced...)
	o := &outcome{rounds: len(all), values: make(map[string]float64)}
	o.Correct = true
	fail := func(format string, args ...any) {
		o.Correct = false
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
	for _, r := range all {
		o.Attempted += r.attempted
		o.Failed += r.failed
		if r.checkErr != nil {
			fail("output check: %v", r.checkErr)
		}
	}
	if o.Failed > 0 {
		fail("%d of %d ops failed", o.Failed, o.Attempted)
	}

	// End-to-end values come from the untraced rounds only.
	var opsPerS, cpu, allocs, setup, perOp []float64
	var lat []time.Duration
	for _, r := range plain {
		opsPerS = append(opsPerS, float64(r.ops)/r.elapsed.Seconds())
		cpu = append(cpu, float64(r.cpu.Nanoseconds())/1e3/float64(r.ops))
		allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
		setup = append(setup, r.setup.Seconds())
		perOp = append(perOp, float64(r.elapsed.Nanoseconds())/1e3/float64(r.ops))
		lat = append(lat, r.lat...)
	}
	o.values["ops_per_s"] = median(opsPerS)
	o.values["cpu_us_per_op"] = median(cpu)
	o.values["allocs_per_op"] = median(allocs)
	o.values["setup_s"] = median(setup)
	if len(lat) > 0 {
		slices.Sort(lat)
		o.values["op_p50_us"] = percentileUS(lat, 0.50)
		o.values["op_p99_us"] = percentileUS(lat, 0.99)
		o.values["op_samples"] = float64(len(lat))
	} else {
		// The hunt is one library call: its sample of an op's time is a
		// round's wall time over its statements, and it has no tail.
		o.values["op_p50_us"] = median(perOp)
		o.values["op_samples"] = float64(len(perOp))
	}
	// Counts are taken in every round; they barely vary.
	for _, s := range perLayer {
		var vs []float64
		for _, r := range all {
			if v, ok := r.layer[s.name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			o.values[s.name] = median(vs)
		}
	}
	if !w.wire {
		for _, r := range plain {
			if r.layer["hunt_divergences"] != plain[0].layer["hunt_divergences"] {
				fail("hunt_divergences differ between rounds of one seed: %v vs %v",
					r.layer["hunt_divergences"], plain[0].layer["hunt_divergences"])
				break
			}
		}
	}

	if trace {
		if err := o.traceMetrics(w, seed, z, traced, spanPath, fail); err != nil {
			return nil, err
		}
	}
	list := endToEnd
	if trace {
		list = perLayer
	}
	o.Metrics = make(map[string]metric, len(list))
	for _, s := range list {
		o.Metrics[s.name] = metric{Value: o.values[s.name], Unit: s.unit}
	}
	return o, nil
}

// traceMetrics fills in the per-layer values that need spans or rungs.
func (o *outcome) traceMetrics(w workload, seed int64, z sizes, traced []*round, spanPath string,
	fail func(string, ...any)) error {
	if !w.wire {
		quarter := (z.huntStmts + 3) / 4
		stream, genTime := huntStream(seed, quarter)
		rg, err := climb(stream, 0, false)
		if err != nil {
			return err
		}
		o.ladder(rg)
		// The hunt builds its servers inside difftest.Run; the engine's
		// counters are read off the server rung instead.
		for name, v := range rg.engine {
			o.values[name] = v
		}
		o.values["hunt_gen_share"] = genTime.Seconds() / float64(quarter) * o.values["ops_per_s"]
		return nil
	}
	var wireSelf, shardSelf, replicaset, fanout, client, tracedOps []float64
	for _, r := range traced {
		lt := r.times
		if lt.violations > 0 {
			fail("trace: %d spans not nested in their parent", lt.violations)
		}
		if sum := lt.wireSelfUS + lt.shardSelf + lt.replicaset; sum < 0.95*lt.clientUS || sum > 1.05*lt.clientUS {
			fail("trace: self-times sum to %.2f us, client span is %.2f us", sum, lt.clientUS)
		}
		wireSelf = append(wireSelf, lt.wireSelfUS)
		shardSelf = append(shardSelf, lt.shardSelf)
		replicaset = append(replicaset, lt.replicaset)
		fanout = append(fanout, lt.fanout)
		client = append(client, lt.clientUS)
		tracedOps = append(tracedOps, float64(r.ops)/r.elapsed.Seconds())
	}
	o.values["wire_self_us"] = median(wireSelf)
	o.values["shard_self_us"] = median(shardSelf)
	o.values["replicaset_us"] = median(replicaset)
	o.values["shard_fanout"] = median(fanout)
	o.values["rung_wire_us"] = median(client)
	o.values["trace_overhead_pct"] = 100 * (o.values["ops_per_s"] - median(tracedOps)) / o.values["ops_per_s"]

	first := traced[0]
	rg, err := climb(first.t.stream(first.quarter), first.from, true)
	if err != nil {
		fail("%v", err)
	}
	o.ladder(rg)
	n, err := first.t.writeSpans(spanPath, first.from, first.quarter)
	if err != nil {
		return err
	}
	o.values["spans_written"] = float64(n)
	return nil
}

func (o *outcome) ladder(rg rungs) {
	o.values["rung_server_us"] = rg.serverUS
	o.values["rung_diverse_us"] = rg.diverseUS
	o.values["rung_router_us"] = rg.routerUS
	o.values["core_adjudicate_us"] = rg.adjudicate
	o.values["sql_parse_us_per_stmt"] = rg.parseUS
	o.values["sql_text_share"] = rg.parsedShare
	if rg.serverUS > 0 {
		o.values["middleware_over_server_x"] = rg.diverseUS / rg.serverUS
	}
}

// report prints every metric by name and unit, then the ladder.
func (o *outcome) report(w workload, seed int64, trace bool) {
	fmt.Printf("%s  seed %d  %d rounds  %d ops attempted, %d failed\n", w.name, seed, o.rounds, o.Attempted, o.Failed)
	list := endToEnd
	if trace {
		list = perLayer
	} else {
		fmt.Printf("  %-28s %14.0f %s\n", "op_samples", o.values["op_samples"], "count")
		fmt.Printf("  %-28s %14.4f %s   (diagnostic, not gated)\n", "op_p99_us", o.values["op_p99_us"], "us")
	}
	for _, s := range list {
		fmt.Printf("  %-28s %14.4f %s\n", s.name, o.values[s.name], s.unit)
	}
	if trace && w.wire {
		v := o.values
		fmt.Printf("  ladder, us per statement over the first quarter of a round's ops (%v spans written):\n", v["spans_written"])
		fmt.Printf("    server  %9.2f                 one bare PG server.Session\n", v["rung_server_us"])
		fmt.Printf("    diverse %9.2f  (+%8.2f)    PG+OR+MS replica set, %0.1fx the server\n",
			v["rung_diverse_us"], v["rung_diverse_us"]-v["rung_server_us"], v["middleware_over_server_x"])
		fmt.Printf("    router  %9.2f  (+%8.2f)    2-shard router over two replica sets\n",
			v["rung_router_us"], v["rung_router_us"]-v["rung_diverse_us"])
		fmt.Printf("    wire    %9.2f  (+%8.2f)    client span, 2 sessions = wire %.2f + shard %.2f + replicaset %.2f\n",
			v["rung_wire_us"], v["rung_wire_us"]-v["rung_router_us"], v["wire_self_us"], v["shard_self_us"], v["replicaset_us"])
	}
	for _, n := range o.notes {
		fmt.Printf("  FAILED %s\n", n)
	}
}

// header names the machine and the build, so any pasted report says
// where it came from.
func header() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 7:
				commit = s.Value[:7]
			case s.Key == "vcs.modified" && s.Value == "true":
				commit += "+dirty"
			}
		}
	}
	return fmt.Sprintf("divsql stack benchmark  %s/%s  nproc %d  GOMAXPROCS %d  %s  commit %s  %d client sessions",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, clients())
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 30, "how long one workload's run repeats whole rounds")
		trace   = flag.Int("trace", 0, "1: the traced run, printing per-layer metrics and the ladder")
		agree   = flag.Bool("agree", false, "run two full sets back to back and compare them against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-agree]")
		os.Exit(2)
	}
	fmt.Println(header())
	if *agree {
		os.Exit(agreeMain(*seed, *seconds))
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	ok := true
	for _, w := range selected {
		o, err := runWorkload(w, *seed, fullSizes(), *seconds, *trace == 1, spanFile(w))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		o.report(w, *seed, *trace == 1)
		line, err := json.Marshal(o.result)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && o.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// spanFile is where a traced run of w writes its spans: next to the
// build outputs, which .gitignore names.
func spanFile(w workload) string {
	return filepath.Join(".bench_build", "spans-"+w.name+".json")
}
