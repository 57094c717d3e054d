package difftest

import (
	"fmt"
	"sort"
	"strings"

	"divsql/internal/core"
	"divsql/internal/metamorph"
	"divsql/internal/qgen"
	"divsql/internal/sql/ast"
)

// BucketCoverage is the exploration/yield record of one statement class
// or SELECT shape.
type BucketCoverage struct {
	// Hits is the number of generated statements in the bucket.
	Hits int
	// Fingerprints is the number of distinct statement fingerprints
	// generated in the bucket — the bucket's exploration breadth.
	Fingerprints int
	// Divergent counts raw divergent (server, statement) executions
	// attributed to the bucket.
	Divergent int
	// NewFingerprints counts divergence fingerprints first observed on a
	// statement of this bucket — the bucket's yield of *distinct* fault
	// regions, the quantity the feedback loop optimizes for.
	NewFingerprints int
}

// Coverage is the run's exploration signal: per statement-class and
// per SELECT-shape hit counts, generated-fingerprint breadth, oracle
// error-class hits, and per-bucket divergence yield. difftest exports
// one Coverage per run (Result.Coverage) and, in adaptive mode, feeds a
// per-stream Coverage back into the generator's Weights plane between
// batches (see Feedback).
type Coverage struct {
	// Statements is the number of generated statements observed.
	Statements int
	// ByClass and ByShape index the buckets (ByShape only for SELECTs).
	ByClass map[qgen.Class]*BucketCoverage
	ByShape map[qgen.Shape]*BucketCoverage
	// ByBind splits the same statements along the bind dimension:
	// inline-literal versus prepared/bound execution (populated — for the
	// param bucket — only by Params-mode runs).
	ByBind map[qgen.BindMode]*BucketCoverage
	// ByOracle buckets the self-check verdict sources, one per
	// metamorph.Oracles entry (planvariants, tlp, norec, cert).
	// Hits count relation evaluations (an oracle that applied to an
	// answered SELECT and ran to a verdict), Fingerprints the breadth of
	// statements so checked, and Divergent/NewFingerprints the verdicts
	// that convicted — so adaptive hunts can see which oracle is buying
	// findings and which statement shapes feed it (the shape buckets
	// learn through the same divergences via ObserveDivergence).
	ByOracle map[string]*BucketCoverage
	// Errors counts statements by the oracle's normalized error class —
	// ClassNone is the well-formed budget; everything else is budget
	// spent on statements the common subset rejects.
	Errors map[core.ErrClass]int

	genFPs map[string]bool // distinct generated statement fingerprints
	divFPs map[string]bool // distinct divergence fingerprints
	// genFPClass/genFPShape/genFPBind/genFPOracle dedup fingerprint
	// breadth per bucket.
	genFPClass  map[string]bool
	genFPShape  map[string]bool
	genFPBind   map[string]bool
	genFPOracle map[string]bool
}

// NewCoverage returns an empty coverage accumulator.
func NewCoverage() *Coverage {
	return &Coverage{
		ByClass:     make(map[qgen.Class]*BucketCoverage),
		ByShape:     make(map[qgen.Shape]*BucketCoverage),
		ByBind:      make(map[qgen.BindMode]*BucketCoverage),
		ByOracle:    make(map[string]*BucketCoverage),
		Errors:      make(map[core.ErrClass]int),
		genFPs:      make(map[string]bool),
		divFPs:      make(map[string]bool),
		genFPClass:  make(map[string]bool),
		genFPShape:  make(map[string]bool),
		genFPBind:   make(map[string]bool),
		genFPOracle: make(map[string]bool),
	}
}

func (c *Coverage) oracleBucket(src string) *BucketCoverage {
	b := c.ByOracle[src]
	if b == nil {
		b = &BucketCoverage{}
		c.ByOracle[src] = b
	}
	return b
}

// ObserveOracleCheck records one evaluated self-check relation: the
// verdict source applied to a statement and ran to a verdict (hit), and
// the statement fingerprint counts toward the bucket's breadth.
func (c *Coverage) ObserveOracleCheck(src, fp string) {
	b := c.oracleBucket(src)
	b.Hits++
	if !c.genFPOracle[src+"\x00"+fp] {
		c.genFPOracle[src+"\x00"+fp] = true
		b.Fingerprints++
	}
}

// ObserveOracleDivergence records one convicting self-check verdict.
// isNew is ObserveDivergence's report on the same statement (the
// statement-fingerprint novelty signal is shared across all planes).
func (c *Coverage) ObserveOracleDivergence(src string, isNew bool) {
	b := c.oracleBucket(src)
	b.Divergent++
	if isNew {
		b.NewFingerprints++
	}
}

func (c *Coverage) classBucket(cl qgen.Class) *BucketCoverage {
	b := c.ByClass[cl]
	if b == nil {
		b = &BucketCoverage{}
		c.ByClass[cl] = b
	}
	return b
}

func (c *Coverage) shapeBucket(sh qgen.Shape) *BucketCoverage {
	b := c.ByShape[sh]
	if b == nil {
		b = &BucketCoverage{}
		c.ByShape[sh] = b
	}
	return b
}

func (c *Coverage) bindBucket(m qgen.BindMode) *BucketCoverage {
	b := c.ByBind[m]
	if b == nil {
		b = &BucketCoverage{}
		c.ByBind[m] = b
	}
	return b
}

// Observe records one generated statement: its class/shape hit, its
// fingerprint (breadth), and the oracle's error class.
func (c *Coverage) Observe(st ast.Statement, fp string, oracleErr error) {
	c.Statements++
	cl := qgen.ClassOf(st)
	cb := c.classBucket(cl)
	cb.Hits++
	if !c.genFPClass[string(cl)+"\x00"+fp] {
		c.genFPClass[string(cl)+"\x00"+fp] = true
		cb.Fingerprints++
	}
	if sh := qgen.ShapeOf(st); sh != "" {
		sb := c.shapeBucket(sh)
		sb.Hits++
		if !c.genFPShape[string(sh)+"\x00"+fp] {
			c.genFPShape[string(sh)+"\x00"+fp] = true
			sb.Fingerprints++
		}
	}
	bm := qgen.BindModeOf(st)
	bb := c.bindBucket(bm)
	bb.Hits++
	if !c.genFPBind[string(bm)+"\x00"+fp] {
		c.genFPBind[string(bm)+"\x00"+fp] = true
		bb.Fingerprints++
	}
	c.genFPs[fp] = true
	c.Errors[core.ErrorClass(oracleErr)]++
}

// ObserveDivergence records one divergent (server, statement) execution
// and reports whether the divergence fingerprint is new to this
// coverage (the feedback loop's reward signal).
func (c *Coverage) ObserveDivergence(st ast.Statement, fp string) bool {
	cl := qgen.ClassOf(st)
	cb := c.classBucket(cl)
	cb.Divergent++
	isNew := !c.divFPs[fp]
	if isNew {
		c.divFPs[fp] = true
		cb.NewFingerprints++
	}
	var sb *BucketCoverage
	if sh := qgen.ShapeOf(st); sh != "" {
		sb = c.shapeBucket(sh)
		sb.Divergent++
		if isNew {
			sb.NewFingerprints++
		}
	}
	bb := c.bindBucket(qgen.BindModeOf(st))
	bb.Divergent++
	if isNew {
		bb.NewFingerprints++
	}
	return isNew
}

// GeneratedFingerprints is the number of distinct statement
// fingerprints generated — the stream's exploration breadth.
func (c *Coverage) GeneratedFingerprints() int { return len(c.genFPs) }

// DivergenceFingerprints is the number of distinct divergence
// fingerprints observed.
func (c *Coverage) DivergenceFingerprints() int { return len(c.divFPs) }

// Merge folds another coverage into this one (used to aggregate
// per-stream coverages into the run-level signal). Fingerprint sets
// union; newness in the merged view is recomputed against the union, so
// a fingerprint two streams both discovered counts once.
func (c *Coverage) Merge(o *Coverage) {
	c.Statements += o.Statements
	// NewFingerprints sums rather than recounting against the union: a
	// fingerprint found independently by two streams counts in both
	// buckets' yield — it rewarded both streams' feedback.
	for cl, ob := range o.ByClass {
		b := c.classBucket(cl)
		b.Hits += ob.Hits
		b.Divergent += ob.Divergent
		b.NewFingerprints += ob.NewFingerprints
	}
	for sh, ob := range o.ByShape {
		b := c.shapeBucket(sh)
		b.Hits += ob.Hits
		b.Divergent += ob.Divergent
		b.NewFingerprints += ob.NewFingerprints
	}
	for bm, ob := range o.ByBind {
		b := c.bindBucket(bm)
		b.Hits += ob.Hits
		b.Divergent += ob.Divergent
		b.NewFingerprints += ob.NewFingerprints
	}
	for src, ob := range o.ByOracle {
		b := c.oracleBucket(src)
		b.Hits += ob.Hits
		b.Divergent += ob.Divergent
		b.NewFingerprints += ob.NewFingerprints
	}
	for ec, n := range o.Errors {
		c.Errors[ec] += n
	}
	for fp := range o.genFPs {
		c.genFPs[fp] = true
	}
	for k := range o.genFPClass {
		if !c.genFPClass[k] {
			c.genFPClass[k] = true
			cl, _, _ := strings.Cut(k, "\x00")
			c.classBucket(qgen.Class(cl)).Fingerprints++
		}
	}
	for k := range o.genFPShape {
		if !c.genFPShape[k] {
			c.genFPShape[k] = true
			sh, _, _ := strings.Cut(k, "\x00")
			c.shapeBucket(qgen.Shape(sh)).Fingerprints++
		}
	}
	for k := range o.genFPBind {
		if !c.genFPBind[k] {
			c.genFPBind[k] = true
			bm, _, _ := strings.Cut(k, "\x00")
			c.bindBucket(qgen.BindMode(bm)).Fingerprints++
		}
	}
	for k := range o.genFPOracle {
		if !c.genFPOracle[k] {
			c.genFPOracle[k] = true
			src, _, _ := strings.Cut(k, "\x00")
			c.oracleBucket(src).Fingerprints++
		}
	}
	for fp := range o.divFPs {
		c.divFPs[fp] = true
	}
}

// Render prints the coverage summary: one row per statement class and
// SELECT shape (hits, breadth, divergence yield) plus the oracle
// error-class histogram.
func (c *Coverage) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "coverage: %d statements, %d generated fingerprints, %d divergence fingerprints\n",
		c.Statements, c.GeneratedFingerprints(), c.DivergenceFingerprints())
	b.WriteString("  class      hits    gen-fps  divergent  new-div-fps\n")
	row := func(name string, bc *BucketCoverage) {
		fmt.Fprintf(&b, "  %-9s %6d   %6d     %6d       %6d\n",
			name, bc.Hits, bc.Fingerprints, bc.Divergent, bc.NewFingerprints)
	}
	for _, cl := range qgen.Classes {
		if bc, ok := c.ByClass[cl]; ok {
			row(string(cl), bc)
		}
	}
	for _, sh := range qgen.Shapes {
		if bc, ok := c.ByShape[sh]; ok {
			row("q:"+string(sh), bc)
		}
	}
	for _, bm := range qgen.BindModes {
		if bc, ok := c.ByBind[bm]; ok {
			row("b:"+string(bm), bc)
		}
	}
	for _, o := range metamorph.Oracles {
		if bc, ok := c.ByOracle[string(o)]; ok {
			row("o:"+string(o), bc)
		}
	}
	if len(c.Errors) > 0 {
		var keys []string
		for ec := range c.Errors {
			keys = append(keys, string(ec))
		}
		sort.Strings(keys)
		b.WriteString("  oracle error classes:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, c.Errors[core.ErrClass(k)])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Feedback is the adaptive controller closing the loop from observed
// coverage back into the generator: between batches, Retarget computes
// a new qgen.Weights plane from the stream's cumulative coverage so the
// remaining statement budget flows toward under-explored, high-yield
// regions.
//
// The policy is proportional allocation over a per-bucket score
//
//	score = (1 + yieldBoost*NewFingerprints) / (1 + Hits)
//
// — a bucket that keeps producing *new* divergence fingerprints keeps
// its budget; a bucket that has been hammered without new yield decays;
// a bucket barely explored scores high on the 1/(1+Hits) term alone.
// Every bucket keeps a floor share of the base weight so coverage of a
// temporarily dry region can recover (and structural classes like txn
// keep exercising the rollback machinery). All arithmetic is
// deterministic, so an adaptive single-stream run remains exactly
// reproducible from its seed.
type Feedback struct {
	base qgen.Weights
	// YieldBoost scales the reward of a new divergence fingerprint
	// relative to one unexplored hit (default 50).
	YieldBoost int
}

// NewFeedback returns a controller anchored at the generator's starting
// weights.
func NewFeedback(base qgen.Weights) *Feedback {
	return &Feedback{base: base, YieldBoost: 50}
}

// Retarget computes the next Weights plane from cumulative coverage.
func (f *Feedback) Retarget(cov *Coverage) qgen.Weights {
	w := f.base
	retargetPlane(f.YieldBoost, qgen.Classes,
		f.base.ClassWeight, w.SetClassWeight,
		func(c qgen.Class) *BucketCoverage { return cov.ByClass[c] })
	retargetPlane(f.YieldBoost, qgen.Shapes,
		f.base.ShapeWeight, w.SetShapeWeight,
		func(s qgen.Shape) *BucketCoverage { return cov.ByShape[s] })
	retargetPlane(f.YieldBoost, qgen.BindModes,
		f.base.BindWeight, w.SetBindWeight,
		func(m qgen.BindMode) *BucketCoverage { return cov.ByBind[m] })
	return w
}

// retargetPlane applies the scoring/floor/redistribution policy to one
// weight plane (statement classes or SELECT shapes): the base mass is
// redistributed proportionally to each bucket's score, above a floor of
// a quarter of its base weight (min 1). Zero-base buckets — features
// the profile disabled — stay at zero.
func retargetPlane[K comparable](boost int, buckets []K, baseOf func(K) int, set func(K, int), covOf func(K) *BucketCoverage) {
	mass := 0
	scores := make([]float64, len(buckets))
	var total float64
	for i, k := range buckets {
		base := baseOf(k)
		mass += base
		if base == 0 {
			continue
		}
		b := covOf(k)
		if b == nil {
			b = &BucketCoverage{}
		}
		scores[i] = float64(1+boost*b.NewFingerprints) / float64(1+b.Hits)
		total += scores[i]
	}
	if total == 0 || mass == 0 {
		return
	}
	for i, k := range buckets {
		base := baseOf(k)
		if base == 0 {
			continue
		}
		floor := base / 4
		if floor < 1 {
			floor = 1
		}
		set(k, floor+int(float64(mass)*scores[i]/total))
	}
}
