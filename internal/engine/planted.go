package engine

import "sync/atomic"

// Planted defects are deliberate, process-global, test-only engine bugs:
// the "oracle of the oracle" sensitivity probes for the metamorphic
// self-check suite (internal/metamorph). Because every simulated server
// and the pristine oracle share this engine, a planted defect corrupts
// all five endpoints identically — exactly the correlated-failure blind
// spot the paper warns differential testing about — so a 5-way vote sees
// nothing while a single-endpoint metamorphic relation must still flag
// it. Nothing outside tests may arm these.
var (
	// plantedRangeBoundDefect makes the compiled RangeScan access path
	// treat an inclusive upper bound as exclusive (an off-by-one), so an
	// index-served range silently drops its boundary row. The full-scan
	// path is untouched: NoREC's forced-full-scan recount and CERT's
	// full-scan restriction probe both see the missing row.
	plantedRangeBoundDefect atomic.Bool
	// plantedNotNullDefect makes unary NOT of a NULL operand evaluate to
	// TRUE instead of UNKNOWN, breaking three-valued logic. TLP's NOT(p)
	// partition then double-counts every row on which p is UNKNOWN.
	plantedNotNullDefect atomic.Bool
	// plantedHashJoinNullKeyDefect makes the hash join's build stop at the
	// first NULL key of its right input — candidateRows' "a NULL key
	// proves the visit empty" rule, wrongly carried over to a join input —
	// so the right rows after it match nothing. The nested loop is
	// untouched: only a second execution under ForceFullScan of the same
	// join (the metamorph.Plan oracle) sees the missing rows.
	plantedHashJoinNullKeyDefect atomic.Bool
)

// PlantRangeBoundDefect arms or disarms the RangeScan inclusive-upper
// off-by-one. Test-only.
func PlantRangeBoundDefect(on bool) { plantedRangeBoundDefect.Store(on) }

// PlantNotNullDefect arms or disarms the NOT-of-NULL three-valued-logic
// defect. Test-only.
func PlantNotNullDefect(on bool) { plantedNotNullDefect.Store(on) }

// PlantHashJoinNullKeyDefect arms or disarms the hash join's truncated
// build. Test-only.
func PlantHashJoinNullKeyDefect(on bool) { plantedHashJoinNullKeyDefect.Store(on) }

// PlantPanic arms or disarms a panic at the start of this engine's SELECT
// and DML executions, raised with the engine's locks and table latches
// held — the "bug in one replica's engine" that the layers above must
// contain as a crash of that replica alone. Per engine, unlike the
// defects above: the point is that its siblings keep running. Test-only.
func (e *Engine) PlantPanic(on bool) { e.plantedPanic.Store(on) }

func (e *Engine) checkPlantedPanic() {
	if e.plantedPanic.Load() {
		panic("engine: planted panic")
	}
}
