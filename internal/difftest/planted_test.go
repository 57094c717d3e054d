package difftest

import (
	"strings"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/metamorph"
	"divsql/internal/server"
	"divsql/internal/study"
)

// The planted-bug sensitivity tests demonstrate the paper's correlated-
// failure blind spot and the metamorphic oracles' answer to it: a
// defect planted in the shared engine (test-only hooks in
// internal/engine/planted.go) produces the same wrong answer on all
// four servers AND the pristine oracle, so pairwise differential
// adjudication sees perfect agreement — yet a self-check oracle, which
// re-derives the answer from rewrites of the same statement on the same
// endpoint, convicts it. Each test first proves the blindness (every
// server-vs-oracle pair classifies as no-failure) and then the
// sensitivity (the named oracles find it).

// plantedStream is the shared fixture: an indexed table with a NULL row
// so both range-scan and three-valued-logic defects have something to
// bite on.
var plantedStream = []string{
	"CREATE TABLE TPLANT (C1 INT PRIMARY KEY, C2 INT)",
	"CREATE INDEX IPLANT ON TPLANT (C2)",
	"INSERT INTO TPLANT (C1, C2) VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, NULL)",
}

// runPlanted executes the fixture plus the probe statement on every
// server and the oracle, asserts the differential vote is blind (all
// pairs no-failure), and returns every oracle's findings on the oracle
// endpoint's base result.
func runPlanted(t *testing.T, fixture []string, probe string) []metamorph.Finding {
	t.Helper()
	stream := append(append([]string(nil), fixture...), probe)

	orc := server.NewOracle()
	oOut := study.RunSource(orc, stream)
	last := len(stream) - 1
	if oOut[last].Err != nil {
		t.Fatalf("probe failed on oracle: %v", oOut[last].Err)
	}
	for _, name := range dialect.AllServers {
		srv, err := server.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		sOut := study.RunSource(srv, stream)
		for i := range stream {
			if cls := study.ClassifyStmt(sOut[i], oOut[i]); cls.IsFailure() {
				t.Fatalf("differential adjudication saw the planted defect on %s stmt %d (%s): %s — the blind spot demonstration is void",
					name, i, stream[i], cls.Detail)
			}
		}
	}

	// The differential vote saw nothing. Now the self-checks, against the
	// same oracle endpoint that just agreed with everyone, on a session
	// whose last statement is the probe (Plan's verdict names its plan).
	sess := orc.NewSession()
	defer sess.Close()
	res, _, err := sess.Run(oOut[last].P, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, findings := metamorph.Check(sess, oOut[last].P, nil, res, metamorph.Oracles)
	return findings
}

func foundBy(findings []metamorph.Finding, o metamorph.Oracle) bool {
	for _, f := range findings {
		if f.Oracle == o {
			return true
		}
	}
	return false
}

// TestPlantedRangeBoundDefect plants the inclusive-upper-bound
// off-by-one in the index range scan (the compiled access path treats
// `<=` as `<`). Every endpoint shares the defective scan, so the
// differential vote is unanimous-and-wrong; Plan's forced full scan,
// NoREC's forced full-scan re-evaluation and CERT's full-scan
// cardinality restriction all convict it.
func TestPlantedRangeBoundDefect(t *testing.T) {
	engine.PlantRangeBoundDefect(true)
	defer engine.PlantRangeBoundDefect(false)

	findings := runPlanted(t, plantedStream, "SELECT C1 AS X1 FROM TPLANT WHERE C1 <= 3")
	if !foundBy(findings, metamorph.Plan) {
		t.Errorf("Plan did not catch the planted range-bound defect; findings: %v", findings)
	}
	if !foundBy(findings, metamorph.NoREC) {
		t.Errorf("NoREC did not catch the planted range-bound defect; findings: %v", findings)
	}
	if !foundBy(findings, metamorph.CERT) {
		t.Errorf("CERT did not catch the planted range-bound defect; findings: %v", findings)
	}
}

// TestPlantedNotNullDefect plants the three-valued-logic defect (NOT of
// UNKNOWN wrongly evaluates TRUE). Again every endpoint shares it, so
// the differential vote is blind; TLP convicts it because the NOT-
// partition and the IS NULL-partition both claim the NULL rows, so the
// partition union no longer reassembles the unfiltered result.
func TestPlantedNotNullDefect(t *testing.T) {
	engine.PlantNotNullDefect(true)
	defer engine.PlantNotNullDefect(false)

	findings := runPlanted(t, plantedStream, "SELECT C1 AS X1 FROM TPLANT WHERE (C2 > 15)")
	if !foundBy(findings, metamorph.TLP) {
		t.Errorf("TLP did not catch the planted NOT-NULL defect; findings: %v", findings)
	}
}

// joinStream is the hash-join defect's fixture: the right input's NULL
// key sits before a row the left side matches.
var joinStream = []string{
	"CREATE TABLE JL (K INT, V INT)",
	"CREATE TABLE JR (K INT, W INT)",
	"INSERT INTO JL (K, V) VALUES (1, 10), (2, 20), (NULL, 30)",
	"INSERT INTO JR (K, W) VALUES (1, 100), (NULL, 200), (2, 300)",
}

// joinProbe has no WHERE: TLP, NoREC and CERT have nothing to partition,
// recount or restrict, so the join is theirs to miss.
const joinProbe = "SELECT JL.V AS X1, JR.W AS X2 FROM JL INNER JOIN JR ON JL.K = JR.K"

// TestPlantedHashJoinNullKeyDefect plants the hash join's truncated
// build (a NULL key on the right input ends it, so the rows after it
// match nothing). The join still answers, plausibly and identically on
// all five endpoints; TLP, NoREC and CERT have no WHERE to work on, so
// only Plan — running the same statement again with every narrowing
// rule skipped, which since the join has an algorithm compares hash
// join against nested loop — sees the missing row, and its verdict
// names the plan it contradicts.
func TestPlantedHashJoinNullKeyDefect(t *testing.T) {
	engine.PlantHashJoinNullKeyDefect(true)
	defer engine.PlantHashJoinNullKeyDefect(false)

	findings := runPlanted(t, joinStream, joinProbe)
	if len(findings) != 1 || findings[0].Oracle != metamorph.Plan {
		t.Fatalf("want Plan alone to convict the planted hash-join defect; findings: %v", findings)
	}
	if !strings.Contains(findings[0].Detail, "joins hash") {
		t.Errorf("verdict does not name the join's algorithm: %s", findings[0].Detail)
	}
}

// TestPlantedDefectsOffAreClean guards the hooks themselves: with every
// defect disarmed the same probes must pass every oracle, so the
// sensitivity tests above prove detection of the defect, not a standing
// false positive in the oracles.
func TestPlantedDefectsOffAreClean(t *testing.T) {
	for _, tc := range []struct {
		fixture []string
		probe   string
	}{
		{plantedStream, "SELECT C1 AS X1 FROM TPLANT WHERE C1 <= 3"},
		{plantedStream, "SELECT C1 AS X1 FROM TPLANT WHERE (C2 > 15)"},
		{joinStream, joinProbe},
	} {
		if findings := runPlanted(t, tc.fixture, tc.probe); len(findings) > 0 {
			t.Errorf("oracles convicted a clean engine on %q: %v", tc.probe, findings)
		}
	}
}
