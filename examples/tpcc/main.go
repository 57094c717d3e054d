// TPC-C example: the paper's statistical-testing campaign (Section 7).
// The same deterministic transaction mix drives three configurations —
// a single server, a non-diverse replicated pair, and a diverse triple —
// and reports throughput-relevant statement counts, failures and the
// workload's consistency invariants.
package main

import (
	"flag"
	"fmt"
	"log"

	"divsql"
	"divsql/internal/core"
	"divsql/internal/tpcc"
)

func main() {
	txns := flag.Int("txns", 2000, "transactions per configuration")
	flag.Parse()
	if err := run(*txns); err != nil {
		log.Fatal(err)
	}
}

func run(txns int) error {
	configs := []struct {
		name string
		open func() (divsql.DB, error)
	}{
		{"single OR-sim", func() (divsql.DB, error) { return divsql.Open(divsql.OR) }},
		{"non-diverse PG-sim x2", func() (divsql.DB, error) { return divsql.OpenReplicated(divsql.PG, 2) }},
		{"diverse PG+OR+MS", func() (divsql.DB, error) { return divsql.OpenDiverse(divsql.PG, divsql.OR, divsql.MS) }},
	}
	for _, c := range configs {
		db, err := c.open()
		if err != nil {
			return err
		}
		ep, ok := divsql.Executor(db)
		if !ok {
			return fmt.Errorf("%s: no executor", c.name)
		}
		sess := ep.OpenSession()
		err = runOne(c.name, sess, txns)
		_ = sess.Close()
		if err != nil {
			return err
		}
		if m, ok := divsql.Metrics(db); ok {
			fmt.Printf("  middleware: replica-errors=%d rephrase-recovered=%d masked=%d detected-splits=%d resyncs=%d\n",
				m.ReplicaErrors, m.RephraseRecovered, m.MaskedFailures, m.DetectedSplits, m.Resyncs)
		}
		db.Close()
		fmt.Println()
	}
	return nil
}

func runOne(name string, exec core.Executor, txns int) error {
	cfg := tpcc.DefaultConfig()
	if err := tpcc.Setup(exec, cfg); err != nil {
		return fmt.Errorf("%s setup: %w", name, err)
	}
	driver := tpcc.NewDriver(cfg)
	m, err := driver.Run(exec, txns)
	if err != nil {
		return fmt.Errorf("%s run: %w", name, err)
	}
	consistency := "OK"
	if err := tpcc.CheckConsistency(exec); err != nil {
		consistency = err.Error()
	}
	fmt.Printf("%s:\n  %d transactions, %d statements, %d errors, simulated time %v\n  mix: %v\n  consistency: %s\n",
		name, m.Transactions, m.Statements, m.Errors, m.SimLatency, m.PerType, consistency)
	return nil
}
