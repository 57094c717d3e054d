// Diverse-cluster example: serve a diverse fault-tolerant server over
// TCP with the wire protocol, drive it through a network client, and
// demonstrate the contrast the paper draws in Section 2.1:
//
//   - the non-diverse crash-only baseline silently returns an incorrect
//     result produced by a shared fault;
//   - the diverse configuration detects the same situation.
//
// The demonstration uses bug PG-77's failure region (floating-point
// multiplication precision): PG-sim and MS-sim share the fault, OR-sim
// does not.
package main

import (
	"fmt"
	"log"

	"divsql"
	"divsql/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A diverse pair whose members do NOT share the arithmetic fault.
	diverse, err := divsql.OpenDiverse(divsql.PG, divsql.OR)
	if err != nil {
		return err
	}
	exec, _ := divsql.Executor(diverse)
	srv := wire.NewServer(exec)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Println("diverse pair (PG+OR) serving on", addr)

	mux, err := wire.DialMux(addr)
	if err != nil {
		return err
	}
	defer mux.Close()
	client, err := mux.Session()
	if err != nil {
		return err
	}

	setup := []string{
		"CREATE TABLE RATES (N FLOAT)",
		"INSERT INTO RATES VALUES (1.00000007)",
	}
	for _, s := range setup {
		if _, err := client.Exec(s); err != nil {
			return err
		}
	}

	// This query is in the shared failure region of PG-sim and MS-sim
	// (bug 77): PG-sim computes it wrongly, OR-sim correctly. The
	// diverse pair DETECTS the divergence instead of returning bad data.
	const q = "SELECT N * 16777216.0 AS PRECISE FROM RATES"
	_, err = client.Exec(q)
	fmt.Printf("diverse pair on the faulty query -> %v\n", err)

	// The same workload against a replicated pair of identical PG-sims:
	// both replicas compute the same wrong answer; under the fail-stop
	// assumption nothing is detected and the client gets bad data.
	baseline, err := divsql.OpenReplicated(divsql.PG, 2)
	if err != nil {
		return err
	}
	for _, s := range setup {
		if _, err := baseline.Exec(s); err != nil {
			return err
		}
	}
	res, err := baseline.Exec(q)
	if err != nil {
		return err
	}
	fmt.Printf("non-diverse PG x2 on the same query -> silently returns %v (correct value is 16777217.17...)\n",
		res.Rows[0][0])
	return nil
}
