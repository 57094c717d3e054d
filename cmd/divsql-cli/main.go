// Command divsql-cli is an interactive client for divsqld. It reads one
// SQL statement per line and prints results as aligned text.
//
// Usage:
//
//	divsql-cli -connect 127.0.0.1:5433
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"divsql/internal/wire"
)

func main() {
	connect := flag.String("connect", "127.0.0.1:5433", "divsqld address")
	flag.Parse()
	if err := run(*connect); err != nil {
		fmt.Fprintln(os.Stderr, "divsql-cli:", err)
		os.Exit(1)
	}
}

func run(addr string) error {
	mux, err := wire.DialMux(addr)
	if err != nil {
		return err
	}
	defer mux.Close()
	client, err := mux.Session()
	if err != nil {
		return err
	}
	fmt.Printf("connected to %s; one statement per line; \\metrics for server metrics; \\shards for shard layout; \\q to quit\n", addr)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("divsql> ")
		if !sc.Scan() {
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "quit" || line == "exit":
			return nil
		case line == `\metrics`:
			// Scrape the server's metrics registry over the METRICS
			// frame (requires divsqld started with -metrics).
			doc, err := mux.Metrics()
			if err != nil {
				fmt.Println("ERROR:", err)
				continue
			}
			fmt.Print(doc)
			continue
		case line == `\shards`:
			// Shard layout over the SHARDS frame: per-shard statement
			// counts, replica rosters and quarantine state (requires
			// divsqld started with -shards > 1).
			doc, err := mux.Shards()
			if err != nil {
				fmt.Println("ERROR:", err)
				continue
			}
			fmt.Print(doc)
			continue
		}
		res, err := client.Exec(strings.TrimSuffix(line, ";"))
		if err != nil {
			fmt.Println("ERROR:", err)
			continue
		}
		if len(res.Columns) > 0 {
			fmt.Println(strings.Join(res.Columns, " | "))
			for _, row := range res.Rows {
				cells := make([]string, len(row))
				for i, v := range row {
					cells[i] = v.String()
				}
				fmt.Println(strings.Join(cells, " | "))
			}
			fmt.Printf("(%d rows, %v)\n", len(res.Rows), res.Latency)
		} else {
			fmt.Printf("OK (%v)\n", res.Latency)
		}
	}
}
