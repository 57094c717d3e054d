package wire

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"divsql/internal/obs"
	"divsql/internal/sql/types"
)

func TestMetricsFrameDisabledByDefault(t *testing.T) {
	addr, _ := startServer(t)
	c := dialSession(t, addr)
	if _, err := c.mux.Metrics(); err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Fatalf("want 'metrics not enabled' error, got %v", err)
	}
	// The connection survives the error response.
	if _, err := c.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatalf("exec after METRICS error: %v", err)
	}
}

func TestMetricsFrameAndWireCollector(t *testing.T) {
	addr, ws := startServer(t)
	reg := obs.NewRegistry()
	reg.Register(ws.MetricsCollector())
	ws.ServeMetrics(reg)

	c := dialSession(t, addr)

	if _, err := c.Exec("CREATE TABLE T (A INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare("INSERT INTO T VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Exec(types.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT A FROM T WHERE A = 1"); err != nil {
		t.Fatal(err)
	}

	// A request is counted after its response is written (the latency
	// window is read-to-write), by the session's worker; METRICS is
	// answered by the connection's reader. The last EXEC may therefore
	// still be uncounted when the first scrape renders: scrape until it
	// shows.
	var doc string
	scrapes := 0
	for scrapes < 200 {
		if doc, err = c.mux.Metrics(); err != nil {
			t.Fatal(err)
		}
		scrapes++
		if strings.Contains(doc, `divsql_wire_requests_total{frame="EXEC"} 2`) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, want := range []string{
		`divsql_wire_requests_total{frame="EXEC"} 2`,
		`divsql_wire_requests_total{frame="PREPARE"} 1`,
		`divsql_wire_requests_total{frame="BIND"} 3`,
		`divsql_wire_requests_total{frame="CLOSE"} 1`,
		`divsql_wire_request_duration_seconds_bucket{frame="EXEC",le="+Inf"} 2`,
		"divsql_wire_open_connections 1",
		"divsql_wire_connections_total 1",
		"divsql_wire_bytes_in_total",
		"divsql_wire_bytes_out_total",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("METRICS document missing %q\n%s", want, doc)
		}
	}
	// Bytes must have moved in both directions by now.
	if ws.metrics.bytesIn.Value() == 0 || ws.metrics.bytesOut.Value() == 0 {
		t.Errorf("byte counters not moving: in=%d out=%d",
			ws.metrics.bytesIn.Value(), ws.metrics.bytesOut.Value())
	}
	// A further METRICS call sees the earlier ones counted (the reader
	// counts each before it reads the next frame).
	doc2, err := c.mux.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc2, fmt.Sprintf(`divsql_wire_requests_total{frame="METRICS"} %d`, scrapes)) {
		t.Errorf("METRICS document after %d scrapes does not count them\n%s", scrapes, doc2)
	}
}
