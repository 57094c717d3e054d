package wire

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// FuzzReadResponse feeds arbitrary bytes to the client decoder: it must
// not panic, and what it allocates is bounded by the input — a head
// claiming a billion rows reserves a constant, never its claim.
func FuzzReadResponse(f *testing.F) {
	for _, name := range []string{"server", "mux"} {
		seeds := goldenSeeds(f, name, "S ")
		for _, s := range seeds {
			f.Add([]byte(s))
			if name == "server" && !strings.HasPrefix(s, "@") {
				// The Mux reads every response tagged.
				f.Add([]byte("@1 " + s))
			}
		}
		f.Add([]byte(strings.Join(seeds, "")))
	}
	f.Add([]byte("OK 1000000000 1000000000 0 0\nA\n"))
	f.Add([]byte("@18446744073709551615 OK 1 1 0\n\n\\N\t\t\n.\n"))
	// Sized documents: empty, multi-line, short of their size, lying
	// about it, and malformed.
	f.Add([]byte("@1 MET 0\n.\n"))
	f.Add([]byte("@2 MET 12\n# TYPE x\nx 1.\n@3 SHARDS 11\n2 shard(s)\n.\n"))
	f.Add([]byte("@4 SHARDS 30\n2 shard(s)\n.\n"))
	f.Add([]byte("@5 MET 99999999999\n# HELP divsql_wire_requests_total\n"))
	f.Add([]byte("@6 MET -1\n.\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := newLineReader(bytes.NewReader(data), 0)
		cells := 0
		for {
			resp, err := readResponse(rd)
			if err != nil {
				break
			}
			if resp.res != nil {
				for _, row := range resp.res.Rows {
					cells += len(row)
				}
			}
		}
		runtime.ReadMemStats(&after)
		if cells > len(data) {
			t.Fatalf("%d cells decoded from %d bytes", cells, len(data))
		}
		// A cell costs its 48-byte Value, a row its slice header and one
		// copy of its text; the constant covers the reader's buffer and
		// the preallocation caps.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 512<<10+128*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
	})
}

// serveOnPipe runs one server connection over an in-memory pipe and
// returns the client end and a channel closed when the server side has
// torn the connection down.
func serveOnPipe(ws *Server) (net.Conn, <-chan struct{}) {
	client, server := net.Pipe()
	done := make(chan struct{})
	ws.wg.Add(1)
	go func() {
		ws.serveConn(server)
		close(done)
	}()
	return client, done
}

// FuzzServerFrames feeds arbitrary bytes to a live server connection
// (the stub executor panics on one statement, so panic containment is in
// reach of the fuzzer): the server must not crash or hang, must tear the
// connection down when the peer leaves, and must serve the next one.
func FuzzServerFrames(f *testing.F) {
	seeds := goldenSeeds(f, "server", "C ")
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(strings.Join(seeds, "")))
	f.Add([]byte(strings.Join(goldenSeeds(f, "mux", "C "), "")))
	f.Add([]byte("EXEC PANIC\n#0 EXEC PANIC\nPING\n"))
	f.Add([]byte("BATCH 99999999\n")) // a retired verb, answered as unknown
	f.Add([]byte("SESSION\n#1 PREPARE a SELECT ?\n@1 #1 BIND a S:\\\n@2 #1 BIND a \tI:\nDETACH 1\n"))
	f.Add([]byte("@1 METRICS\n@2 SHARDS\nSESSION\n@3 #1 METRICS\n@4 #1 EXEC INSERT\n"))
	f.Add([]byte(strings.Repeat("@1 EXEC INSERT\n", 100)))
	ws := NewServer(stubExec{})
	f.Cleanup(func() { _ = ws.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		conn, done := serveOnPipe(ws)
		go func(c net.Conn) { _, _ = io.Copy(io.Discard, c) }(conn)
		_ = conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		// A pipe write returns once the server has read it, or has hung
		// up (QUIT, a rejected frame).
		_, _ = conn.Write(data)
		_ = conn.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("server did not tear the connection down")
		}

		conn, done = serveOnPipe(ws)
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		go func(c net.Conn) { _, _ = io.WriteString(c, "PING\n") }(conn)
		pong := make([]byte, len("OK 0 0 0 0\n.\n"))
		if _, err := io.ReadFull(conn, pong); err != nil || string(pong) != "OK 0 0 0 0\n.\n" {
			t.Fatalf("PING on a new connection: %q %v", pong, err)
		}
		_ = conn.Close()
		<-done
	})
}
