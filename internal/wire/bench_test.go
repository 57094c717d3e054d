package wire

import (
	"bytes"
	"strconv"
	"sync"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/server"
	"divsql/internal/sql/types"
)

// benchWireSession is one Mux session on a PG server holding an empty
// table W.
func benchWireSession(tb testing.TB) *Session {
	tb.Helper()
	srv, err := server.New(dialect.PG, nil)
	if err != nil {
		tb.Fatal(err)
	}
	ws := NewServer(srv)
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = ws.Close() })
	c := dialSession(tb, addr)
	if _, err := c.Exec("CREATE TABLE W (A INT)"); err != nil {
		tb.Fatal(err)
	}
	return c
}

func BenchmarkWireRoundTrip(b *testing.B) {
	c := benchWireSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec("INSERT INTO W VALUES (1)"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchArgs and benchResult are a point read's two sides: a BIND of an
// integer key and a string, and a one-row answer of mixed cells.
var (
	benchArgs   = []types.Value{types.NewInt(123456), types.NewString("some customer name")}
	benchResult = &engine.Result{
		Kind:    engine.ResultRows,
		Columns: []string{"C_ID", "C_LAST", "C_BALANCE", "C_SINCE"},
		Rows: [][]types.Value{{
			types.NewInt(123456), types.NewString("BARBARBAR"), types.NewFloat(-10.5), types.NewDate("2026-01-02"),
		}},
	}
	benchSink int
)

// BenchmarkWireCodec times the codec alone, no socket: what one request
// costs to encode, and one response to encode and to decode.
func BenchmarkWireCodec(b *testing.B) {
	b.Run("EncodeBind", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendBind(buf[:0], uint64(i+1), 1, "m1_1", benchArgs)
		}
		benchSink = len(buf)
	})
	b.Run("EncodeResult", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendResult(append(buf[:0], "@7 "...), benchResult, stubLatency, nil)
		}
		benchSink = len(buf)
	})
	b.Run("DecodeResult", func(b *testing.B) {
		b.ReportAllocs()
		wire := appendResult([]byte("@7 "), benchResult, stubLatency, nil)
		src := bytes.NewReader(wire)
		rd := newLineReader(src, 0)
		for i := 0; i < b.N; i++ {
			src.Reset(wire)
			rd.rd.Reset(src)
			resp, err := readResponse(rd)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = len(resp.res.Rows)
		}
	})
}

// BenchmarkMuxPointRead is the stack benchmark's pointread with the
// layers below the wire replaced by a stub: closed-loop sessions sharing
// one Mux connection, each executing a prepared one-row read.
func BenchmarkMuxPointRead(b *testing.B) {
	for _, sessions := range []int{1, 2, 8} {
		b.Run(strconv.Itoa(sessions)+"sessions", func(b *testing.B) {
			first := muxPointRead(b)
			stmts := []*MuxStmt{first}
			for len(stmts) < sessions {
				s, err := first.s.mux.Session()
				if err != nil {
					b.Fatal(err)
				}
				st, err := s.Prepare(first.sql)
				if err != nil {
					b.Fatal(err)
				}
				stmts = append(stmts, st)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w, st := range stmts {
				n := b.N / sessions
				if w < b.N%sessions {
					n++
				}
				wg.Add(1)
				go func(st *MuxStmt, n int) {
					defer wg.Done()
					arg := types.NewInt(42)
					for i := 0; i < n; i++ {
						if _, err := st.Exec(arg); err != nil {
							b.Error(err)
							return
						}
					}
				}(st, n)
			}
			wg.Wait()
		})
	}
}
