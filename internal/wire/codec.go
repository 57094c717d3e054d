// Package wire implements a small line-oriented TCP protocol through
// which any endpoint (core.SessionExecutor) — a single simulated server,
// a non-diverse replication group, the diverse middleware, the shard
// router — can serve network clients. This is the "middleware for data
// replication with diverse SQL servers" deployment shape the paper's
// conclusions call for.
//
// A client opens sessions over one connection, each its own session of
// the endpoint: transactions are scoped to the session, concurrent
// sessions execute in parallel, and a dropped connection rolls back only
// its own sessions' open transactions.
//
// Protocol (text, one request per line):
//
//	C: EXEC <sql>\n            (the SQL must not contain newlines)
//	S: OK <ncols> <nrows> <latency_us> <affected>\n
//	   <tab-separated column names>\n     (only when ncols > 0)
//	   <tab-separated row values>\n x nrows
//	   .\n
//	or
//	S: ERR <message>\n
//
// The fourth OK field is the statement's affected-row count
// (INSERT/UPDATE/DELETE). Older clients parse the first three fields
// and ignore the rest; the current client tolerates three-field heads
// from older servers.
//
// Prepared statements (per session, so statement scope = transaction
// scope, as on a real server):
//
//	C: PREPARE <name> <sql>\n  (sql may contain ? or $n placeholders)
//	S: STMT <name> <nparams>\n  or  ERR <message>\n
//
//	C: BIND <name> <arg>\t<arg>...\n   (typed args, see below; none for
//	                                    a zero-parameter statement)
//	S: same responses as EXEC (the statement executes server-side with
//	   the arguments bound — there is no client-side interpolation)
//
//	C: CLOSE <name>\n
//	S: OK 0 0 0 0\n.\n
//
// # Tagged frames and pipelining
//
// Any request line may carry a tag prefix "@<tag> "; the first line of
// its response is then prefixed "@<tag> " verbatim. Tags let a client
// send many requests without waiting (pipelining) and match responses
// that complete out of order.
//
//	C: @1 EXEC <sql>\n
//	C: @2 EXEC <sql>\n ...
//	S: @1 OK ...\n...\n.\n @2 OK ...   (per-session order; tags identify)
//
// # Session multiplexing
//
// Every connection starts with one session, its root (sid 0), which
// serves unprefixed frames — a connection is one session to a peer that
// never asks for more, such as a human with nc. A client opens further
// sessions over the same TCP connection and routes frames to them with
// a "#<sid> " prefix (after the tag, if any):
//
//	C: SESSION\n               S: SESS <sid>\n
//	C: #<sid> EXEC <sql>\n     S: the session's response
//	C: DETACH <sid>\n          S: OK 0 0 0 0\n.\n  (rolls back, releases)
//
// Each session executes its frames in order on its own worker, so
// sessions of one connection proceed concurrently — fewer TCP
// connections carry the same number of independent transaction scopes.
// Closing the connection closes every session it opened, rolling back
// exactly their open transactions.
//
// Introspection (armed with ServeMetrics / ServeShards):
//
//	C: METRICS\n
//	S: MET <nbytes>\n<nbytes bytes of Prometheus exposition>.\n
//	or ERR metrics not enabled\n
//
//	C: SHARDS\n
//	S: SHARDS <nbytes>\n<nbytes bytes of shard status text>.\n
//	or ERR not a sharded deployment\n
//
// BIND arguments use the types.Value kind-tagged encoding ("I:42",
// "F:1.5", "S:text", "B:1", "D:2026-01-01", "N" for NULL; payload tabs
// and newlines are backslash-escaped), tab-separated.
//
// NULL result cells are transmitted as the literal \N.
//
// # Limits and known losses
//
// A request line longer than 1 MiB is answered "ERR ..." and the
// connection is closed. A SESSION that would be the connection's
// 1 025th, or a PREPARE that would be its session's 4 097th live
// statement, is answered "ERR ..." and the connection carries on. The
// client reads a sized document by the bytes that arrive, whatever
// size its head announces.
//
// Result cells travel untyped: the client turns a cell that reads as a
// number into one, so the strings '007', 'Infinity' and '\N' come back
// as 7, +Inf and NULL. Tabs, CRs and LFs in cells and column names are
// flattened to spaces. BIND arguments are typed and lossless.
package wire

// This file is the protocol's codec, written once for the server and
// the Mux: append-style encoders into caller-owned buffers (one Write
// per request or response) and slice-based decoders over a line reader.
// Nothing here formats through fmt or splits into []string; the
// allocations left on a round trip are the values handed to the caller.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"divsql/internal/engine"
	"divsql/internal/sql/types"
)

// nullToken is the wire representation of SQL NULL.
const nullToken = `\N`

const (
	// maxRequestLine bounds one request line on the server; a peer that
	// never sends a newline cannot grow the heap past it.
	maxRequestLine = 1 << 20
	// maxConnSessions bounds one connection's sessions, the root
	// included: each costs a worker goroutine and a session on every
	// shard and replica behind the endpoint.
	maxConnSessions = 1024
	// maxSessionStmts bounds one session's live prepared statements.
	maxSessionStmts = 4096
	// maxRetainedLine is the largest long-line buffer a reader keeps
	// between lines.
	maxRetainedLine = 64 << 10
	// preallocCells and preallocRows cap what a response head's counts
	// may reserve before the rows arrive, so a lying head costs a
	// constant, not its claim.
	preallocCells = 1024
	preallocRows  = 1024
)

// ---------------------------------------------------------------------------
// Frames

// frameKind is a request line's verb, parsed once: it selects the
// handler and indexes the per-frame metrics.
type frameKind uint8

const (
	frameExec frameKind = iota
	framePrepare
	frameBind
	frameClose
	framePing
	frameMetrics
	frameQuit
	frameSession
	frameDetach
	frameShards
	frameOther // unrecognized
	numFrameKinds
)

// frameNames is the metrics label of each kind.
var frameNames = [numFrameKinds]string{
	"EXEC", "PREPARE", "BIND", "CLOSE", "PING", "METRICS", "QUIT",
	"SESSION", "DETACH", "SHARDS", "other",
}

// Request verbs as the Mux writes them: a verb that takes an argument
// carries its separating space.
const (
	verbExec    = "EXEC "
	verbPrepare = "PREPARE "
	verbBind    = "BIND "
	verbClose   = "CLOSE "
	verbDetach  = "DETACH "
	verbSession = "SESSION"
	verbMetrics = "METRICS"
	verbShards  = "SHARDS"
	verbQuit    = "QUIT"
)

// parseFrame classifies a request line (tag and session prefixes already
// stripped) and returns its argument. A verb that takes an argument needs
// the separating space, one that takes none must stand alone; anything
// else is frameOther.
func parseFrame(line string) (frameKind, string) {
	verb, arg, hasArg := strings.Cut(line, " ")
	if hasArg {
		switch verb {
		case "EXEC":
			return frameExec, arg
		case "PREPARE":
			return framePrepare, arg
		case "BIND":
			return frameBind, arg
		case "CLOSE":
			return frameClose, arg
		case "DETACH":
			return frameDetach, arg
		}
		return frameOther, line
	}
	switch verb {
	case "SESSION":
		return frameSession, ""
	case "PING":
		return framePing, ""
	case "METRICS":
		return frameMetrics, ""
	case "SHARDS":
		return frameShards, ""
	case "QUIT":
		return frameQuit, ""
	}
	return frameOther, line
}

// ---------------------------------------------------------------------------
// Lines

// errLineTooLong is readLine's error for a line over the reader's bound.
var errLineTooLong = errors.New("wire: line too long")

// lineReader reads newline-terminated lines without allocating: a line
// is a slice of the bufio buffer, or of a reused accumulation buffer
// when it is longer than that.
type lineReader struct {
	rd   *bufio.Reader
	long []byte // a line longer than rd's buffer accumulates here
	max  int    // longest line accepted; 0 = unbounded
}

func newLineReader(r io.Reader, max int) *lineReader {
	return &lineReader{rd: bufio.NewReader(r), max: max}
}

// readLine returns the next line without its terminator (LF, preceded by
// any CRs). The slice is valid until the next read.
func (r *lineReader) readLine() ([]byte, error) {
	line, err := r.rd.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		if cap(r.long) > maxRetainedLine {
			r.long = nil
		}
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.rd.ReadSlice('\n')
			r.long = append(r.long, line...)
			if r.max > 0 && len(r.long) > r.max {
				return nil, errLineTooLong
			}
		}
		line = r.long
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	for len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

// ---------------------------------------------------------------------------
// Requests (client side)

// appendPrefix appends a request's "@<tag> " and "#<sid> " prefixes; zero
// means none (tags start at 1, session 0 is the connection's own).
func appendPrefix(dst []byte, tag uint64, sid int) []byte {
	if tag != 0 {
		dst = append(dst, '@')
		dst = strconv.AppendUint(dst, tag, 10)
		dst = append(dst, ' ')
	}
	if sid != 0 {
		dst = append(dst, '#')
		dst = strconv.AppendInt(dst, int64(sid), 10)
		dst = append(dst, ' ')
	}
	return dst
}

// appendFlat appends s with its CRs and LFs — and, where tabs frame too,
// its tabs — replaced by spaces.
func appendFlat(dst []byte, s string, tabs bool) []byte {
	start := len(dst)
	dst = append(dst, s...)
	for i := start; i < len(dst); i++ {
		if c := dst[i]; c == '\n' || c == '\r' || (tabs && c == '\t') {
			dst[i] = ' '
		}
	}
	return dst
}

// appendRequest appends one request line: prefixes, verb, and the
// argument (SQL, a name) with CRs and LFs flattened to spaces.
func appendRequest(dst []byte, tag uint64, sid int, verb, arg string) []byte {
	dst = appendPrefix(dst, tag, sid)
	dst = append(dst, verb...)
	dst = appendFlat(dst, arg, false)
	return append(dst, '\n')
}

// appendBind appends one BIND line: the statement name and its typed
// arguments, tab-separated.
func appendBind(dst []byte, tag uint64, sid int, name string, args []types.Value) []byte {
	dst = appendPrefix(dst, tag, sid)
	dst = append(dst, verbBind...)
	dst = append(dst, name...)
	for i, v := range args {
		sep := byte('\t')
		if i == 0 {
			sep = ' '
		}
		dst = append(dst, sep)
		dst = v.AppendEncode(dst)
	}
	return append(dst, '\n')
}

// appendFrame appends one session request: a BIND with its typed
// arguments, any other verb with its argument.
func appendFrame(dst []byte, tag uint64, sid int, verb, arg string, args []types.Value) []byte {
	if verb == verbBind {
		return appendBind(dst, tag, sid, arg, args)
	}
	return appendRequest(dst, tag, sid, verb, arg)
}

// ---------------------------------------------------------------------------
// Responses (server side)

// appendTag starts a response with the request's tag, which carries its
// leading '@'.
func appendTag(dst []byte, tag string) []byte {
	if tag == "" {
		return dst
	}
	dst = append(dst, tag...)
	return append(dst, ' ')
}

// appendErr appends an "ERR <msg>" response; LFs in msg become spaces.
func appendErr(dst []byte, msg string) []byte {
	dst = append(dst, "ERR "...)
	start := len(dst)
	dst = append(dst, msg...)
	for i := start; i < len(dst); i++ {
		if dst[i] == '\n' {
			dst[i] = ' '
		}
	}
	return append(dst, '\n')
}

// doneResponse answers a frame that returns nothing (CLOSE, DETACH, PING).
const doneResponse = "OK 0 0 0 0\n.\n"

// appendResult appends one statement outcome in the EXEC response
// format. Cells and column names are framed by tabs and newlines, so
// both flatten to spaces in either (typed BIND arguments can smuggle
// them into stored data, which inline SQL never could).
func appendResult(dst []byte, res *engine.Result, lat time.Duration, err error) []byte {
	if err != nil {
		return appendErr(dst, err.Error())
	}
	ncols, nrows := 0, 0
	var affected int64
	if res != nil {
		affected = res.Affected
		if res.Kind == engine.ResultRows {
			ncols, nrows = len(res.Columns), len(res.Rows)
		}
	}
	dst = append(dst, "OK "...)
	dst = strconv.AppendInt(dst, int64(ncols), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(nrows), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, lat.Microseconds(), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, affected, 10)
	dst = append(dst, '\n')
	if ncols > 0 {
		for i, c := range res.Columns {
			if i > 0 {
				dst = append(dst, '\t')
			}
			dst = appendFlat(dst, c, true)
		}
		dst = append(dst, '\n')
		for _, row := range res.Rows {
			for i, v := range row {
				if i > 0 {
					dst = append(dst, '\t')
				}
				switch v.K {
				case types.KindNull:
					dst = append(dst, nullToken...)
				case types.KindString, types.KindDate:
					dst = appendFlat(dst, v.S, true)
				default:
					dst = v.AppendText(dst)
				}
			}
			dst = append(dst, '\n')
		}
	}
	return append(dst, ".\n"...)
}

// ---------------------------------------------------------------------------
// Responses (client side)

// The kinds of the sized-document responses, "<kind> <nbytes>\n"
// followed by the payload and ".\n".
const (
	docMetrics = "MET"
	docShards  = "SHARDS"
)

// response is one decoded server response.
type response struct {
	tag  uint64  // 0: untagged, or not a tag a client of this package issues
	res  *Result // an OK response
	line string  // a one-line STMT or SESS response, or a sized document's kind
	doc  string  // a sized document's payload
	err  error   // an ERR response: the application's error
}

// result is the outcome of a frame answered in the EXEC format.
func (r response) result() (*Result, error) {
	if r.res == nil && r.err == nil {
		return nil, fmt.Errorf("wire: unexpected response %q", r.line)
	}
	return r.res, r.err
}

// readResponse decodes one complete response. The error return is the
// transport or the framing failing; the stream is unusable after it.
func readResponse(rd *lineReader) (response, error) {
	var resp response
	head, err := rd.readLine()
	if err != nil {
		return resp, fmt.Errorf("wire recv: %w", err)
	}
	if len(head) > 0 && head[0] == '@' {
		if i := bytes.IndexByte(head, ' '); i > 1 {
			resp.tag, _ = parseUint(head[1:i])
			head = head[i+1:]
		}
	}
	switch {
	case bytes.HasPrefix(head, []byte("OK ")):
		ncols, nrows, latUS, affected, ok := parseOKHead(head[len("OK "):])
		if !ok {
			return resp, fmt.Errorf("wire: malformed response %q", head)
		}
		resp.res = &Result{Latency: time.Duration(latUS) * time.Microsecond, Affected: affected}
		if err := readResultBody(rd, resp.res, ncols, nrows); err != nil {
			return resp, err
		}
	case bytes.HasPrefix(head, []byte("ERR ")):
		resp.err = errors.New(string(head[len("ERR "):]))
	case bytes.HasPrefix(head, []byte("STMT ")), bytes.HasPrefix(head, []byte("SESS ")):
		resp.line = string(head)
	case bytes.HasPrefix(head, []byte(docMetrics+" ")), bytes.HasPrefix(head, []byte(docShards+" ")):
		kind, size, _ := bytes.Cut(head, []byte(" "))
		n, ok := parseUint(size)
		if !ok {
			return resp, fmt.Errorf("wire: malformed response %q", head)
		}
		resp.line = string(kind)
		if resp.doc, err = readDoc(rd, int64(n)); err != nil {
			return resp, err
		}
	default:
		return resp, fmt.Errorf("wire: malformed response %q", head)
	}
	return resp, nil
}

// readDoc reads a sized document's payload and its terminator line. The
// payload is read by the bytes that arrive, not by the size its head
// announces: a head claiming more than the peer sends costs what was
// sent.
func readDoc(rd *lineReader, n int64) (string, error) {
	var doc strings.Builder
	if _, err := io.CopyN(&doc, rd.rd, n); err != nil {
		return "", fmt.Errorf("wire recv: %w", err)
	}
	term, err := rd.readLine()
	if err != nil {
		return "", fmt.Errorf("wire recv: %w", err)
	}
	if string(term) != "." {
		return "", fmt.Errorf("wire: missing terminator, got %q", term)
	}
	return doc.String(), nil
}

// parseUint parses an unsigned decimal of at most 18 digits.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// parseDecimal parses an optionally signed decimal of at most 18 digits,
// as strconv.ParseInt would.
func parseDecimal(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	n, ok := parseUint(b)
	if neg {
		return -int64(n), ok
	}
	return int64(n), ok
}

// parseOKHead parses the fields after "OK ": ncols, nrows, latency and,
// since affected-count support, affected rows. A three-field head from
// an older server leaves affected zero; fields past the fourth are a
// newer server's and are ignored.
func parseOKHead(b []byte) (ncols, nrows int, latUS, affected int64, ok bool) {
	var f [4]int64
	n := 0
	for n < len(f) {
		field := b
		i := bytes.IndexByte(b, ' ')
		if i >= 0 {
			field, b = b[:i], b[i+1:]
		}
		v, ok := parseDecimal(field)
		if !ok {
			break
		}
		f[n] = v
		n++
		if i < 0 {
			break
		}
	}
	if n < 3 || f[0] < 0 || f[1] < 0 {
		return 0, 0, 0, 0, false
	}
	return int(f[0]), int(f[1]), f[2], f[3], true
}

// readResultBody reads the column, row and terminator lines of one OK
// response into res. All cells share one backing array sized from the
// head (a new chunk is started, never a copy made, if the rows outgrow
// it).
func readResultBody(rd *lineReader, res *Result, ncols, nrows int) error {
	if ncols > 0 {
		line, err := rd.readLine()
		if err != nil {
			return err
		}
		res.Columns = splitColumns(line)
		if nrows > 0 {
			cells := preallocCells
			if nrows <= preallocCells/ncols {
				cells = nrows * ncols
			}
			arena := make([]types.Value, 0, cells)
			res.Rows = make([][]types.Value, 0, min(nrows, preallocRows))
			for i := 0; i < nrows; i++ {
				if line, err = rd.readLine(); err != nil {
					return err
				}
				var row []types.Value
				arena, row = decodeRow(arena, line)
				res.Rows = append(res.Rows, row)
			}
		}
	}
	term, err := rd.readLine()
	if err != nil {
		return err
	}
	if string(term) != "." {
		return fmt.Errorf("wire: missing terminator, got %q", term)
	}
	return nil
}

// splitColumns copies the header line once and slices the names out of
// the copy.
func splitColumns(line []byte) []string {
	text := string(line)
	cols := make([]string, 0, strings.Count(text, "\t")+1)
	for {
		i := strings.IndexByte(text, '\t')
		if i < 0 {
			return append(cols, text)
		}
		cols = append(cols, text[:i])
		text = text[i+1:]
	}
}

// decodeRow appends one row line's cells to arena and returns the row as
// a slice of it. Text cells are substrings of one copy of the line, made
// when the first of them is met.
func decodeRow(arena []types.Value, line []byte) ([]types.Value, []types.Value) {
	if n := bytes.Count(line, []byte{'\t'}) + 1; cap(arena)-len(arena) < n {
		arena = make([]types.Value, 0, max(n, preallocCells))
	}
	start := len(arena)
	var text string
	for off := 0; ; {
		end := len(line)
		if i := bytes.IndexByte(line[off:], '\t'); i >= 0 {
			end = off + i
		}
		v, numeric := decodeCell(line[off:end])
		if !numeric {
			if text == "" {
				text = string(line)
			}
			v = types.NewString(text[off:end])
		}
		arena = append(arena, v)
		if end == len(line) {
			return arena, arena[start:len(arena):len(arena)]
		}
		off = end + 1
	}
}

// numberBytes marks the bytes strconv's integer and float syntaxes are
// made of (digits, sign, point, exponents, hex digits, underscores, and
// the letters of inf, infinity and nan in either case).
var numberBytes = func() (t [256]bool) {
	for _, c := range "0123456789+-._xXpPaAbBcCdDeEfFiInNtTyY" {
		t[c] = true
	}
	return t
}()

// decodeCell reconstructs NULL or a number from its wire form; false
// means the cell is text. Anything strconv reads as a number becomes
// one — the protocol does not carry the cell's type. Cells that cannot
// be numbers (a byte outside numberBytes, a sign anywhere but in front
// or after an exponent mark: names, dates) are told apart here, because
// a failing strconv call allocates its error.
func decodeCell(cell []byte) (types.Value, bool) {
	if string(cell) == nullToken {
		return types.Null(), true
	}
	if i, ok := parseDecimal(cell); ok {
		return types.NewInt(i), true
	}
	if len(cell) == 0 {
		return types.Value{}, false
	}
	integer := true // a sign and digits: more of them than parseDecimal takes
	for i, c := range cell {
		switch {
		case c >= '0' && c <= '9':
		case (c == '-' || c == '+') && i == 0:
		case c == '-' || c == '+':
			if p := cell[i-1] | 0x20; p != 'e' && p != 'p' {
				return types.Value{}, false
			}
			integer = false
		case numberBytes[c]:
			integer = false
		default:
			return types.Value{}, false
		}
	}
	s := string(cell) // does not escape: strconv clones what its errors keep
	if integer {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return types.NewInt(i), true
		}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return types.NewFloat(f), true
	}
	return types.Value{}, false
}
