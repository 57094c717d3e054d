package wire

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"divsql/internal/core"
	"divsql/internal/obs"
	"divsql/internal/sql/types"
)

// Server serves an endpoint over TCP.
type Server struct {
	ep      core.SessionExecutor
	metrics *wireMetrics

	mu         sync.Mutex
	listener   net.Listener
	conns      map[net.Conn]bool
	wg         sync.WaitGroup
	closed     bool
	metricsReg *obs.Registry // answers the METRICS frame; nil = disabled
	shardsFn   func() string // answers the SHARDS frame; nil = disabled
}

// ServeShards arms the SHARDS introspection frame with a status
// renderer (a sharded deployment's per-shard replica/quarantine state).
// Call before Listen; nil (the default) answers SHARDS with an error.
func (s *Server) ServeShards(fn func() string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shardsFn = fn
}

// shardsFunc reads the armed shard-status renderer.
func (s *Server) shardsFunc() func() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardsFn
}

// NewServer wraps an endpoint: every session of every connection is one
// session of ep.
func NewServer(ep core.SessionExecutor) *Server {
	return &Server{ep: ep, conns: make(map[net.Conn]bool), metrics: newWireMetrics()}
}

// Listen starts accepting connections on addr ("host:port"; port 0
// picks a free port). It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire listen: %w", err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// wireConn is one TCP connection's server-side state: a table of
// multiplexed sessions (sid 0 is the connection's implicit root
// session) and the write mutex serializing their responses onto the
// socket. Each session executes its frames in order on its own worker
// goroutine; responses are rendered to a private buffer and written
// atomically, so interleaved sessions never interleave bytes.
type wireConn struct {
	s    *Server
	conn countingConn

	wmu sync.Mutex // serializes whole-response writes

	// Touched only by the reader goroutine.
	sessions map[int]*wireSession
	nextSID  int
	ctl      []byte // control-frame response buffer
	wg       sync.WaitGroup
}

// wireSession is one multiplexed session: its session on the endpoint,
// its prepared-statement table and its frame queue.
type wireSession struct {
	id    int
	sess  core.Session // closed on teardown
	stmts map[string]core.Statement
	ch    chan wireReq

	out []byte // response buffer: the worker's, reused frame to frame
}

// wireReq is one queued frame: EXEC, PREPARE, BIND, CLOSE, or the DETACH
// that ends the session after replying.
type wireReq struct {
	tag     string // includes the leading '@'; "" when untagged
	kind    frameKind
	payload string
	start   time.Time
}

// newSession opens one multiplexed session and starts its worker. The
// endpoint's session is opened first, so a panic in OpenSession (which
// the caller contains) leaves no half-made session behind.
func (wc *wireConn) newSession() *wireSession {
	ws := &wireSession{
		sess:  wc.s.ep.OpenSession(),
		id:    wc.nextSID,
		stmts: make(map[string]core.Statement),
		ch:    make(chan wireReq, 64), // frames a client may pipeline to one session before the reader blocks
	}
	wc.nextSID++
	wc.sessions[ws.id] = ws
	wc.wg.Add(1)
	go wc.worker(ws)
	return ws
}

// write sends one complete response atomically.
func (wc *wireConn) write(b []byte) {
	wc.wmu.Lock()
	_, _ = wc.conn.Write(b)
	wc.wmu.Unlock()
}

// reply answers a frame from the reader goroutine: the tag, then the
// response's parts.
func (wc *wireConn) reply(tag string, parts ...string) {
	b := appendTag(wc.ctl[:0], tag)
	for _, p := range parts {
		b = append(b, p...)
	}
	wc.ctl = b
	wc.write(b)
}

// reject answers a frame over one of the protocol's limits and counts
// it. Whether the connection survives is the caller's call: it does
// unless the rest of the frame cannot be skipped.
func (wc *wireConn) reject(tag string, reason rejectReason, msg string) {
	wc.s.metrics.rejected[reason].Inc()
	wc.reply(tag, "ERR ", msg, "\n")
}

// worker drains one session's frame queue. Exiting — channel closed on
// connection teardown, or a DETACH frame — rolls back the session's
// open transaction and releases its prepared statements, touching no
// other session.
func (wc *wireConn) worker(ws *wireSession) {
	defer wc.wg.Done()
	defer func() {
		for _, st := range ws.stmts {
			_ = st.Close()
		}
		_ = ws.sess.Close()
	}()
	for req := range ws.ch {
		wc.write(wc.serve(ws, req))
		// The latency window is read-to-write: queueing, execution
		// (adjudication included on a diverse endpoint) and response
		// serialization.
		wc.s.metrics.record(req.kind, time.Since(req.start))
		if req.kind == frameDetach {
			return
		}
	}
}

// serve executes one session frame and returns its rendered response
// (ws.out, valid until the session's next frame). A panic below — the
// executor's, on this one statement — is answered as an error and
// counted; the session and its connection carry on.
func (wc *wireConn) serve(ws *wireSession, req wireReq) (out []byte) {
	defer func() {
		if r := recover(); r != nil {
			wc.s.metrics.panics.Inc()
			out = appendErr(appendTag(ws.out[:0], req.tag), fmt.Sprint("internal error: ", r))
			ws.out = out
		}
	}()
	out = appendTag(ws.out[:0], req.tag)
	switch req.kind {
	case frameExec:
		res, lat, err := ws.sess.Exec(req.payload)
		out = appendResult(out, res, lat, err)
	case frameBind:
		out = ws.bind(out, req.payload)
	case framePrepare:
		out = wc.prepare(ws, out, req.payload)
	case frameClose:
		name := strings.TrimSpace(req.payload)
		if st, ok := ws.stmts[name]; ok {
			_ = st.Close()
			delete(ws.stmts, name)
		}
		out = append(out, doneResponse...)
	case frameDetach:
		out = append(out, doneResponse...)
	}
	ws.out = out
	return out
}

// prepare services one PREPARE frame: "<name> <sql>". A session holds at
// most maxSessionStmts live statements; re-preparing a name replaces its
// statement and is always allowed.
func (wc *wireConn) prepare(ws *wireSession, out []byte, req string) []byte {
	name, sql, ok := strings.Cut(req, " ")
	if !ok || name == "" || strings.TrimSpace(sql) == "" {
		return appendErr(out, "malformed PREPARE (want: PREPARE <name> <sql>)")
	}
	old, dup := ws.stmts[name]
	if !dup && len(ws.stmts) >= maxSessionStmts {
		wc.s.metrics.rejected[rejectTooManyStmts].Inc()
		return appendErr(out, "session exceeds "+strconv.Itoa(maxSessionStmts)+" prepared statements (CLOSE some)")
	}
	st, err := ws.sess.Prepare(sql)
	if err != nil {
		return appendErr(out, err.Error())
	}
	if dup {
		_ = old.Close()
	}
	ws.stmts[name] = st
	out = append(out, "STMT "...)
	out = append(out, name...)
	out = append(out, ' ')
	out = strconv.AppendInt(out, int64(st.NumParams()), 10)
	return append(out, '\n')
}

// bind services one BIND frame: "<name>[ <arg>\t<arg>...]" — it
// executes the named prepared statement with the decoded typed
// arguments and answers exactly like EXEC. The argument slice is made
// per frame: a core.Statement may keep what it is given (the stack
// benchmark's tracer keeps every execution's arguments for replay).
func (ws *wireSession) bind(out []byte, req string) []byte {
	name, rest, _ := strings.Cut(req, " ")
	name = strings.TrimSpace(name)
	st, ok := ws.stmts[name]
	if !ok {
		out = append(out, "ERR unknown prepared statement "...)
		out = strconv.AppendQuote(out, name)
		return append(out, '\n')
	}
	var args []types.Value // nil when there are none: the statement executes unbound
	if rest = strings.TrimRight(rest, " "); rest != "" {
		args = make([]types.Value, 0, strings.Count(rest, "\t")+1)
		for more := true; more; {
			var tok string
			tok, rest, more = strings.Cut(rest, "\t")
			v, err := types.DecodeValue(tok)
			if err != nil {
				return appendErr(out, err.Error())
			}
			args = append(args, v)
		}
	}
	res, lat, err := st.Exec(args...)
	return appendResult(out, res, lat, err)
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.metrics.connsTotal.Inc()
	s.metrics.connsOpen.Add(1)
	defer func() {
		s.metrics.connsOpen.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	wc := &wireConn{
		s:        s,
		conn:     countingConn{Conn: conn, m: s.metrics},
		sessions: make(map[int]*wireSession),
	}
	// sid 0 is the connection's root session: untagged unprefixed frames
	// behave exactly as before multiplexing existed.
	if !wc.contain("", func() { wc.newSession() }) {
		return
	}
	// Teardown closes every session the connection opened — each worker
	// drains its queue, then rolls back its own open transaction. A
	// dropped connection therefore aborts exactly its own sessions'
	// transactions.
	defer func() {
		for _, ws := range wc.sessions {
			close(ws.ch)
		}
		wc.wg.Wait()
	}()
	rd := newLineReader(wc.conn, maxRequestLine)
	for {
		line, ok := wc.readRequest(rd)
		if !ok || !wc.dispatch(line) {
			return
		}
	}
}

// readRequest reads one request line as a string of its own (frames
// outlive the reader's buffer: they queue to workers, and executors keep
// what they are given). An over-long line is rejected; false means the
// connection is done.
func (wc *wireConn) readRequest(rd *lineReader) (string, bool) {
	line, err := rd.readLine()
	if err != nil {
		if errors.Is(err, errLineTooLong) {
			wc.reject("", rejectLineTooLong, "request line exceeds "+strconv.Itoa(maxRequestLine)+" bytes")
		}
		return "", false
	}
	return string(line), true
}

// dispatch services one request line: session frames are queued to
// their session's worker, control frames are answered inline. It
// returns false when the connection is done.
func (wc *wireConn) dispatch(line string) bool {
	start := time.Now()
	var tag string
	if strings.HasPrefix(line, "@") {
		i := strings.IndexByte(line, ' ')
		if i <= 1 {
			wc.reply("", "ERR malformed tag prefix\n")
			return true
		}
		tag, line = line[:i], line[i+1:]
	}
	ws := wc.sessions[0]
	if strings.HasPrefix(line, "#") {
		i := strings.IndexByte(line, ' ')
		if i <= 1 {
			wc.reply(tag, "ERR malformed session prefix\n")
			return true
		}
		sid, err := strconv.Atoi(line[1:i])
		target, ok := wc.sessions[sid]
		if err != nil || !ok {
			wc.reply(tag, "ERR unknown session ", line[1:i], "\n")
			return true
		}
		ws, line = target, line[i+1:]
	}
	kind, arg := parseFrame(line)
	switch kind {
	case frameExec, framePrepare, frameBind, frameClose:
		ws.ch <- wireReq{tag: tag, kind: kind, payload: arg, start: start}
		return true
	case frameDetach:
		sidTxt := strings.TrimSpace(arg)
		sid, err := strconv.Atoi(sidTxt)
		target, ok := wc.sessions[sid]
		switch {
		case err != nil || !ok:
			wc.reply(tag, "ERR unknown session ", sidTxt, "\n")
		case sid == 0:
			wc.reply(tag, "ERR cannot detach the root session\n")
		default:
			// Remove first so no further frame can route to it, then let
			// the worker finish its queue and answer the DETACH itself.
			delete(wc.sessions, sid)
			target.ch <- wireReq{tag: tag, kind: frameDetach, start: start}
		}
		return true
	case frameOther:
		wc.reply(tag, "ERR unknown command\n")
		return true
	default:
		wc.contain(tag, func() { wc.control(tag, kind) })
	}
	wc.s.metrics.record(kind, time.Since(start))
	return kind != frameQuit
}

// control answers a frame that is served here, on the reader goroutine.
func (wc *wireConn) control(tag string, kind frameKind) {
	switch kind {
	case frameSession:
		if len(wc.sessions) >= maxConnSessions {
			wc.reject(tag, rejectTooManySessions,
				"connection exceeds "+strconv.Itoa(maxConnSessions)+" sessions (DETACH some)")
			return
		}
		ns := wc.newSession()
		wc.reply(tag, "SESS ", strconv.Itoa(ns.id), "\n")
	case framePing:
		wc.reply(tag, doneResponse)
	case frameMetrics:
		if reg := wc.s.metricsRegistry(); reg != nil {
			doc := reg.Render()
			wc.reply(tag, docMetrics, " ", strconv.Itoa(len(doc)), "\n", doc, ".\n")
		} else {
			wc.reply(tag, "ERR metrics not enabled\n")
		}
	case frameShards:
		if fn := wc.s.shardsFunc(); fn != nil {
			doc := fn()
			wc.reply(tag, docShards, " ", strconv.Itoa(len(doc)), "\n", doc, ".\n")
		} else {
			wc.reply(tag, "ERR not a sharded deployment\n")
		}
	}
}

// contain runs fn, which serves a frame on the reader goroutine. A panic
// in it — the endpoint's OpenSession, a metrics collector, the shard
// status renderer — is answered as an error and counted, as serve does
// for a worker's; the connection and its sessions carry on. It reports
// whether fn returned.
func (wc *wireConn) contain(tag string, fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			wc.s.metrics.panics.Inc()
			wc.ctl = appendErr(appendTag(wc.ctl[:0], tag), fmt.Sprint("internal error: ", r))
			wc.write(wc.ctl)
		}
	}()
	fn()
	return true
}

// Close stops the listener, closes open connections and waits for the
// connection goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
