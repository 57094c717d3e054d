package wire

import (
	"net"
	"time"

	"divsql/internal/obs"
)

// This file is the wire server's observability surface: per-frame-type
// request counters and end-to-end latency histograms (read-to-flush,
// so they include adjudication and response serialization), connection
// gauges, and byte counters on the raw sockets. All instruments are
// atomic, so the per-request cost is a few uncontended atomic adds.
//
// It also implements the METRICS introspection frame:
//
//	C: METRICS\n
//	S: MET <nbytes>\n
//	   <nbytes bytes of Prometheus text exposition>
//	   .\n
//	or ERR metrics not enabled\n
//
// The frame serves the same registry as divsqld's HTTP /metrics, so a
// sqldriver/CLI client can introspect a deployment without a second
// port. It is armed with Server.ServeMetrics.

// frameStats is one frame type's instruments.
type frameStats struct {
	reqs obs.Counter
	lat  *obs.Histogram
}

// rejectReason is which protocol limit a refused frame exceeded. The
// first closes the connection (the rest of the line cannot be skipped);
// the others leave it usable.
type rejectReason uint8

const (
	rejectLineTooLong rejectReason = iota
	rejectTooManySessions
	rejectTooManyStmts
	numRejectReasons
)

var rejectNames = [numRejectReasons]string{
	"line_too_long", "too_many_sessions", "too_many_statements",
}

// wireMetrics holds the server's live instruments. The frame label set
// is fixed (frameNames); unrecognized commands are not counted.
type wireMetrics struct {
	frames     [numFrameKinds]frameStats
	rejected   [numRejectReasons]obs.Counter
	panics     obs.Counter
	connsOpen  obs.Gauge
	connsTotal obs.Counter
	bytesIn    obs.Counter
	bytesOut   obs.Counter
}

func newWireMetrics() *wireMetrics {
	m := &wireMetrics{}
	for k := range m.frames {
		m.frames[k].lat = obs.NewHistogram(obs.DefBuckets()...)
	}
	return m
}

// record counts one serviced frame and its end-to-end latency.
func (m *wireMetrics) record(kind frameKind, d time.Duration) {
	fs := &m.frames[kind]
	fs.reqs.Inc()
	fs.lat.Observe(d)
}

// countingConn wraps a connection to count bytes moved on the socket.
type countingConn struct {
	net.Conn
	m *wireMetrics
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.bytesIn.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.m.bytesOut.Add(uint64(n))
	return n, err
}

// ServeMetrics arms the METRICS frame: clients sending METRICS receive
// the registry's rendered exposition. Call before Listen; a nil registry
// (the default) answers METRICS with an error.
func (s *Server) ServeMetrics(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metricsReg = reg
}

// metricsRegistry reads the armed registry.
func (s *Server) metricsRegistry() *obs.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metricsReg
}

// MetricsCollector returns the wire server's obs collector.
func (s *Server) MetricsCollector() obs.Collector {
	m := s.metrics
	return obs.NewCollector("wire", func(f *obs.Feed) {
		for k := range m.frames {
			fs := &m.frames[k]
			f.Count("divsql_wire_requests_total",
				"Wire requests serviced, by frame type.", fs.reqs.Value(),
				obs.L("frame", frameNames[k]))
			f.Histo("divsql_wire_request_duration_seconds",
				"End-to-end request latency (read to flush), by frame type.",
				fs.lat, obs.L("frame", frameNames[k]))
		}
		for r := range m.rejected {
			f.Count("divsql_wire_rejected_frames_total",
				"Frames refused for exceeding a protocol limit, by reason.",
				m.rejected[r].Value(), obs.L("reason", rejectNames[r]))
		}
		f.Count("divsql_wire_panics_total",
			"Panics recovered while serving a frame (answered as ERR).", m.panics.Value())
		f.Gauge("divsql_wire_open_connections",
			"Currently open client connections.", float64(m.connsOpen.Value()))
		f.Count("divsql_wire_connections_total",
			"Client connections accepted.", m.connsTotal.Value())
		f.Count("divsql_wire_bytes_in_total",
			"Bytes read from client sockets.", m.bytesIn.Value())
		f.Count("divsql_wire_bytes_out_total",
			"Bytes written to client sockets.", m.bytesOut.Value())
	})
}
