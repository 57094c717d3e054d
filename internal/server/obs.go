package server

import "divsql/internal/obs"

// MetricsCollector returns the server's obs collector: its up/down state
// and installed-fault count, plus the underlying engine's families — all
// labeled with this server's name so replicas of a diverse deployment
// share families and differ only in the replica label.
func (s *Server) MetricsCollector() obs.Collector {
	return s.MetricsCollectorAs(string(s.name))
}

// MetricsCollectorAs is MetricsCollector with an explicit replica label:
// groups of identical servers (the non-diverse replication baseline)
// need distinct labels where the server name alone would collide.
func (s *Server) MetricsCollectorAs(replica string) obs.Collector {
	eng := s.eng.MetricsCollector(replica)
	return obs.NewCollector("server:"+replica, func(f *obs.Feed) {
		up := 1.0
		if s.Crashed() {
			up = 0
		}
		f.Gauge("divsql_server_up",
			"1 when the server's engine is up, 0 after a crash until Restart.",
			up, obs.L("replica", replica))
		f.Count("divsql_server_panics_total",
			"Engine panics contained and reported as crashes.",
			s.panics.Load(), obs.L("replica", replica))
		f.Gauge("divsql_server_faults_installed",
			"Faults registered for this server.",
			float64(s.FaultCount()), obs.L("replica", replica))
		eng.Collect(f)
	})
}
