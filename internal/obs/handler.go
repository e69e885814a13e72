package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Health is the /healthz payload. Supervised deployments map the
// supervisor state machine onto it; plain CLIs report a static healthy
// state. Unhealthy answers with HTTP 503 so load balancers and probes
// need no JSON parsing.
type Health struct {
	Healthy bool   `json:"healthy"`
	State   string `json:"state"`
	Reason  string `json:"reason,omitempty"`
	// Detail carries subsystem-specific context (recovery counts,
	// component name).
	Detail map[string]any `json:"detail,omitempty"`
}

// NewHandler builds the admin surface over a registry:
//
//	GET /metrics      Prometheus text exposition of every instrument
//	GET /healthz      JSON Health (503 when not healthy)
//	GET /events       JSON array of retained events, oldest first (?n= limits to the newest n)
//	GET /debug/pprof  stdlib profiling endpoints
//
// health may be nil (reports a static healthy state); reg may be nil
// (empty exposition). The handler is an http.Handler; embed it under a
// net/http server on an operator-only address — it exposes pprof, which
// can run CPU profiles on demand.
func NewHandler(reg *Registry, health func() Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WriteProm(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := Health{Healthy: true, State: "Healthy"}
		if health != nil {
			h = health()
		}
		w.Header().Set("Content-Type", "application/json")
		if !h.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		events := reg.Events().Snapshot()
		if nStr := r.URL.Query().Get("n"); nStr != "" {
			if n, err := strconv.Atoi(nStr); err == nil && n >= 0 && n < len(events) {
				events = events[len(events)-n:]
			}
		}
		if events == nil {
			events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(events)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
