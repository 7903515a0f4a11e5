package obs

import "net/http"

// MetricsHandler exposes a Registry over HTTP — the impulsed service
// mounts this at /metrics — in Prometheus text exposition format v0.0.4:
// typed # TYPE/# HELP metadata, _bucket/_sum/_count histogram series and
// deterministic sorted output.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
