package fleet

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"path"
	"slices"
	"strings"
	"testing"
)

// FuzzRouteJobID pins the router's job-ID routing (run under `make
// fuzz-short`): GET /v1/jobs/<id>, parsed as the server parses a request
// line, goes through Router.Handler() over two fake shards and the local
// service. The invariants are judged on the path the mux hands the
// router, since ServeMux answers a path with `.` or `..` segments by
// redirecting to the clean form, which reaches no handler. The handler
// must never panic; an ID "<shard>.<local>" with a known shard, a
// non-empty local ID and no `.` or `..` segment in the decoded
// /v1/jobs/<local><rest> must reach exactly that shard, which receives
// that one request and no other (a shard's redirect is relayed, not
// followed); any other ID must contact no shard.
func FuzzRouteJobID(f *testing.F) {
	for _, id := range []string{
		"s0.j-000001", "s1.j-000002/result", "s0.", ".j-1", "s9.j-1",
		"s0.j-1/../../metrics", "", "s0.%2e%2e/%2e%2e/healthz",
	} {
		f.Add(id)
	}
	fakes := map[string]*fakeShard{"s0": newFakeShard(f), "s1": newFakeShard(f)}
	rt, _ := newTestRouter(f, []ShardConfig{
		{Name: "s0", URL: fakes["s0"].srv.URL},
		{Name: "s1", URL: fakes["s1"].srv.URL},
	})
	h := rt.Handler()

	f.Fuzz(func(t *testing.T, id string) {
		target := "/v1/jobs/" + id
		req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(
			"GET " + target + " HTTP/1.1\r\nHost: router\r\n\r\n")))
		if err != nil || req.RequestURI != target {
			t.Skip("not a request path")
		}
		seen := map[string]int{}
		for name, fs := range fakes {
			seen[name] = len(fs.requests(0))
		}
		h.ServeHTTP(httptest.NewRecorder(), req)

		var owner, want string
		if p := req.URL.EscapedPath(); cleanPath(p) == p {
			jobID, rest, hasRest := strings.Cut(strings.TrimPrefix(req.URL.Path, "/v1/jobs/"), "/")
			if name, local, ok := strings.Cut(jobID, "."); ok && local != "" && fakes[name] != nil {
				want = "/v1/jobs/" + local
				if hasRest {
					want += "/" + rest
				}
				if segs := strings.Split(want, "/"); !slices.Contains(segs, ".") && !slices.Contains(segs, "..") {
					owner = name
				}
			}
		}
		for name, fs := range fakes {
			got := fs.requests(seen[name])
			switch {
			case name == owner && (len(got) != 1 || got[0] != want):
				t.Fatalf("path %q: shard %s received %q, want exactly [%q]", req.URL.Path, name, got, want)
			case name != owner && len(got) > 0:
				t.Fatalf("path %q: shard %s received %q, want nothing (owner %q)", req.URL.Path, name, got, owner)
			}
		}
	})
}

// cleanPath is ServeMux's canonical form of p: path.Clean, keeping a
// trailing slash. The mux redirects any path that differs from it.
func cleanPath(p string) string {
	c := path.Clean(p)
	if strings.HasSuffix(p, "/") && c != "/" {
		c += "/"
	}
	return c
}
