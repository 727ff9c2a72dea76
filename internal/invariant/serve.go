package invariant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"roadside/internal/core"
	"roadside/internal/serve"
)

func init() {
	register(Invariant{Name: "serve-identity",
		Doc:   "serving a placement through an in-process HTTP server (miss then cache hit) equals calling the engine directly, bit-for-bit",
		Check: checkServeIdentity})
}

// recorder is a minimal in-memory http.ResponseWriter. net/http/httptest
// provides one, but that package registers a -httptest.serve flag at init,
// and this file is linked into the production cmd/soak binary.
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{status: http.StatusOK, header: http.Header{}} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

// checkServeIdentity round-trips the instance through an in-process
// placement server twice — the first request builds the engine (cache
// miss), the second is served from the LRU (cache hit) — and requires both
// responses to match a direct single-threaded solve bit-for-bit. This
// pins the whole service stack: wire codec, digest, cache, budget
// override, and solver dispatch add nothing and lose nothing.
func checkServeIdentity(inst *Instance) error {
	p := inst.Problem
	solvers := core.Solvers()
	algo := solvers[int(uint64(inst.Seed)%uint64(len(solvers)))]

	eng, err := core.NewEngineWorkers(p, 1)
	if err != nil {
		return fmt.Errorf("serve-identity: direct engine: %w", err)
	}
	want, err := algo.SolveWorkers(eng, 1)
	if err != nil {
		return fmt.Errorf("serve-identity: direct %s: %w", algo.Name, err)
	}

	spec, err := serve.ProblemSpecOf(p)
	if err != nil {
		return fmt.Errorf("serve-identity: encode problem: %w", err)
	}
	body, err := json.Marshal(serve.PlaceRequest{ProblemSpec: spec, K: p.K, Algo: algo.Name})
	if err != nil {
		return fmt.Errorf("serve-identity: encode request: %w", err)
	}

	s := serve.New(serve.Config{})
	for _, wantCache := range []string{serve.CacheMiss, serve.CacheHit} {
		req, err := http.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("serve-identity: %w", err)
		}
		rec := newRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.status != http.StatusOK {
			return fmt.Errorf("serve-identity: %s pass: status %d: %s", wantCache, rec.status, rec.body.String())
		}
		var got serve.PlaceResponse
		if err := json.Unmarshal(rec.body.Bytes(), &got); err != nil {
			return fmt.Errorf("serve-identity: decode response: %w", err)
		}
		if got.Cache != wantCache {
			return fmt.Errorf("serve-identity: cache outcome %q, want %q", got.Cache, wantCache)
		}
		served := &core.Placement{Nodes: got.Nodes, StepGains: got.StepGains, Attracted: got.Attracted}
		if err := placementsIdentical(want, served); err != nil {
			return fmt.Errorf("serve-identity: %s (%s) served vs direct: %w", algo.Name, wantCache, err)
		}
	}
	return nil
}
