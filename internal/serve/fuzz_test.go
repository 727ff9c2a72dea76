package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"roadside/internal/graph"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// FuzzServeRequest feeds arbitrary bytes through every endpoint decoder and
// the full /v1/place handler: decoders must never panic, must return a
// well-formed APIError (4xx/5xx with a stable code) on rejection, and must
// only accept bodies that carry a digest reference (and then decode no
// problem) or decode to a validated problem. The checked-in
// corpus under testdata/fuzz/FuzzServeRequest seeds the interesting shapes;
// verify.sh runs this target in its fuzz smoke.
func FuzzServeRequest(f *testing.F) {
	for _, seed := range serveSeeds(f) {
		f.Add(seed)
	}

	srv := New(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkErr := func(what string, apiErr *APIError) {
			t.Helper()
			if apiErr == nil {
				return
			}
			if apiErr.Status < 400 || apiErr.Status > 599 {
				t.Errorf("%s: error status %d outside 4xx/5xx", what, apiErr.Status)
			}
			if apiErr.Code == "" {
				t.Errorf("%s: empty error code", what)
			}
		}
		// An accepted body either references a cached engine by digest,
		// and then decodes no problem, or carries a valid problem.
		checkAccepted := func(what, digest string, p *problem) {
			t.Helper()
			switch {
			case digest != "" && p != nil:
				t.Errorf("%s: by-reference body also decoded a problem", what)
			case digest == "" && (p == nil || p.Validate() != nil):
				t.Errorf("%s: accepted body decoded to an invalid problem", what)
			}
		}
		if req, p, apiErr := decodePlaceRequest(body); apiErr != nil {
			checkErr("place", apiErr)
		} else {
			checkAccepted("place", req.Digest, p)
		}
		if req, p, apiErr := decodeEvaluateRequest(body); apiErr != nil {
			checkErr("evaluate", apiErr)
		} else {
			checkAccepted("evaluate", req.Digest, p)
		}
		if req, p, apiErr := decodeDetourRequest(body); apiErr != nil {
			checkErr("detour", apiErr)
		} else {
			checkAccepted("detour", req.Digest, p)
		}

		// End-to-end through the handler: whatever the body, the response
		// must be well-formed JSON — a 200 result or the uniform error
		// shape, never garbage and never a panic.
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader(string(body)))
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			var pl PlaceResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pl); err != nil {
				t.Errorf("200 body is not a PlaceResponse: %v", err)
			}
		} else {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Err.Code == "" {
				t.Errorf("status %d body is not the uniform error shape: %v (%s)",
					rec.Code, err, rec.Body.Bytes())
			}
		}
	})
}

// FuzzBatchRequest drives arbitrary bytes through the batch decoder and
// the full /v1/batch handler: no panics, envelope rejections carry stable
// codes, accepted batches answer index-aligned results, and per-item
// failures stay isolated in their slots.
func FuzzBatchRequest(f *testing.F) {
	for _, seed := range batchSeeds(f) {
		f.Add(seed)
	}

	srv := New(Config{MaxBatchItems: 64})
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, p, apiErr := decodeBatchRequest(body, 64); apiErr != nil {
			if apiErr.Status < 400 || apiErr.Status > 599 {
				t.Errorf("batch: error status %d outside 4xx/5xx", apiErr.Status)
			}
			if apiErr.Code == "" {
				t.Error("batch: empty error code")
			}
		} else if req == nil || (req.Digest == "" && (p == nil || p.Validate() != nil)) {
			t.Error("batch: accepted body decoded to an invalid problem")
		}

		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(string(body)))
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			var batch BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
				t.Fatalf("200 body is not a BatchResponse: %v", err)
			}
			failed := 0
			for i, item := range batch.Items {
				if item.Index != i {
					t.Errorf("item %d carries index %d: ordering broke", i, item.Index)
				}
				if item.Error != nil {
					failed++
					if item.Error.Code == "" {
						t.Errorf("item %d error lacks a code", i)
					}
				}
			}
			if failed != batch.Failed {
				t.Errorf("failed = %d but %d items carry errors", batch.Failed, failed)
			}
		} else {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Err.Code == "" {
				t.Errorf("status %d body is not the uniform error shape: %v (%s)",
					rec.Code, err, rec.Body.Bytes())
			}
		}
	})
}

// FuzzJobsRequest drives arbitrary bytes through the job submit path: no
// panics, rejections carry stable codes, and any accepted job must reach
// a terminal state (the envelope decoded to real runnable work).
func FuzzJobsRequest(f *testing.F) {
	for _, seed := range jobSeeds(f) {
		f.Add(seed)
	}

	srv := New(Config{JobQueue: 4096})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(string(body)))
		srv.Handler().ServeHTTP(rec, req)
		switch {
		case rec.Code == http.StatusOK:
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("200 body is not a JobStatus: %v (%s)", err, rec.Body.Bytes())
			}
			// An accepted job must finish; poll it through the handler.
			for {
				poll := httptest.NewRecorder()
				srv.Handler().ServeHTTP(poll, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil))
				if poll.Code != http.StatusOK {
					t.Fatalf("poll %s: status %d: %s", st.ID, poll.Code, poll.Body.Bytes())
				}
				if err := json.Unmarshal(poll.Body.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				if st.State == JobDone || st.State == JobFailed || st.State == JobCanceled {
					break
				}
			}
		case rec.Code == http.StatusTooManyRequests:
			if rec.Header().Get("Retry-After") == "" {
				t.Error("429 without a Retry-After header")
			}
		default:
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Err.Code == "" {
				t.Errorf("status %d body is not the uniform error shape: %v (%s)",
					rec.Code, err, rec.Body.Bytes())
			}
		}
	})
}

// serveSeeds, batchSeeds and jobSeeds are the hand-written seed bodies of
// the request fuzzers, shared with FuzzWireDecode.
func serveSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	spec, err := ProblemSpecOf(testutil.Fig4Problem(tb, utility.Linear{D: 10}))
	if err != nil {
		tb.Fatal(err)
	}
	valid, err := json.Marshal(PlaceRequest{ProblemSpec: spec, K: 2, Algo: "algorithm2"})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, valid)
	evalBody, err := json.Marshal(EvaluateRequest{ProblemSpec: spec, Placement: []graph.NodeID{2}})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, evalBody)
	seeds = append(seeds, []byte(`{"k":1}`))
	// By reference: accepted without decoding a problem.
	seeds = append(seeds, []byte(`{"digest":"rapd2-00","k":1}`))
	seeds = append(seeds, valid[:len(valid)/2]) // truncated mid-structure
	seeds = append(seeds, []byte(`null`))
	seeds = append(seeds, []byte(`{"graph":{"version":"bogus"},"flows":[],"k":-1}`))
	return seeds
}

func batchSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	spec, err := ProblemSpecOf(testutil.Fig4Problem(tb, utility.Linear{D: 10}))
	if err != nil {
		tb.Fatal(err)
	}
	valid, err := json.Marshal(BatchRequest{ProblemSpec: spec, Items: []BatchItem{
		{K: 1, Algo: "lazy"}, {K: 2, Algo: "algorithm2"}}})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, valid)
	mixed, err := json.Marshal(BatchRequest{ProblemSpec: spec, Items: []BatchItem{
		{K: 2}, {K: 0}, {K: 1, Algo: "annealing"}}})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, mixed)
	seeds = append(seeds, []byte(`{"items":[]}`))
	seeds = append(seeds, []byte(`{"digest":"rapd1-00","items":[{"k":1}]}`))
	seeds = append(seeds, valid[:len(valid)/2]) // truncated mid-structure
	seeds = append(seeds, []byte(`null`))
	return seeds
}

func jobSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	spec, err := ProblemSpecOf(testutil.Fig4Problem(tb, utility.Linear{D: 10}))
	if err != nil {
		tb.Fatal(err)
	}
	inner, err := json.Marshal(PlaceRequest{ProblemSpec: spec, K: 2, Algo: "lazy"})
	if err != nil {
		tb.Fatal(err)
	}
	valid, err := json.Marshal(JobRequest{Kind: "place", Request: inner})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, valid)
	batchInner, err := json.Marshal(BatchRequest{ProblemSpec: spec, Items: []BatchItem{{K: 1}}})
	if err != nil {
		tb.Fatal(err)
	}
	batchJob, err := json.Marshal(JobRequest{Kind: "batch", Request: batchInner})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, batchJob)
	seeds = append(seeds, []byte(`{"kind":"place"}`))
	seeds = append(seeds, []byte(`{"kind":"detour","request":{}}`))
	seeds = append(seeds, valid[:len(valid)/2]) // truncated mid-structure
	seeds = append(seeds, []byte(`null`))
	return seeds
}
