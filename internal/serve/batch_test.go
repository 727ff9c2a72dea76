package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"roadside/internal/core"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// batchOf marshals a full-problem batch request over the Fig. 4 example.
func batchOf(t *testing.T, items []BatchItem) []byte {
	t.Helper()
	return mustMarshal(t, BatchRequest{ProblemSpec: fig4Spec(t), Items: items})
}

// TestBatchMatchesSequentialPlaces is the batch acceptance contract: one
// /v1/batch request over all four algorithms at mixed budgets answers
// item-for-item bit-identically to the equivalent sequence of /v1/place
// calls — same nodes, same step gains, same attracted volume at
// Float64bits precision.
func TestBatchMatchesSequentialPlaces(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := fig4Spec(t)
	items := []BatchItem{
		{K: 1, Algo: "algorithm1"},
		{K: 2, Algo: "algorithm2"},
		{K: 3, Algo: "combined"},
		{K: 2, Algo: "lazy"},
		{K: 1, Algo: "lazy"},
		{K: 3, Algo: "algorithm2"},
		{K: 2, Algo: ""}, // default algo, same as PlaceRequest
	}
	status, body := postJSON(t, ts.URL+"/v1/batch", batchOf(t, items))
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != len(items) || batch.Failed != 0 {
		t.Fatalf("batch returned %d items, %d failed; want %d items, 0 failed",
			len(batch.Items), batch.Failed, len(items))
	}
	for i, item := range items {
		got := batch.Items[i]
		if got.Index != i {
			t.Fatalf("item %d carries index %d", i, got.Index)
		}
		status, seq := postJSON(t, ts.URL+"/v1/place",
			mustMarshal(t, PlaceRequest{ProblemSpec: spec, K: item.K, Algo: item.Algo}))
		if status != http.StatusOK {
			t.Fatalf("sequential place %d: status %d: %s", i, status, seq)
		}
		var want PlaceResponse
		if err := json.Unmarshal(seq, &want); err != nil {
			t.Fatal(err)
		}
		if batch.Digest != want.Digest {
			t.Fatalf("batch digest %q, place digest %q", batch.Digest, want.Digest)
		}
		if err := core.SamePlacement(placeOf(&want), itemOf(&got)); err != nil {
			t.Fatalf("item %d: batch vs sequential: %v", i, err)
		}
	}
}

// TestBatchItemIsolation pins per-item error isolation: invalid items fail
// in place with the same stable codes single requests use, while their
// neighbours solve normally and results stay index-aligned.
func TestBatchItemIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	items := []BatchItem{
		{K: 2, Algo: "algorithm2"},
		{K: 0, Algo: "algorithm2"}, // bad budget
		{K: 2, Algo: "annealing"},  // unknown algo
		{K: -1, Algo: "lazy"},      // negative budget
		{K: 1, Algo: "lazy"},
	}
	status, body := postJSON(t, ts.URL+"/v1/batch", batchOf(t, items))
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Failed != 3 {
		t.Fatalf("failed = %d, want 3: %s", batch.Failed, body)
	}
	wantCodes := []string{"", CodeBadBudget, CodeUnknownAlgo, CodeBadBudget, ""}
	for i, want := range wantCodes {
		got := batch.Items[i]
		if want == "" {
			if got.Error != nil {
				t.Errorf("item %d: unexpected error %+v", i, got.Error)
			} else if len(got.Nodes) != items[i].K {
				t.Errorf("item %d: %d nodes, want %d", i, len(got.Nodes), items[i].K)
			}
			continue
		}
		if got.Error == nil || got.Error.Code != want {
			t.Errorf("item %d: error %+v, want code %q", i, got.Error, want)
		}
		if got.Nodes != nil {
			t.Errorf("item %d: failed item carries nodes %v", i, got.Nodes)
		}
	}
}

// TestBatchEnvelopeErrors walks the whole-request rejection paths.
func TestBatchEnvelopeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 4})
	cases := []struct {
		name       string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"malformed body", []byte(`{"items":`), http.StatusBadRequest, CodeBadJSON},
		{"empty item list", batchOf(t, nil), http.StatusUnprocessableEntity, CodeBadBatch},
		{"over the item cap", batchOf(t, make([]BatchItem, 5)), http.StatusUnprocessableEntity, CodeBadBatch},
		{"bad problem", mustMarshal(t, BatchRequest{Items: []BatchItem{{K: 1}}}),
			http.StatusUnprocessableEntity, CodeBadGraph},
		{"unknown digest", mustMarshal(t, BatchRequest{
			Digest: "rapd1-0000000000000000000000000000000000000000000000000000000000000000",
			Items:  []BatchItem{{K: 1}},
		}), http.StatusNotFound, CodeUnknownDigest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code := postErrorCode(t, ts.URL+"/v1/batch", tc.body)
			if status != tc.wantStatus || code != tc.wantCode {
				t.Errorf("status %d code %q, want %d %q", status, code, tc.wantStatus, tc.wantCode)
			}
		})
	}
}

// TestBatchByDigestSharesLineage pins the by-reference path: a batch
// against a digest from an earlier response reuses the cached engine
// (cache "hit", builds == 1) and matches the full-problem batch.
func TestBatchByDigestSharesLineage(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	items := []BatchItem{{K: 1, Algo: "lazy"}, {K: 2, Algo: "lazy"}, {K: 3, Algo: "algorithm2"}}

	status, body := postJSON(t, ts.URL+"/v1/batch", batchOf(t, items))
	if status != http.StatusOK {
		t.Fatalf("seed batch: status %d: %s", status, body)
	}
	var seed BatchResponse
	if err := json.Unmarshal(body, &seed); err != nil {
		t.Fatal(err)
	}

	status, body = postJSON(t, ts.URL+"/v1/batch",
		mustMarshal(t, BatchRequest{Digest: seed.Digest, Items: items}))
	if status != http.StatusOK {
		t.Fatalf("by-reference batch: status %d: %s", status, body)
	}
	var ref BatchResponse
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	if ref.Cache != CacheHit {
		t.Errorf("by-reference cache = %q, want %q", ref.Cache, CacheHit)
	}
	for i := range items {
		if err := core.SamePlacement(itemOf(&seed.Items[i]), itemOf(&ref.Items[i])); err != nil {
			t.Errorf("item %d: by-reference vs seeded: %v", i, err)
		}
	}
	if builds := s.Metrics().Counter("serve.engine.builds").Value(); builds != 1 {
		t.Errorf("serve.engine.builds = %d, want 1 across both batches", builds)
	}
}

// TestBatchLazyWarmMatchesCold guards the warm-start fast path: the lazy
// algorithm served through a batch (which reads the engine's standalone
// gains, computed by the earlier place) must stay bit-identical to a cold single-threaded GreedyLazy.
func TestBatchLazyWarmMatchesCold(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testutil.Fig4Problem(t, utility.Linear{D: 10})
	_, want := oracleLazy(t, p)

	// Seed the lineage, then batch by reference so the warm path engages.
	status, body := postJSON(t, ts.URL+"/v1/place",
		mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "lazy"}))
	if status != http.StatusOK {
		t.Fatalf("seed place: status %d: %s", status, body)
	}
	var seeded PlaceResponse
	if err := json.Unmarshal(body, &seeded); err != nil {
		t.Fatal(err)
	}
	status, body = postJSON(t, ts.URL+"/v1/batch", mustMarshal(t, BatchRequest{
		Digest: seeded.Digest,
		Items:  []BatchItem{{K: 2, Algo: "lazy"}},
	}))
	if status != http.StatusOK {
		t.Fatalf("warm batch: status %d: %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if err := core.SamePlacement(want, itemOf(&batch.Items[0])); err != nil {
		t.Fatalf("warm batch vs cold oracle: %v", err)
	}
}
