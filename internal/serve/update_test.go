package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// oracleLazy solves p directly with a fresh single-worker engine; served
// by-reference answers must match it bit-for-bit.
func oracleLazy(t *testing.T, p *core.Problem) (*core.Engine, *core.Placement) {
	t.Helper()
	eng, err := core.NewEngineWorkers(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.GreedyLazy(eng)
	if err != nil {
		t.Fatal(err)
	}
	return eng, pl
}

func assertPlaceMatches(t *testing.T, got *PlaceResponse, want *core.Placement, label string) {
	t.Helper()
	if err := core.SamePlacement(want, placeOf(got)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func postErrorCode(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	status, data := postJSON(t, url, body)
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("decode error response %s: %v", data, err)
	}
	return status, er.Err.Code
}

// TestUpdateLifecycle walks the full delta path over the wire: place with
// a full problem (establishing the lineage), evolve it twice through
// /v1/update, query by reference at every step, and check each answer
// bit-for-bit against a fresh engine built from the equivalently-updated
// problem. Error paths (unknown digest, stale pin, invalid batch) must
// leave the lineage untouched.
func TestUpdateLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p0 := testutil.Fig4Problem(t, utility.Linear{D: 10})

	// Establish the lineage with a full-problem place.
	status, data := postJSON(t, ts.URL+"/v1/place",
		mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "lazy"}))
	if status != http.StatusOK {
		t.Fatalf("seed place: status %d: %s", status, data)
	}
	var seeded PlaceResponse
	if err := json.Unmarshal(data, &seeded); err != nil {
		t.Fatal(err)
	}
	base := seeded.Digest

	// Batch 1: drift a volume and add a new flow along a real path.
	addPath, _, err := p0.Graph.ShortestPath(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	status, data = postJSON(t, ts.URL+"/v1/update", mustMarshal(t, UpdateRequest{
		Digest: base,
		Updates: []FlowUpdateSpec{
			{Op: "set_volume", Flow: 0, Volume: 70},
			{Op: "add", ID: "promo", Path: addPath, Volume: 25, Alpha: 0.5},
		},
	}))
	if status != http.StatusOK {
		t.Fatalf("update 1: status %d: %s", status, data)
	}
	var up UpdateResponse
	if err := json.Unmarshal(data, &up); err != nil {
		t.Fatal(err)
	}
	if up.Digest != base+"@1" || up.Base != base || up.Seq != 1 {
		t.Fatalf("update 1 = %+v, want digest %s@1", up, base)
	}
	if up.Flows != p0.Flows.Len()+1 || up.TouchedNodes == 0 {
		t.Fatalf("update 1 flows=%d touched=%d, want %d flows and touched nodes", up.Flows, up.TouchedNodes, p0.Flows.Len()+1)
	}

	promo, err := flow.New("promo", addPath, 25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := core.ApplyToProblem(p0, []core.FlowUpdate{
		{Op: core.OpSetVolume, Flow: 0, Volume: 70},
		{Op: core.OpAddFlow, Add: promo},
	})
	if err != nil {
		t.Fatal(err)
	}
	oracleEng1, oraclePl1 := oracleLazy(t, p1)

	// By-reference place: the bare base and the pinned digest both resolve
	// to sequence 1 and answer bit-identically to the fresh oracle. The
	// lazy path reads the standalone gains the update inherited.
	for _, ref := range []string{base, base + "@1"} {
		status, data = postJSON(t, ts.URL+"/v1/place",
			mustMarshal(t, PlaceRequest{Digest: ref, K: 2, Algo: "lazy"}))
		if status != http.StatusOK {
			t.Fatalf("by-ref place %q: status %d: %s", ref, status, data)
		}
		var pr PlaceResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Digest != base+"@1" || pr.Cache != CacheHit {
			t.Fatalf("by-ref place %q: digest %q cache %q, want %s@1 hit", ref, pr.Digest, pr.Cache, base)
		}
		assertPlaceMatches(t, &pr, oraclePl1, "by-ref place "+ref)
	}

	// By-reference evaluate and detour against the same oracle engine.
	placement := []graph.NodeID{2, 4}
	status, data = postJSON(t, ts.URL+"/v1/evaluate",
		mustMarshal(t, EvaluateRequest{Digest: base, Placement: placement}))
	if status != http.StatusOK {
		t.Fatalf("by-ref evaluate: status %d: %s", status, data)
	}
	var ev EvaluateResponse
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	if want := oracleEng1.Evaluate(placement); math.Float64bits(ev.Objective) != math.Float64bits(want) {
		t.Fatalf("by-ref evaluate objective %v, oracle %v: not bit-identical", ev.Objective, want)
	}
	status, data = postJSON(t, ts.URL+"/v1/detour",
		mustMarshal(t, DetourRequest{Digest: base, Nodes: placement}))
	if status != http.StatusOK {
		t.Fatalf("by-ref detour: status %d: %s", status, data)
	}
	var dt DetourResponse
	if err := json.Unmarshal(data, &dt); err != nil {
		t.Fatal(err)
	}
	for i, nd := range dt.Nodes {
		if want := oracleEng1.StandaloneGain(placement[i]); math.Float64bits(nd.StandaloneGain) != math.Float64bits(want) {
			t.Fatalf("by-ref detour node %d standalone gain %v, oracle %v", placement[i], nd.StandaloneGain, want)
		}
	}

	// Batch 2: remove a flow; the lineage advances and the old pin stales.
	status, data = postJSON(t, ts.URL+"/v1/update", mustMarshal(t, UpdateRequest{
		Digest:  base,
		Updates: []FlowUpdateSpec{{Op: "remove", Flow: 0}},
	}))
	if status != http.StatusOK {
		t.Fatalf("update 2: status %d: %s", status, data)
	}
	if err := json.Unmarshal(data, &up); err != nil {
		t.Fatal(err)
	}
	if up.Digest != base+"@2" || up.Seq != 2 {
		t.Fatalf("update 2 = %+v, want %s@2", up, base)
	}
	p2, err := core.ApplyToProblem(p1, []core.FlowUpdate{{Op: core.OpRemoveFlow, Flow: 0}})
	if err != nil {
		t.Fatal(err)
	}
	_, oraclePl2 := oracleLazy(t, p2)
	status, data = postJSON(t, ts.URL+"/v1/place",
		mustMarshal(t, PlaceRequest{Digest: base, K: 2, Algo: "lazy"}))
	if status != http.StatusOK {
		t.Fatalf("place after update 2: status %d: %s", status, data)
	}
	var pr PlaceResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	assertPlaceMatches(t, &pr, oraclePl2, "place at seq 2")

	// Error paths, all leaving the lineage at sequence 2.
	cases := []struct {
		label, path string
		body        any
		status      int
		code        string
	}{
		{"stale pinned update", "/v1/update",
			UpdateRequest{Digest: base + "@1", Updates: []FlowUpdateSpec{{Op: "set_volume", Flow: 0, Volume: 5}}},
			http.StatusConflict, CodeStaleDigest},
		{"stale pinned place", "/v1/place",
			PlaceRequest{Digest: base + "@1", K: 2}, http.StatusConflict, CodeStaleDigest},
		{"unknown digest place", "/v1/place",
			PlaceRequest{Digest: "rapd1-nope", K: 2}, http.StatusNotFound, CodeUnknownDigest},
		{"unknown digest update", "/v1/update",
			UpdateRequest{Digest: "rapd1-nope", Updates: []FlowUpdateSpec{{Op: "remove", Flow: 0}}},
			http.StatusNotFound, CodeUnknownDigest},
		{"malformed digest ref", "/v1/place",
			PlaceRequest{Digest: base + "@x", K: 2}, http.StatusNotFound, CodeUnknownDigest},
		// Non-canonical spellings of the live sequence name no engine.
		{"signed digest seq place", "/v1/place",
			PlaceRequest{Digest: base + "@+2", K: 2}, http.StatusNotFound, CodeUnknownDigest},
		{"zero-padded digest seq update", "/v1/update",
			UpdateRequest{Digest: base + "@02", Updates: []FlowUpdateSpec{{Op: "set_volume", Flow: 0, Volume: 5}}},
			http.StatusNotFound, CodeUnknownDigest},
		{"out-of-range flow", "/v1/update",
			UpdateRequest{Digest: base, Updates: []FlowUpdateSpec{{Op: "set_volume", Flow: 99, Volume: 5}}},
			http.StatusUnprocessableEntity, CodeBadUpdate},
		{"unknown op", "/v1/update",
			UpdateRequest{Digest: base, Updates: []FlowUpdateSpec{{Op: "rename", Flow: 0}}},
			http.StatusUnprocessableEntity, CodeBadUpdate},
		{"empty batch", "/v1/update",
			UpdateRequest{Digest: base}, http.StatusUnprocessableEntity, CodeBadUpdate},
		{"missing digest", "/v1/update",
			UpdateRequest{Updates: []FlowUpdateSpec{{Op: "remove", Flow: 0}}},
			http.StatusUnprocessableEntity, CodeBadUpdate},
	}
	for _, tc := range cases {
		status, code := postErrorCode(t, ts.URL+tc.path, mustMarshal(t, tc.body))
		if status != tc.status || code != tc.code {
			t.Errorf("%s: status %d code %q, want %d %q", tc.label, status, code, tc.status, tc.code)
		}
	}
	status, data = postJSON(t, ts.URL+"/v1/place",
		mustMarshal(t, PlaceRequest{Digest: base + "@2", K: 2, Algo: "lazy"}))
	if status != http.StatusOK {
		t.Fatalf("lineage moved after failed updates: status %d: %s", status, data)
	}
}

// TestUpdateLineageRace runs 64 concurrent clients against one lineage: 1
// updater advancing the sequence through a known series of volume drifts,
// and 63 readers querying by reference. Every reader response must carry a
// digest base@s and match the precomputed oracle for exactly that s —
// old-or-new is fine, a torn blend of two sequences is the bug this test
// exists to catch.
func TestUpdateLineageRace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p0 := testutil.Fig4Problem(t, utility.Linear{D: 10})

	status, data := postJSON(t, ts.URL+"/v1/place",
		mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "lazy"}))
	if status != http.StatusOK {
		t.Fatalf("seed place: status %d: %s", status, data)
	}
	var seeded PlaceResponse
	if err := json.Unmarshal(data, &seeded); err != nil {
		t.Fatal(err)
	}
	base := seeded.Digest

	// Precompute the oracle at every sequence: seq s applies volumes
	// 40+1..40+s to flow 0 cumulatively (each update overwrites, so only
	// the last matters — but each seq is a distinct bit pattern).
	const rounds = 8
	evalNodes := []graph.NodeID{2, 4}
	oraclePls := make([]*core.Placement, rounds+1)
	oracleObjs := make([]float64, rounds+1)
	p := p0
	for s := 0; s <= rounds; s++ {
		if s > 0 {
			var err error
			p, err = core.ApplyToProblem(p, []core.FlowUpdate{
				{Op: core.OpSetVolume, Flow: 0, Volume: float64(40 + s)},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		eng, pl := oracleLazy(t, p)
		oraclePls[s] = pl
		oracleObjs[s] = eng.Evaluate(evalNodes)
	}

	checkPlaceAt := func(pr *PlaceResponse) error {
		prBase, seq, err := core.SplitDigest(pr.Digest)
		if err != nil || prBase != base || seq < 0 || seq > rounds {
			return fmt.Errorf("response digest %q not in lineage %s@[0..%d]", pr.Digest, base, rounds)
		}
		if err := core.SamePlacement(oraclePls[seq], placeOf(pr)); err != nil {
			return fmt.Errorf("seq %d: torn placement: %w", seq, err)
		}
		return nil
	}

	var done atomic.Bool
	errCh := make(chan error, 64)
	var wg sync.WaitGroup

	// The updater: one client advancing the lineage through every round.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for s := 1; s <= rounds; s++ {
			body := mustMarshal(t, UpdateRequest{
				Digest:  base,
				Updates: []FlowUpdateSpec{{Op: "set_volume", Flow: 0, Volume: float64(40 + s)}},
			})
			resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
			if err != nil {
				errCh <- err
				return
			}
			var up UpdateResponse
			err = json.NewDecoder(resp.Body).Decode(&up)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				errCh <- err
				return
			}
			if up.Seq != s || up.Digest != fmt.Sprintf("%s@%d", base, s) {
				errCh <- fmt.Errorf("update %d answered seq %d digest %q", s, up.Seq, up.Digest)
				return
			}
		}
	}()

	// 63 readers hammering by-reference place and evaluate on the bare base.
	for r := 0; r < 63; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				if (r+i)%2 == 0 {
					body := mustMarshal(t, PlaceRequest{Digest: base, K: 2, Algo: "lazy"})
					resp, err := http.Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(body))
					if err != nil {
						errCh <- err
						return
					}
					var pr PlaceResponse
					err = json.NewDecoder(resp.Body).Decode(&pr)
					if cerr := resp.Body.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						errCh <- err
						return
					}
					if err := checkPlaceAt(&pr); err != nil {
						errCh <- err
						return
					}
				} else {
					body := mustMarshal(t, EvaluateRequest{Digest: base, Placement: evalNodes})
					resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
					if err != nil {
						errCh <- err
						return
					}
					var ev EvaluateResponse
					err = json.NewDecoder(resp.Body).Decode(&ev)
					if cerr := resp.Body.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						errCh <- err
						return
					}
					_, seq, err := core.SplitDigest(ev.Digest)
					if err != nil || seq < 0 || seq > rounds {
						errCh <- fmt.Errorf("evaluate digest %q outside lineage", ev.Digest)
						return
					}
					if math.Float64bits(ev.Objective) != math.Float64bits(oracleObjs[seq]) {
						errCh <- fmt.Errorf("seq %d: evaluate objective %v, oracle %v", seq, ev.Objective, oracleObjs[seq])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The lineage settled at the final sequence.
	status, data = postJSON(t, ts.URL+"/v1/place",
		mustMarshal(t, PlaceRequest{Digest: base, K: 2, Algo: "lazy"}))
	if status != http.StatusOK {
		t.Fatalf("final place: status %d: %s", status, data)
	}
	var final PlaceResponse
	if err := json.Unmarshal(data, &final); err != nil {
		t.Fatal(err)
	}
	if final.Digest != fmt.Sprintf("%s@%d", base, rounds) {
		t.Fatalf("final digest %q, want %s@%d", final.Digest, base, rounds)
	}
	assertPlaceMatches(t, &final, oraclePls[rounds], "final place")
}
