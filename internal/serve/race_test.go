package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"roadside/internal/core"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// raceProblem is one distinct problem plus its single-threaded oracle.
type raceProblem struct {
	body   []byte
	digest string
	want   *core.Placement
}

// raceProblems generates n distinct problems with oracle answers, rotating
// the solver family per problem.
func raceProblems(t *testing.T, n int) []raceProblem {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	solvers := core.Solvers()
	seen := map[string]bool{}
	out := make([]raceProblem, n)
	for i := range out {
		p := testutil.RandomProblem(t, rng, 12, 8, 3, utility.Linear{D: 15})
		spec, err := ProblemSpecOf(p)
		if err != nil {
			t.Fatal(err)
		}
		digest, err := core.ProblemDigest(p)
		if err != nil {
			t.Fatal(err)
		}
		if seen[digest] {
			t.Fatalf("problem %d collides with an earlier digest %s", i, digest)
		}
		seen[digest] = true
		solver := solvers[i%len(solvers)]
		body, err := json.Marshal(PlaceRequest{ProblemSpec: spec, K: p.K, Algo: solver.Name})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngineWorkers(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solver.SolveWorkers(eng, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = raceProblem{body: body, digest: digest, want: want}
	}
	return out
}

// checkPlace posts one problem and verifies the response bit-for-bit
// against the oracle.
func checkPlace(url string, p *raceProblem) error {
	resp, err := http.Post(url+"/v1/place", "application/json", bytes.NewReader(p.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var got PlaceResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Digest != p.digest {
		return fmt.Errorf("digest %q, want %q", got.Digest, p.digest)
	}
	return core.SamePlacement(p.want, placeOf(&got))
}

// TestConcurrentClientsCoalesce is the headline concurrency acceptance
// test: 64 concurrent clients across 8 distinct problems produce exactly 8
// engine builds (request coalescing), and every response is bit-identical
// to a fresh single-threaded engine's answer. Run under -race in CI.
func TestConcurrentClientsCoalesce(t *testing.T) {
	const clients, nProblems = 64, 8
	problems := raceProblems(t, nProblems)
	s, ts := newTestServer(t, Config{})

	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for j := 0; j < nProblems; j++ {
				p := &problems[(c+j)%nProblems]
				if err := checkPlace(ts.URL, p); err != nil {
					t.Errorf("client %d problem %s: %v", c, p.digest[:16], err)
					return
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()

	reg := s.Metrics()
	builds := reg.Counter("serve.engine.builds").Value()
	if builds != nProblems {
		t.Errorf("serve.engine.builds = %d, want exactly %d", builds, nProblems)
	}
	miss := reg.Counter("serve.cache.miss").Value()
	hit := reg.Counter("serve.cache.hit").Value()
	coal := reg.Counter("serve.cache.coalesced").Value()
	if total := miss + hit + coal; total != clients*nProblems {
		t.Errorf("miss+hit+coalesced = %d+%d+%d = %d, want %d requests accounted",
			miss, hit, coal, total, clients*nProblems)
	}
	if miss != nProblems {
		t.Errorf("serve.cache.miss = %d, want %d (one per distinct problem)", miss, nProblems)
	}
}

// TestTinyCacheBudgetUnderRace sets the LRU budget to one byte so every
// insert evicts the previous engine, then races clients over several
// problems: constant churn, yet every response must stay bit-identical —
// eviction can never corrupt an in-flight solve.
func TestTinyCacheBudgetUnderRace(t *testing.T) {
	const clients, nProblems, rounds = 16, 4, 6
	problems := raceProblems(t, nProblems)
	s, ts := newTestServer(t, Config{CacheBytes: 1})

	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for j := 0; j < nProblems*rounds; j++ {
				p := &problems[(c+j)%nProblems]
				if err := checkPlace(ts.URL, p); err != nil {
					t.Errorf("client %d problem %s: %v", c, p.digest[:16], err)
					return
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()

	if entries, _ := s.cache.Stats(); entries != 1 {
		t.Errorf("cache entries = %d under a 1-byte budget, want 1", entries)
	}
	if evicted := s.Metrics().Counter("serve.cache.evicted").Value(); evicted == 0 {
		t.Error("no evictions under a 1-byte budget with 4 rotating problems")
	}
}
