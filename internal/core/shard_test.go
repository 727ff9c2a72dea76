package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"roadside/internal/graph"
	"roadside/internal/utility"
)

// TestShardBounds pins the deterministic shard partitioning: contiguous
// ranges, budget respected, oversized single flows rejected.
func TestShardBounds(t *testing.T) {
	bounds, err := shardBounds([]int{3, 4, 2, 5, 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 2}, {2, 4}, {4, 5}}
	if !reflect.DeepEqual(bounds, want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}

	if bounds, err = shardBounds(nil, 10); err != nil || len(bounds) != 1 || bounds[0] != [2]int{0, 0} {
		t.Fatalf("empty counts: bounds = %v, err = %v", bounds, err)
	}

	if _, err := shardBounds([]int{2, 11, 1}, 10); !errors.Is(err, ErrArenaOverflow) {
		t.Fatalf("oversized flow: err = %v, want ErrArenaOverflow", err)
	}
}

// TestShardedEngineBitIdentical is the sharding differential contract: an
// engine forced into many tiny shards must answer every query bit-for-bit
// like the default single-shard build, and every solver must produce the
// identical placement.
func TestShardedEngineBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 6; trial++ {
		nodes := 25 + rng.Intn(35)
		p := randomProblem(t, rng, nodes, 12+rng.Intn(18), 4, utility.Linear{D: 80})

		ref, err := NewEngineWorkers(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ref.NumShards() != 1 {
			t.Fatalf("default build: %d shards, want 1", ref.NumShards())
		}
		// A visit budget this small forces roughly one flow per shard.
		maxVisits := nodes + 1
		sharded, err := NewEngineMaxShard(p, 1+rng.Intn(4), maxVisits)
		if err != nil {
			t.Fatal(err)
		}
		if sharded.NumShards() < 2 {
			t.Fatalf("budget %d: %d shards, want > 1", maxVisits, sharded.NumShards())
		}

		for f := 0; f < p.Flows.Len(); f++ {
			for v := graph.NodeID(0); int(v) < nodes; v++ {
				a, b := ref.Detour(f, v), sharded.Detour(f, v)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("trial %d: Detour(%d,%d) = %v sharded, %v flat", trial, f, v, b, a)
				}
			}
		}
		for v := graph.NodeID(0); int(v) < nodes; v++ {
			if !reflect.DeepEqual(ref.VisitsAt(v), sharded.VisitsAt(v)) {
				t.Fatalf("trial %d: VisitsAt(%d) differs", trial, v)
			}
			a, b := ref.StandaloneGain(v), sharded.StandaloneGain(v)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("trial %d: StandaloneGain(%d) = %v sharded, %v flat", trial, v, b, a)
			}
		}
		placement := ref.Candidates()
		if len(placement) > 5 {
			placement = placement[:5]
		}
		if a, b := ref.Evaluate(placement), sharded.Evaluate(placement); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: Evaluate = %v sharded, %v flat", trial, b, a)
		}
		solvers := []func(*Engine) (*Placement, error){
			Algorithm1, Algorithm2, GreedyCombined, GreedyLazy,
		}
		for si, solve := range solvers {
			pa, err := solve(ref)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := solve(sharded)
			if err != nil {
				t.Fatal(err)
			}
			if err := SamePlacement(pa, pb); err != nil {
				t.Fatalf("trial %d solver %d: sharded placement diverges: %v", trial, si, err)
			}
		}
	}
}

// TestShardedEngineNoOverflow: an instance whose total visit count exceeds
// the shard budget builds (splitting) instead of dying with
// ErrArenaOverflow, which is exactly the dead-end the sharded builder
// removes.
func TestShardedEngineNoOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(t, rng, 30, 40, 3, utility.Linear{D: 60})

	// Total visits far exceed a per-shard budget of 35, yet construction
	// succeeds with multiple shards.
	e, err := NewEngineMaxShard(p, 2, 35)
	if err != nil {
		t.Fatalf("sharded build should absorb the overflow, got %v", err)
	}
	if e.NumShards() < 2 {
		t.Fatalf("want multiple shards, got %d", e.NumShards())
	}
	if e.ArenaBytes() <= 0 {
		t.Fatal("ArenaBytes must stay positive for sharded engines")
	}

	if _, err := NewEngineMaxShard(p, 1, 0); err == nil {
		t.Fatal("non-positive shard budget must be rejected")
	}
}

// TestShardedFingerprintWorkerIdentity: the determinism fingerprint must be
// invariant across construction worker counts at a fixed shard budget.
func TestShardedFingerprintWorkerIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomProblem(t, rng, 40, 25, 3, utility.Sqrt{D: 90})
	ref, err := NewEngineMaxShard(p, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		e, err := NewEngineMaxShard(p, workers, 50)
		if err != nil {
			t.Fatal(err)
		}
		if e.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("workers=%d: fingerprint %x != serial %x", workers, e.Fingerprint(), ref.Fingerprint())
		}
	}
}
